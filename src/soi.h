#ifndef SOI_SOI_H_
#define SOI_SOI_H_

/// Umbrella header: the library's public API in one include.
///
///   #include "soi.h"
///
/// Fine-grained headers remain available (and are preferred inside the
/// library itself; see the include-what-you-use convention in the sources).

#include "cascade/exact.h"          // exact #P oracles for tiny graphs
#include "cascade/simulate.h"       // direct IC simulation
#include "cascade/threshold.h"      // Linear Threshold model
#include "cascade/world.h"          // possible-world sampling
#include "core/ranking.h"           // influencer reliability ranking
#include "core/stability.h"         // seed-set stability (Figure 8)
#include "core/time_bounded.h"      // horizon-bounded spheres
#include "core/typical_cascade.h"   // spheres of influence (Algorithm 2)
#include "gen/datasets.h"           // the 12-configuration dataset registry
#include "gen/generators.h"         // synthetic graph generators
#include "graph/graph_io.h"         // edge-list I/O
#include "graph/graph_stats.h"      // topology diagnostics
#include "graph/prob_assign.h"      // WC / fixed / trivalency / ...
#include "graph/prob_graph.h"       // the probabilistic graph
#include "graph/sparsify.h"         // influence-network sparsification
#include "immunize/vaccination.h"   // data-driven vaccination
#include "index/cascade_index.h"    // the cascade index (Algorithm 1)
#include "infmax/baselines.h"       // degree / random seed selection
#include "infmax/evaluate.h"        // independent spread evaluation
#include "infmax/greedy_std.h"      // InfMax_std (fixed-world and MC)
#include "infmax/infmax_tc.h"       // InfMax_TC (Algorithm 3)
#include "infmax/rrset.h"           // RR-set (TIM-style) baseline
#include "infmax/sketch_oracle.h"   // bottom-k reachability sketches
#include "infmax/spread_oracle.h"   // exact per-world spread oracle
#include "infmax/weighted_cover.h"  // weighted / budgeted cover (§8)
#include "jaccard/jaccard.h"        // Jaccard distance
#include "jaccard/median.h"         // Jaccard median solvers
#include "problearn/action_log.h"   // propagation logs
#include "problearn/goyal.h"        // frequentist learner
#include "problearn/saito.h"        // EM learner
#include "reliability/reliability.h"  // reliability queries
#include "runtime/parallel_for.h"   // deterministic parallel loops
#include "runtime/thread_pool.h"    // shared worker pool
#include "service/engine.h"         // query service facade
#include "service/hot_swap.h"       // atomic engine hot-swap handle
#include "service/protocol.h"       // line-JSON wire protocol
#include "service/server.h"         // stdio / TCP serve loops
#include "snapshot/reader.h"        // mmap'd soi-snap-v1 loading
#include "snapshot/writer.h"        // soi-snap-v1 creation
#include "util/rng.h"               // deterministic PRNG
#include "util/status.h"            // Status / Result

#endif  // SOI_SOI_H_
