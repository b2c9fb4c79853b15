// The three workloads: build, serve and update.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "common.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  // Directory for the edge list and snapshot files (removed by the caller).
  std::string tmp_dir;
  // Where the traced pass writes its spans ("" = nowhere).
  std::string trace_out;
};

bool IsWorkload(const std::string& name);

// One measured pass of the workload. With `traced` the pass records spans
// and reports the per-layer metrics; otherwise the end-to-end ones.
RunResult RunWorkload(const RunOptions& options, bool traced);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
