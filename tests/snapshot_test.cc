// Tests for the snapshot subsystem (src/snapshot/): CRC-32C vectors, the
// soi-snap-v1 round trip (graph, condensations, closures, typical table),
// byte-identical query answers between an owned-index engine and an
// mmap-backed engine across models and thread counts, and the
// torn/truncated-file corpus that `snapshot verify` and Open() must reject
// with actionable errors instead of aborting. This suite runs in the ASan,
// UBSan, and TSan CI jobs.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cascade/threshold.h"
#include "core/typical_cascade.h"
#include "gen/generators.h"
#include "graph/prob_assign.h"
#include "graph/prob_graph.h"
#include "index/cascade_index.h"
#include "infmax/sketch_oracle.h"
#include "obs/metrics.h"
#include "runtime/parallel_for.h"
#include "service/engine.h"
#include "service/protocol.h"
#include "snapshot/crc32c.h"
#include "snapshot/format.h"
#include "snapshot/reader.h"
#include "snapshot/writer.h"
#include "util/rng.h"

namespace soi {
namespace {

ProbGraph RandomGraph(NodeId n, uint64_t m, uint64_t seed,
                      PropagationModel model =
                          PropagationModel::kIndependentCascade) {
  Rng rng(seed);
  auto topology = GenerateErdosRenyi(n, m, /*undirected=*/false, &rng);
  SOI_CHECK(topology.ok());
  auto graph = AssignUniform(*topology, &rng);
  SOI_CHECK(graph.ok());
  if (model == PropagationModel::kLinearThreshold) {
    // LT requires per-node incoming weights summing to <= 1.
    auto normalized = NormalizeLtWeights(*graph);
    SOI_CHECK(normalized.ok());
    return std::move(normalized).value();
  }
  return std::move(graph).value();
}

CascadeIndex BuildIndex(const ProbGraph& graph, PropagationModel model,
                        uint32_t worlds = 16, uint64_t seed = 1) {
  CascadeIndexOptions options;
  options.num_worlds = worlds;
  options.model = model;
  Rng rng(seed);
  auto index = CascadeIndex::Build(graph, options, &rng);
  SOI_CHECK(index.ok());
  return std::move(index).value();
}

// Prefixed with the running test's name: ctest runs every test case as its
// own process, in parallel, so cases sharing a bare name would overwrite
// each other's files mid-test.
std::string TempPath(const std::string& name) {
  const ::testing::TestInfo* test =
      ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + "/" + test->test_suite_name() + "." +
         test->name() + "." + name;
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  SOI_CHECK(static_cast<bool>(out));
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  SOI_CHECK(static_cast<bool>(out));
}

// Serializes graph+index (+typical) and returns the raw file bytes, so
// corruption tests can flip bits before writing to disk.
std::string SnapshotBytes(const ProbGraph& graph, const CascadeIndex& index,
                          const FlatSets* typical = nullptr,
                          PropagationModel model =
                              PropagationModel::kIndependentCascade) {
  SnapshotWriteOptions options;
  options.model = model;
  options.typical = typical;
  auto bytes = SerializeSnapshot(graph, index, options);
  SOI_CHECK(bytes.ok());
  return std::move(bytes).value();
}

// Locates a section's table entry inside raw snapshot bytes.
SectionEntry FindSection(const std::string& bytes, SectionKind kind) {
  SnapshotHeader header{};
  std::memcpy(&header, bytes.data(), sizeof(header));
  for (uint32_t i = 0; i < header.section_count; ++i) {
    SectionEntry e{};
    std::memcpy(&e, bytes.data() + sizeof(header) + i * sizeof(e), sizeof(e));
    if (e.kind == static_cast<uint32_t>(kind)) return e;
  }
  SOI_CHECK(false);
  return SectionEntry{};
}

// Every node's cascade in world w plus a two-seed cascade size, errors
// transcribed: what "world w answers" means when comparing two files.
std::string WorldAnswers(const CascadeIndex& index, uint32_t w) {
  CascadeIndex::Workspace ws;
  std::string out;
  for (NodeId v = 0; v < index.num_nodes(); ++v) {
    const auto cascade = index.Cascade(v, w, &ws);
    out += cascade.ok() ? std::to_string(cascade->size())
                        : cascade.status().ToString();
    for (const NodeId u : cascade.ok() ? *cascade : std::vector<NodeId>{}) {
      out += ' ' + std::to_string(u);
    }
    const NodeId pair[2] = {v, (v + 1) % index.num_nodes()};
    const auto size = index.CascadeSize(pair, w, &ws);
    out += size.ok() ? ';' + std::to_string(*size) + '\n'
                     : ';' + size.status().ToString() + '\n';
  }
  return out;
}

// Recomputes every section checksum and then the header checksum, so that
// only the structural and first-use checks can refuse the bytes.
std::string Resealed(std::string bytes) {
  SnapshotHeader header{};
  std::memcpy(&header, bytes.data(), sizeof(header));
  for (uint32_t i = 0; i < header.section_count; ++i) {
    char* row = bytes.data() + sizeof(header) + i * sizeof(SectionEntry);
    SectionEntry e{};
    std::memcpy(&e, row, sizeof(e));
    e.crc32c = Crc32c(bytes.data() + e.offset, e.byte_size);
    std::memcpy(row, &e, sizeof(e));
  }
  const uint32_t zero = 0;
  std::memcpy(bytes.data() + offsetof(SnapshotHeader, header_crc32c), &zero,
              sizeof(zero));
  const uint32_t crc = Crc32c(
      bytes.data(),
      sizeof(SnapshotHeader) + header.section_count * sizeof(SectionEntry));
  std::memcpy(bytes.data() + offsetof(SnapshotHeader, header_crc32c), &crc,
              sizeof(crc));
  return bytes;
}

// Opens `bytes` written to a temp file named after `name`.
std::shared_ptr<const Snapshot> OpenBytes(const std::string& bytes,
                                          const std::string& name) {
  const std::string path = TempPath(name);
  WriteBytes(path, bytes);
  auto snap = Snapshot::Open(path);
  SOI_CHECK(snap.ok());
  return *snap;
}

void ExpectNames(const Status& status, const std::string& needle,
                 uint32_t world) {
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  EXPECT_NE(status.ToString().find(needle), std::string::npos)
      << "message was: " << status.ToString();
  EXPECT_NE(status.ToString().find("world " + std::to_string(world)),
            std::string::npos)
      << "message was: " << status.ToString();
}

// Damage inside one world's closure runs, which Open(kStructural) leaves to
// the world's first use: Open(kFull) refuses the file naming `needle` even
// with every checksum resealed; a structural open serves it; the first
// query touching `damaged` returns InvalidArgument naming the world and
// `needle`, and a second query the same error; every other world answers
// exactly as the pristine file.
void ExpectClosureRejectedOnFirstUse(const std::string& pristine,
                                     const std::string& bad, uint32_t damaged,
                                     const std::string& needle) {
  const std::string path = TempPath("first-use.soisnap");
  WriteBytes(path, Resealed(bad));
  const auto full = Snapshot::Open(path, SnapshotValidation::kFull);
  ASSERT_FALSE(full.ok()) << "kFull admitted damage to world " << damaged;
  ExpectNames(full.status(), needle, damaged);

  const auto snap = OpenBytes(bad, "first-use-structural.soisnap");
  auto index = snap->MakeIndex();
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  CascadeIndex::Workspace ws;
  const auto first = index->Cascade(NodeId{0}, damaged, &ws);
  ASSERT_FALSE(first.ok());
  ExpectNames(first.status(), needle, damaged);
  const NodeId seeds[2] = {1, 2};
  const auto second = index->CascadeSize(seeds, damaged, &ws);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().ToString(), first.status().ToString());
  EXPECT_FALSE(index->PrepareAllWorlds().ok());

  const auto clean = OpenBytes(pristine, "first-use-pristine.soisnap");
  auto clean_index = clean->MakeIndex();
  ASSERT_TRUE(clean_index.ok());
  for (uint32_t w = 0; w < index->num_worlds(); ++w) {
    if (w == damaged) continue;
    EXPECT_EQ(WorldAnswers(*index, w), WorldAnswers(*clean_index, w))
        << "world " << w << " changed with damage confined to world "
        << damaged;
  }
}

// Both CRC-32C paths: the dispatched one (the `crc32` instruction where the
// CPU has SSE4.2) and the portable slice-by-8 one.
using Crc32cExtendFn = uint32_t (*)(uint32_t, const void*, size_t);
const Crc32cExtendFn kCrcPaths[] = {&Crc32cExtend, &Crc32cExtendPortable};

TEST(Crc32cTest, MatchesKnownVectors) {
  for (const Crc32cExtendFn crc : kCrcPaths) {
    // The canonical CRC-32C check value (RFC 3720 appendix B.4).
    const char digits[] = "123456789";
    EXPECT_EQ(crc(0, digits, 9), 0xE3069283u);
    EXPECT_EQ(crc(0, "", 0), 0u);
    // 32 zero bytes, another published vector.
    const std::string zeros(32, '\0');
    EXPECT_EQ(crc(0, zeros.data(), zeros.size()), 0x8A9136AAu);
  }
}

TEST(Crc32cTest, ExtendComposesLikeOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  const uint32_t whole = Crc32c(data.data(), data.size());
  for (const Crc32cExtendFn extend : kCrcPaths) {
    for (size_t split : {size_t{0}, size_t{1}, size_t{7}, size_t{20}}) {
      uint32_t crc = extend(0, data.data(), split);
      crc = extend(crc, data.data() + split, data.size() - split);
      EXPECT_EQ(crc, whole) << "split at " << split;
    }
  }
}

// The paths split a buffer differently (byte head to an 8-byte boundary,
// 8-byte body, byte tail), so they are held against each other at every
// start alignment 0-7 and every length 0-4096, on a 3 MiB buffer, and
// chained through Crc32cExtend at random split points.
TEST(Crc32cTest, DispatchedAndPortablePathsAgree) {
  std::vector<uint64_t> words((3 << 20) / 8 + 1);  // 8-byte aligned base
  Rng rng(77);
  for (uint64_t& word : words) word = rng.Next();
  const uint8_t* const bytes = reinterpret_cast<const uint8_t*>(words.data());
  for (size_t align = 0; align < 8; ++align) {
    for (size_t len = 0; len <= 4096; ++len) {
      ASSERT_EQ(Crc32cExtend(0, bytes + align, len),
                Crc32cExtendPortable(0, bytes + align, len))
          << "alignment " << align << " length " << len;
    }
  }
  const size_t big = size_t{3} << 20;
  const uint32_t whole = Crc32cExtendPortable(0, bytes, big);
  EXPECT_EQ(Crc32c(bytes, big), whole);
  for (int trial = 0; trial < 8; ++trial) {
    uint32_t dispatched = 0;
    uint32_t portable = 0;
    for (size_t at = 0; at < big;) {
      const size_t take = std::min<size_t>(rng.NextBounded(100000), big - at);
      dispatched = Crc32cExtend(dispatched, bytes + at, take);
      portable = Crc32cExtendPortable(portable, bytes + at, take);
      at += take;
    }
    EXPECT_EQ(dispatched, whole) << "trial " << trial;
    EXPECT_EQ(portable, whole) << "trial " << trial;
  }
}

TEST(SnapshotRoundTrip, GraphIndexAndClosuresSurvive) {
  const ProbGraph graph = RandomGraph(80, 400, 3);
  const CascadeIndex index =
      BuildIndex(graph, PropagationModel::kIndependentCascade);
  ASSERT_TRUE(index.has_closure_cache());
  const std::string path = TempPath("roundtrip.soisnap");
  ASSERT_TRUE(WriteSnapshot(graph, index, path, {}).ok());

  auto snap = Snapshot::Open(path, SnapshotValidation::kFull);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  EXPECT_EQ((*snap)->info().num_nodes, graph.num_nodes());
  EXPECT_EQ((*snap)->info().num_edges, graph.num_edges());
  EXPECT_EQ((*snap)->info().num_worlds, index.num_worlds());
  EXPECT_TRUE((*snap)->info().has_closures);
  EXPECT_FALSE((*snap)->info().has_typical);

  const ProbGraph loaded = (*snap)->MakeGraph();
  ASSERT_EQ(loaded.num_nodes(), graph.num_nodes());
  ASSERT_EQ(loaded.num_edges(), graph.num_edges());
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    EXPECT_EQ(loaded.EdgeSource(e), graph.EdgeSource(e));
    EXPECT_EQ(loaded.EdgeTarget(e), graph.EdgeTarget(e));
    EXPECT_EQ(loaded.EdgeProb(e), graph.EdgeProb(e));
  }

  auto borrowed = (*snap)->MakeIndex();
  ASSERT_TRUE(borrowed.ok()) << borrowed.status().ToString();
  ASSERT_EQ(borrowed->num_worlds(), index.num_worlds());
  ASSERT_TRUE(borrowed->has_closure_cache());
  // closure(w) is an unchecked accessor: the worlds are readied first.
  ASSERT_TRUE(borrowed->PrepareAllWorlds().ok());
  for (uint32_t w = 0; w < index.num_worlds(); ++w) {
    const Condensation& a = index.world(w);
    const Condensation& b = borrowed->world(w);
    ASSERT_EQ(a.num_components(), b.num_components());
    ASSERT_TRUE(std::equal(a.comp_of().begin(), a.comp_of().end(),
                           b.comp_of().begin()));
    ASSERT_TRUE(std::equal(a.dag_targets().begin(), a.dag_targets().end(),
                           b.dag_targets().begin()));
    const ReachabilityClosure& ca = index.closure(w);
    const ReachabilityClosure& cb = borrowed->closure(w);
    ASSERT_EQ(ca.num_components(), cb.num_components());
    for (uint32_t c = 0; c < ca.num_components(); ++c) {
      const auto xa = ca.Closure(c);
      const auto xb = cb.Closure(c);
      ASSERT_TRUE(std::equal(xa.begin(), xa.end(), xb.begin(), xb.end()));
      const auto na = ca.Cascade(c);
      const auto nb = cb.Cascade(c);
      ASSERT_TRUE(std::equal(na.begin(), na.end(), nb.begin(), nb.end()));
    }
  }
}

TEST(SnapshotRoundTrip, TypicalTableAndModelFlagSurvive) {
  const ProbGraph graph =
      RandomGraph(60, 300, 5, PropagationModel::kLinearThreshold);
  const CascadeIndex index =
      BuildIndex(graph, PropagationModel::kLinearThreshold);
  TypicalCascadeComputer computer(&index);
  auto sweep = computer.ComputeAllFlat();
  ASSERT_TRUE(sweep.ok());

  const std::string path = TempPath("typical.soisnap");
  SnapshotWriteOptions options;
  options.model = PropagationModel::kLinearThreshold;
  options.typical = &sweep->cascades;
  ASSERT_TRUE(WriteSnapshot(graph, index, path, options).ok());

  auto snap = Snapshot::Open(path, SnapshotValidation::kFull);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  EXPECT_TRUE((*snap)->info().has_typical);
  EXPECT_EQ((*snap)->info().model, PropagationModel::kLinearThreshold);
  EXPECT_TRUE((*snap)->MakeTypical() == sweep->cascades);
}

TEST(SnapshotRoundTrip, BorrowedIndexSerializesIdenticallyToOwned) {
  // The writer reads through the span accessors, so re-serializing a
  // borrowed (mmap-backed) index produces the bytes it was loaded from, in
  // both closure encodings.
  const ProbGraph graph = RandomGraph(50, 250, 9);
  const CascadeIndex index =
      BuildIndex(graph, PropagationModel::kIndependentCascade);
  for (const bool pack : {true, false}) {
    SnapshotWriteOptions options;
    options.pack = pack;
    auto bytes = SerializeSnapshot(graph, index, options);
    ASSERT_TRUE(bytes.ok());
    const std::string path = TempPath("reserialize.soisnap");
    WriteBytes(path, *bytes);
    auto snap = Snapshot::Open(path);
    ASSERT_TRUE(snap.ok());
    auto borrowed = (*snap)->MakeIndex();
    ASSERT_TRUE(borrowed.ok());
    auto again = SerializeSnapshot(graph, *borrowed, options);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(*bytes, *again) << "pack " << pack;
  }
}

// The acceptance bar for the whole subsystem: every request type answered
// by an engine borrowing its state from the mapping is byte-identical (at
// the wire-format level) to the owned-index engine, for both models, at
// every thread count.
TEST(SnapshotEngineTest, ResponsesByteIdenticalToOwnedEngineAcrossThreads) {
  for (const PropagationModel model : {PropagationModel::kIndependentCascade,
                                       PropagationModel::kLinearThreshold}) {
    const ProbGraph graph = RandomGraph(90, 450, 7, model);

    service::EngineOptions options;
    options.index.num_worlds = 16;
    options.index.model = model;
    options.seed = 1;
    auto owned = service::Engine::Create(graph, options);
    ASSERT_TRUE(owned.ok()) << owned.status().ToString();

    // Snapshot of the identical serving state (same options, same seed).
    CascadeIndexOptions index_options = options.index;
    Rng rng(options.seed);
    auto index = CascadeIndex::Build(graph, index_options, &rng);
    ASSERT_TRUE(index.ok());
    TypicalCascadeComputer computer(&*index);
    auto sweep = computer.ComputeAllFlat();
    ASSERT_TRUE(sweep.ok());
    const std::string path = TempPath("engine.soisnap");
    SnapshotWriteOptions write_options;
    write_options.model = model;
    write_options.typical = &sweep->cascades;
    ASSERT_TRUE(WriteSnapshot(graph, *index, path, write_options).ok());

    auto snap = Snapshot::Open(path);
    ASSERT_TRUE(snap.ok()) << snap.status().ToString();
    service::EngineParts parts;
    parts.graph = (*snap)->MakeGraph();
    auto borrowed_index = (*snap)->MakeIndex();
    ASSERT_TRUE(borrowed_index.ok());
    parts.index = std::move(*borrowed_index);
    parts.typical = (*snap)->MakeTypical();
    parts.storage = *snap;
    auto mapped = service::Engine::FromParts(std::move(parts), options);
    ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();

    std::vector<service::Request> requests;
    requests.push_back({service::TypicalCascadeRequest{{3}, false}, 0});
    requests.push_back({service::TypicalCascadeRequest{{3, 5}, true}, 0});
    requests.push_back({service::CascadeRequest{{2}, 4}, 0});
    requests.push_back({service::SpreadRequest{{3, 17}}, 0});
    requests.push_back({service::SeedSelectRequest{4, "tc"}, 0});
    requests.push_back({service::SeedSelectRequest{4, "std"}, 0});
    requests.push_back({service::ReliabilityRequest{{3}, 0.3}, 0});

    for (const uint32_t threads : {1u, 8u}) {
      SetGlobalThreads(threads);
      auto from_owned = owned->RunBatch(requests);
      auto from_mapped = mapped->RunBatch(requests);
      ASSERT_TRUE(from_owned.ok());
      ASSERT_TRUE(from_mapped.ok());
      for (size_t i = 0; i < requests.size(); ++i) {
        EXPECT_EQ(service::FormatResponseLine(static_cast<int64_t>(i),
                                              (*from_owned)[i]),
                  service::FormatResponseLine(static_cast<int64_t>(i),
                                              (*from_mapped)[i]))
            << "request " << i << " model "
            << (model == PropagationModel::kLinearThreshold ? "lt" : "ic")
            << " threads " << threads;
      }
    }
    SetGlobalThreads(0);
  }
}

// ---------------------------------------------------------------------------
// The corruption corpus. Untrusted bytes must come back as InvalidArgument
// with an actionable message — never a CHECK, never an out-of-bounds read.
// ---------------------------------------------------------------------------

class SnapshotCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = RandomGraph(40, 200, 13);
    index_ = BuildIndex(graph_, PropagationModel::kIndependentCascade);
    bytes_ = SnapshotBytes(graph_, index_);
  }

  // Writes `bytes` to a temp file and expects Open (at `validation`) to fail
  // with InvalidArgument mentioning `needle`.
  void ExpectOpenFails(const std::string& bytes, const std::string& needle,
                       SnapshotValidation validation =
                           SnapshotValidation::kStructural) {
    const std::string path = TempPath("corrupt.soisnap");
    WriteBytes(path, bytes);
    auto snap = Snapshot::Open(path, validation);
    ASSERT_FALSE(snap.ok()) << "expected failure mentioning: " << needle;
    EXPECT_EQ(snap.status().code(), StatusCode::kInvalidArgument)
        << snap.status().ToString();
    EXPECT_NE(snap.status().ToString().find(needle), std::string::npos)
        << "message was: " << snap.status().ToString();
  }

  ProbGraph graph_;
  CascadeIndex index_;
  std::string bytes_;
};

TEST_F(SnapshotCorruptionTest, PristineBytesPassFullValidation) {
  const std::string path = TempPath("pristine.soisnap");
  WriteBytes(path, bytes_);
  EXPECT_TRUE(Snapshot::Open(path, SnapshotValidation::kFull).ok());
}

TEST_F(SnapshotCorruptionTest, TruncationAtEveryLayerIsRejected) {
  // Shorter than the header.
  ExpectOpenFails(bytes_.substr(0, 10), "truncated");
  ExpectOpenFails(bytes_.substr(0, 63), "truncated");
  // Header intact but the declared file size no longer matches.
  ExpectOpenFails(bytes_.substr(0, 64), "truncated or padded");
  ExpectOpenFails(bytes_.substr(0, bytes_.size() / 2), "truncated or padded");
  ExpectOpenFails(bytes_.substr(0, bytes_.size() - 1), "truncated or padded");
  // Padded is as suspect as truncated.
  ExpectOpenFails(bytes_ + std::string(16, '\0'), "truncated or padded");
}

TEST_F(SnapshotCorruptionTest, WrongMagicNamesTheLegacyFormat) {
  std::string bad = bytes_;
  std::memcpy(bad.data(), "SOIIDX1\0", 8);
  ExpectOpenFails(bad, "wrong magic");
}

TEST_F(SnapshotCorruptionTest, FutureVersionIsRefusedWithUpgradeHint) {
  std::string bad = bytes_;
  const uint32_t future = 99;
  std::memcpy(bad.data() + offsetof(SnapshotHeader, version), &future,
              sizeof(future));
  ExpectOpenFails(bad, "unsupported version 99");
}

TEST_F(SnapshotCorruptionTest, BigEndianFileIsNamedAsSuch) {
  std::string bad = bytes_;
  const uint32_t swapped = 0x04030201u;
  std::memcpy(bad.data() + offsetof(SnapshotHeader, endian_tag), &swapped,
              sizeof(swapped));
  ExpectOpenFails(bad, "big-endian");
}

TEST_F(SnapshotCorruptionTest, ForeignCapabilityFlagsAreRefused) {
  std::string bad = bytes_;
  uint64_t flags = 0;
  std::memcpy(&flags, bad.data() + offsetof(SnapshotHeader, flags),
              sizeof(flags));
  flags |= 1ull << 40;  // a capability this binary has never heard of
  std::memcpy(bad.data() + offsetof(SnapshotHeader, flags), &flags,
              sizeof(flags));
  ExpectOpenFails(bad, "unknown capability flags");
}

TEST_F(SnapshotCorruptionTest, TornSectionTableFailsTheHeaderChecksum) {
  std::string bad = bytes_;
  bad[sizeof(SnapshotHeader) + 20] ^= 0xFF;  // inside the section table
  ExpectOpenFails(bad, "checksum mismatch");
}

TEST_F(SnapshotCorruptionTest, PayloadBitRotCaughtByFullValidationOnly) {
  // Flip one byte inside the probability payload: structurally the file is
  // still sound (probabilities are not id-range-checked), so kStructural
  // admits it — exactly why `snapshot verify` runs kFull.
  const SectionEntry probs = FindSection(bytes_, SectionKind::kGraphProbs);
  std::string bad = bytes_;
  bad[probs.offset + probs.byte_size / 2] ^= 0x01;
  const std::string path = TempPath("bitrot.soisnap");
  WriteBytes(path, bad);
  EXPECT_TRUE(Snapshot::Open(path, SnapshotValidation::kStructural).ok());
  ExpectOpenFails(bad, "payload checksum mismatch", SnapshotValidation::kFull);
}

TEST_F(SnapshotCorruptionTest, OutOfRangeIdsAreCaughtStructurally) {
  // Corrupt a stored node id to be >= num_nodes. Structural validation must
  // refuse the file — this is the check that guarantees no query ever reads
  // out of bounds — but the section-table CRC still passes (the table itself
  // is intact), so we know the *range scan* caught it, not a checksum.
  const SectionEntry targets = FindSection(bytes_, SectionKind::kGraphTargets);
  std::string bad = bytes_;
  const uint32_t huge = 0x7FFFFFFFu;
  std::memcpy(bad.data() + targets.offset, &huge, sizeof(huge));
  ExpectOpenFails(bad, "out of node range");
}

TEST_F(SnapshotCorruptionTest, OutOfRangeRawClosureIdIsRejectedOnFirstUse) {
  // A raw (--no-pack) world keeps its runs zero-copy; their id-range scan
  // runs on the world's first use. The first node id of the pool belongs
  // to world 0.
  SnapshotWriteOptions raw;
  raw.pack = false;
  auto raw_bytes = SerializeSnapshot(graph_, index_, raw);
  ASSERT_TRUE(raw_bytes.ok());
  const SectionEntry nodes =
      FindSection(*raw_bytes, SectionKind::kClosureNodes);
  std::string bad = *raw_bytes;
  const uint32_t huge = 0x7FFFFFFFu;
  std::memcpy(bad.data() + nodes.offset, &huge, sizeof(huge));
  ExpectClosureRejectedOnFirstUse(*raw_bytes, bad, 0,
                                  "closure stores an out-of-range id");
}

TEST_F(SnapshotCorruptionTest, MissingFileIsAnIOErrorNotACrash) {
  auto snap = Snapshot::Open(TempPath("does-not-exist.soisnap"));
  ASSERT_FALSE(snap.ok());
  EXPECT_EQ(snap.status().code(), StatusCode::kIOError)
      << snap.status().ToString();
}

// ---------------------------------------------------------------------------
// Stale-snapshot guard: the graph fingerprint recorded in the header.
// ---------------------------------------------------------------------------

TEST(SnapshotFreshnessTest, FingerprintRoundTripsThroughTheFile) {
  const ProbGraph graph = RandomGraph(30, 150, 23);
  const CascadeIndex index =
      BuildIndex(graph, PropagationModel::kIndependentCascade);
  const std::string path = TempPath("fingerprint.soisnap");
  ASSERT_TRUE(WriteSnapshot(graph, index, path, {}).ok());
  auto snap = Snapshot::Open(path);
  ASSERT_TRUE(snap.ok());
  EXPECT_NE((*snap)->info().graph_fingerprint, 0u);
  EXPECT_EQ((*snap)->info().graph_fingerprint, GraphFingerprint(graph));
  // A re-loaded borrowed graph fingerprints identically (CSR order is
  // canonical, so the fingerprint is a pure function of the edge set).
  EXPECT_EQ(GraphFingerprint((*snap)->MakeGraph()), GraphFingerprint(graph));
}

TEST(SnapshotFreshnessTest, MatchingGraphPassesMutatedGraphIsRejected) {
  const ProbGraph graph = RandomGraph(30, 150, 23);
  const CascadeIndex index =
      BuildIndex(graph, PropagationModel::kIndependentCascade);
  const std::string path = TempPath("freshness.soisnap");
  ASSERT_TRUE(WriteSnapshot(graph, index, path, {}).ok());
  auto snap = Snapshot::Open(path);
  ASSERT_TRUE(snap.ok());

  EXPECT_TRUE(CheckSnapshotFreshness((*snap)->info(), graph).ok());

  // Any mutation — here one re-weighted edge — must be detected, with an
  // actionable message naming both fingerprints.
  ProbGraphBuilder b(graph.num_nodes());
  bool first = true;
  const auto sources = graph.sources();
  const auto targets = graph.targets();
  const auto probs = graph.probs();
  for (size_t e = 0; e < targets.size(); ++e) {
    const double p = first ? probs[e] * 0.5 : probs[e];
    first = false;
    ASSERT_TRUE(b.AddEdge(sources[e], targets[e], p).ok());
  }
  auto mutated = b.Build();
  ASSERT_TRUE(mutated.ok());
  const Status stale = CheckSnapshotFreshness((*snap)->info(), *mutated);
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(stale.message().find("stale snapshot"), std::string::npos);
  EXPECT_NE(stale.message().find("re-create the snapshot"),
            std::string::npos);
}

TEST(SnapshotFreshnessTest, LegacyZeroFingerprintIsAccepted) {
  const ProbGraph graph = RandomGraph(30, 150, 23);
  const CascadeIndex index =
      BuildIndex(graph, PropagationModel::kIndependentCascade);
  // Forge a pre-fingerprint file: zero the field (it was `reserved` then)
  // and re-stamp the header CRC, which covers header + section table with
  // the CRC field itself zeroed.
  std::string bytes = SnapshotBytes(graph, index);
  const uint64_t zero = 0;
  std::memcpy(bytes.data() + offsetof(SnapshotHeader, graph_fingerprint),
              &zero, sizeof(zero));
  SnapshotHeader header{};
  std::memcpy(&header, bytes.data(), sizeof(header));
  const uint32_t zero32 = 0;
  std::memcpy(bytes.data() + offsetof(SnapshotHeader, header_crc32c),
              &zero32, sizeof(zero32));
  const uint32_t crc = Crc32c(
      bytes.data(),
      sizeof(SnapshotHeader) + header.section_count * sizeof(SectionEntry));
  std::memcpy(bytes.data() + offsetof(SnapshotHeader, header_crc32c), &crc,
              sizeof(crc));
  const std::string path = TempPath("legacy.soisnap");
  WriteBytes(path, bytes);

  auto snap = Snapshot::Open(path);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  EXPECT_EQ((*snap)->info().graph_fingerprint, 0u);
  // Freshness is unknowable for legacy files; the check passes for any
  // graph rather than rejecting every pre-fingerprint snapshot in the wild.
  EXPECT_TRUE(CheckSnapshotFreshness((*snap)->info(), graph).ok());
  const ProbGraph other = RandomGraph(31, 150, 29);
  EXPECT_TRUE(CheckSnapshotFreshness((*snap)->info(), other).ok());
}

// ---------------------------------------------------------------------------
// v1.1: delta-varint packed sections and the per-world tier table.
// ---------------------------------------------------------------------------

TEST(SnapshotPackedTest, PackedFileIsSmallerAndAnswersIdentically) {
  const ProbGraph graph = RandomGraph(80, 400, 31);
  const CascadeIndex index =
      BuildIndex(graph, PropagationModel::kIndependentCascade);
  ASSERT_TRUE(index.has_closure_cache());
  TypicalCascadeComputer computer(&index);
  auto sweep = computer.ComputeAllFlat();
  ASSERT_TRUE(sweep.ok());

  SnapshotWriteOptions packed_options;
  packed_options.typical = &sweep->cascades;
  auto packed_bytes = SerializeSnapshot(graph, index, packed_options);
  ASSERT_TRUE(packed_bytes.ok());
  SnapshotWriteOptions raw_options = packed_options;
  raw_options.pack = false;
  auto raw_bytes = SerializeSnapshot(graph, index, raw_options);
  ASSERT_TRUE(raw_bytes.ok());
  // The point of the encoding: the packed file is strictly smaller.
  EXPECT_LT(packed_bytes->size(), raw_bytes->size());

  for (const bool pack : {true, false}) {
    const std::string path =
        TempPath(pack ? "packed.soisnap" : "unpacked.soisnap");
    WriteBytes(path, pack ? *packed_bytes : *raw_bytes);
    auto snap = Snapshot::Open(path, SnapshotValidation::kFull);
    ASSERT_TRUE(snap.ok()) << snap.status().ToString();
    EXPECT_EQ((*snap)->info().packed, pack);
    EXPECT_TRUE((*snap)->info().has_closures);
    EXPECT_TRUE((*snap)->info().has_typical);
    // Logical equality regardless of the on-disk encoding.
    EXPECT_TRUE((*snap)->MakeTypical() == sweep->cascades);
    auto loaded = (*snap)->MakeIndex();
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ASSERT_TRUE(loaded->has_closure_cache());
    ASSERT_TRUE(loaded->PrepareAllWorlds().ok());
    for (uint32_t w = 0; w < index.num_worlds(); ++w) {
      const ReachabilityClosure& ca = index.closure(w);
      const ReachabilityClosure& cb = loaded->closure(w);
      ASSERT_EQ(ca.num_components(), cb.num_components());
      for (uint32_t c = 0; c < ca.num_components(); ++c) {
        const auto xa = ca.Closure(c), xb = cb.Closure(c);
        ASSERT_TRUE(std::equal(xa.begin(), xa.end(), xb.begin(), xb.end()))
            << "pack " << pack << " world " << w << " comp " << c;
        const auto na = ca.Cascade(c), nb = cb.Cascade(c);
        ASSERT_TRUE(std::equal(na.begin(), na.end(), nb.begin(), nb.end()))
            << "pack " << pack << " world " << w << " comp " << c;
      }
    }
  }
}

TEST(SnapshotPackedTest, WriterReencodesTypicalAcrossEncodings) {
  // snapshot -> serve -> snapshot must work in both directions: the writer
  // re-encodes whichever FlatSets encoding it is handed to match `pack`.
  const ProbGraph graph = RandomGraph(50, 250, 43);
  const CascadeIndex index =
      BuildIndex(graph, PropagationModel::kIndependentCascade);
  TypicalCascadeComputer computer(&index);
  auto sweep = computer.ComputeAllFlat();
  ASSERT_TRUE(sweep.ok());

  const std::string packed_path = TempPath("reencode-packed.soisnap");
  SnapshotWriteOptions options;
  options.typical = &sweep->cascades;  // raw in, packed file out
  ASSERT_TRUE(WriteSnapshot(graph, index, packed_path, options).ok());
  auto packed_snap = Snapshot::Open(packed_path);
  ASSERT_TRUE(packed_snap.ok());
  const FlatSets borrowed_packed = (*packed_snap)->MakeTypical();
  EXPECT_TRUE(borrowed_packed.packed());

  const std::string raw_path = TempPath("reencode-raw.soisnap");
  SnapshotWriteOptions raw_options;
  raw_options.typical = &borrowed_packed;  // packed in, raw file out
  raw_options.pack = false;
  ASSERT_TRUE(WriteSnapshot(graph, index, raw_path, raw_options).ok());
  auto raw_snap = Snapshot::Open(raw_path, SnapshotValidation::kFull);
  ASSERT_TRUE(raw_snap.ok()) << raw_snap.status().ToString();
  const FlatSets reloaded = (*raw_snap)->MakeTypical();
  EXPECT_FALSE(reloaded.packed());
  EXPECT_TRUE(reloaded == sweep->cascades);
}

// Pins kAuto's greedy pass to a known mixed assignment: a budget of
// (world 0's materialized cost + world 1's label cost) materializes world
// 0, labels world 1, and leaves the rest on traversal — assuming labels
// are cheaper than closures here, which the ASSERT_LT guards.
uint64_t MixedTierBudget(CascadeIndex* index) {
  const uint64_t mat0 = index->closure(0).ApproxBytes();
  const uint64_t mat1 = index->closure(1).ApproxBytes();
  index->RebuildClosureTiersBytes(uint64_t{1} << 30,
                                  ClosureTierPolicy::kLabels);
  const uint64_t lab1 = index->labels(1).ApproxBytes();
  SOI_CHECK(lab1 < mat1);
  return mat0 + lab1;
}

TEST(SnapshotTieredTest, MixedTierIndexRoundTripsExactly) {
  const ProbGraph graph = RandomGraph(100, 500, 37);
  CascadeIndex index =
      BuildIndex(graph, PropagationModel::kIndependentCascade);
  ASSERT_TRUE(index.has_closure_cache());
  index.RebuildClosureTiersBytes(MixedTierBudget(&index),
                                 ClosureTierPolicy::kAuto);
  const uint32_t n_mat = index.stats().worlds_materialized;
  const uint32_t n_lab = index.stats().worlds_labeled;
  ASSERT_GT(n_mat, 0u);
  ASSERT_GT(n_lab, 0u);

  const std::string path = TempPath("tiered.soisnap");
  ASSERT_TRUE(WriteSnapshot(graph, index, path, {}).ok());
  auto snap = Snapshot::Open(path, SnapshotValidation::kFull);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  EXPECT_TRUE((*snap)->info().tiered);
  EXPECT_TRUE((*snap)->info().has_labels);
  EXPECT_EQ((*snap)->info().worlds_materialized, n_mat);
  EXPECT_EQ((*snap)->info().worlds_labeled, n_lab);
  EXPECT_EQ((*snap)->info().worlds_traversal,
            index.num_worlds() - n_mat - n_lab);

  auto loaded = (*snap)->MakeIndex();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->num_worlds(), index.num_worlds());
  CascadeIndex::Workspace ws;
  for (uint32_t w = 0; w < index.num_worlds(); ++w) {
    ASSERT_EQ(loaded->tier(w), index.tier(w)) << "world " << w;
    if (index.tier(w) == WorldTier::kLabels) {
      const ReachLabels& la = index.labels(w);
      const ReachLabels& lb = loaded->labels(w);
      const auto oa = la.offsets_view(), ob = lb.offsets_view();
      ASSERT_TRUE(std::equal(oa.begin(), oa.end(), ob.begin(), ob.end()));
      const auto ba = la.bounds_view(), bb = lb.bounds_view();
      ASSERT_TRUE(std::equal(ba.begin(), ba.end(), bb.begin(), bb.end()));
      const auto ra = la.reach_nodes_view(), rb = lb.reach_nodes_view();
      ASSERT_TRUE(std::equal(ra.begin(), ra.end(), rb.begin(), rb.end()));
    }
    // The tier is an accelerator, never a semantic: cascades agree on
    // every tier, original vs. reloaded.
    for (const NodeId v : {NodeId{0}, NodeId{17}, NodeId{63}}) {
      auto a = index.Cascade(v, w, &ws);
      auto b = loaded->Cascade(v, w, &ws);
      ASSERT_TRUE(a.ok() && b.ok());
      EXPECT_EQ(*a, *b) << "world " << w << " node " << v;
    }
  }
}

TEST(SnapshotTieredTest, AllLabelsIndexRoundTrips) {
  const ProbGraph graph = RandomGraph(60, 300, 47);
  CascadeIndex index =
      BuildIndex(graph, PropagationModel::kIndependentCascade);
  index.RebuildClosureTiersBytes(uint64_t{1} << 30,
                                 ClosureTierPolicy::kLabels);
  ASSERT_EQ(index.stats().worlds_labeled, index.num_worlds());

  const std::string path = TempPath("all-labels.soisnap");
  ASSERT_TRUE(WriteSnapshot(graph, index, path, {}).ok());
  auto snap = Snapshot::Open(path, SnapshotValidation::kFull);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  EXPECT_TRUE((*snap)->info().tiered);
  EXPECT_FALSE((*snap)->info().has_closures);
  EXPECT_EQ((*snap)->info().worlds_labeled, index.num_worlds());
  auto loaded = (*snap)->MakeIndex();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  CascadeIndex::Workspace ws;
  for (uint32_t w = 0; w < index.num_worlds(); ++w) {
    ASSERT_EQ(loaded->tier(w), WorldTier::kLabels);
    auto a = index.Cascade(NodeId{5}, w, &ws);
    auto b = loaded->Cascade(NodeId{5}, w, &ws);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(*a, *b) << "world " << w;
  }
}

TEST(SnapshotVersionTest, NewerMinorVersionIsTolerated) {
  // Minor bumps are additive-only; a v1.x file from a newer writer must
  // still open as long as every capability flag is understood.
  const ProbGraph graph = RandomGraph(40, 200, 53);
  const CascadeIndex index =
      BuildIndex(graph, PropagationModel::kIndependentCascade);
  std::string bytes = SnapshotBytes(graph, index);
  const uint32_t future_minor =
      kSnapshotVersionMajor | (uint32_t{7} << 16);
  std::memcpy(bytes.data() + offsetof(SnapshotHeader, version), &future_minor,
              sizeof(future_minor));
  SnapshotHeader header{};
  std::memcpy(&header, bytes.data(), sizeof(header));
  const uint32_t zero32 = 0;
  std::memcpy(bytes.data() + offsetof(SnapshotHeader, header_crc32c), &zero32,
              sizeof(zero32));
  const uint32_t crc = Crc32c(
      bytes.data(),
      sizeof(SnapshotHeader) + header.section_count * sizeof(SectionEntry));
  std::memcpy(bytes.data() + offsetof(SnapshotHeader, header_crc32c), &crc,
              sizeof(crc));
  const std::string path = TempPath("future-minor.soisnap");
  WriteBytes(path, bytes);
  auto snap = Snapshot::Open(path, SnapshotValidation::kFull);
  EXPECT_TRUE(snap.ok()) << snap.status().ToString();
}

// Corruption corpus for the v1.1 sections: malformed packed runs, label
// intervals, and tier-table entries must all be caught *structurally*.
class SnapshotTieredCorruptionTest : public SnapshotCorruptionTest {
 protected:
  void SetUp() override {
    graph_ = RandomGraph(60, 300, 41);
    index_ = BuildIndex(graph_, PropagationModel::kIndependentCascade);
    index_.RebuildClosureTiersBytes(MixedTierBudget(&index_),
                                    ClosureTierPolicy::kAuto);
    SOI_CHECK(index_.stats().worlds_materialized > 0);
    SOI_CHECK(index_.stats().worlds_labeled > 0);
    bytes_ = SnapshotBytes(graph_, index_);
  }
};

TEST_F(SnapshotTieredCorruptionTest, PristineTieredBytesPassFullValidation) {
  const std::string path = TempPath("tiered-pristine.soisnap");
  WriteBytes(path, bytes_);
  auto snap = Snapshot::Open(path, SnapshotValidation::kFull);
  EXPECT_TRUE(snap.ok()) << snap.status().ToString();
}

TEST_F(SnapshotTieredCorruptionTest, UnknownTierValueIsRejected) {
  const SectionEntry tiers = FindSection(bytes_, SectionKind::kTierTable);
  std::string bad = bytes_;
  const uint32_t bogus = 7;
  std::memcpy(bad.data() + tiers.offset, &bogus, sizeof(bogus));
  ExpectOpenFails(bad, "unknown storage tier");
}

TEST_F(SnapshotTieredCorruptionTest, MalformedPackedClosureRunIsRejected) {
  // 0xFF-fill the head of the packed pool: either the varint decodes past
  // uint32 range or the cursor overruns its slice — both are malformed. The
  // head belongs to the first materialized world, whose runs are checked
  // on its first use.
  const SectionEntry pool =
      FindSection(bytes_, SectionKind::kClosureCompsPacked);
  std::string bad = bytes_;
  for (uint64_t i = 0; i < 5 && i < pool.byte_size; ++i) {
    bad[pool.offset + i] = static_cast<char>(0xFF);
  }
  uint32_t damaged = 0;
  while (index_.tier(damaged) != WorldTier::kMaterialized) ++damaged;
  ExpectClosureRejectedOnFirstUse(bytes_, bad, damaged, "packed closure run");
}

TEST_F(SnapshotTieredCorruptionTest, OverlongPackedClosureCountIsRejected) {
  // A closure element count past its world's byte extent cannot decode
  // (every id takes at least one byte). The offsets stay non-decreasing,
  // so Open admits them and the world's first use refuses it before
  // allocating for the count.
  uint32_t damaged = 0;
  while (index_.tier(damaged) != WorldTier::kMaterialized) ++damaged;
  const SectionEntry offsets =
      FindSection(bytes_, SectionKind::kClosureNodeOffsets);
  const uint64_t last = index_.world(damaged).num_components();
  std::string bad = bytes_;
  const uint64_t huge = uint64_t{1} << 40;
  std::memcpy(bad.data() + offsets.offset + last * sizeof(uint64_t), &huge,
              sizeof(huge));
  ExpectClosureRejectedOnFirstUse(bytes_, bad, damaged, "packed closure run");
}

TEST_F(SnapshotTieredCorruptionTest, MalformedLabelIntervalIsRejected) {
  // An interval lower bound >= num_components breaks the label invariant.
  const SectionEntry bounds = FindSection(bytes_, SectionKind::kLabelBounds);
  std::string bad = bytes_;
  const uint32_t huge = 0x7FFFFFFFu;
  std::memcpy(bad.data() + bounds.offset, &huge, sizeof(huge));
  ExpectOpenFails(bad, "malformed label interval");
}

TEST_F(SnapshotTieredCorruptionTest, MalformedPackedTypicalRunIsRejected) {
  TypicalCascadeComputer computer(&index_);
  auto sweep = computer.ComputeAllFlat();
  ASSERT_TRUE(sweep.ok());
  const std::string with_typical =
      SnapshotBytes(graph_, index_, &sweep->cascades);
  const SectionEntry pool =
      FindSection(with_typical, SectionKind::kTypicalPacked);
  std::string bad = with_typical;
  for (uint64_t i = 0; i < 5 && i < pool.byte_size; ++i) {
    bad[pool.offset + i] = static_cast<char>(0xFF);
  }
  ExpectOpenFails(bad, "typical table");
}

// ---------------------------------------------------------------------------
// The v1.2 sketch sections (kinds 27-29): round trip, engine byte-equality
// between lazily built and snapshot-adopted sketches, and corruption.
// ---------------------------------------------------------------------------

std::string SnapshotBytesWithSketches(const ProbGraph& graph,
                                      const CascadeIndex& index,
                                      const SketchSpreadOracle& sketches,
                                      PropagationModel model =
                                          PropagationModel::kIndependentCascade) {
  SnapshotWriteOptions options;
  options.model = model;
  options.sketches = &sketches;
  auto bytes = SerializeSnapshot(graph, index, options);
  SOI_CHECK(bytes.ok());
  return std::move(bytes).value();
}

TEST(SnapshotSketchTest, SketchSectionsRoundTripExactly) {
  const ProbGraph graph = RandomGraph(60, 300, 31);
  const CascadeIndex index =
      BuildIndex(graph, PropagationModel::kIndependentCascade);
  auto built = SketchSpreadOracle::BuildDeterministic(index, 16, 1);
  ASSERT_TRUE(built.ok());
  const std::string path = TempPath("sketches.soisnap");
  WriteBytes(path, SnapshotBytesWithSketches(graph, index, *built));

  auto snap = Snapshot::Open(path, SnapshotValidation::kFull);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  EXPECT_TRUE((*snap)->info().has_sketches);
  EXPECT_EQ((*snap)->info().sketch_k, 16u);

  const SketchParts parts = (*snap)->MakeSketchParts();
  EXPECT_EQ(parts.k, built->sketch_k());
  EXPECT_EQ(parts.salt, built->salt());
  ASSERT_EQ(parts.offsets.size(), built->offsets_view().size());
  ASSERT_EQ(parts.entries.size(), built->entries_view().size());
  EXPECT_TRUE(std::equal(parts.entries.begin(), parts.entries.end(),
                         built->entries_view().begin()));

  auto borrowed_index = (*snap)->MakeIndex();
  ASSERT_TRUE(borrowed_index.ok());
  auto adopted = SketchSpreadOracle::FromParts(&*borrowed_index, parts);
  ASSERT_TRUE(adopted.ok()) << adopted.status().ToString();
  for (NodeId v = 0; v < graph.num_nodes(); v += 3) {
    EXPECT_DOUBLE_EQ(adopted->EstimateSpread(v), built->EstimateSpread(v));
  }
}

TEST(SnapshotSketchTest, SnapshotWithoutSketchesReportsNone) {
  const ProbGraph graph = RandomGraph(30, 150, 32);
  const CascadeIndex index =
      BuildIndex(graph, PropagationModel::kIndependentCascade);
  const std::string path = TempPath("no-sketches.soisnap");
  WriteBytes(path, SnapshotBytes(graph, index));
  auto snap = Snapshot::Open(path);
  ASSERT_TRUE(snap.ok());
  EXPECT_FALSE((*snap)->info().has_sketches);
  EXPECT_EQ((*snap)->info().sketch_k, 0u);
}

TEST(SnapshotSketchTest, AdoptedEngineMatchesOwnedEngineAcrossThreads) {
  // An engine that lazily builds sketches (sketch_k + seed) and one adopting
  // them from a snapshot written with the same seed must answer
  // accuracy:sketch requests byte-identically, for both models, at every
  // thread count.
  for (const PropagationModel model : {PropagationModel::kIndependentCascade,
                                       PropagationModel::kLinearThreshold}) {
    const ProbGraph graph = RandomGraph(90, 450, 7, model);
    service::EngineOptions options;
    options.index.num_worlds = 16;
    options.index.model = model;
    options.seed = 1;
    options.sketch_k = 16;
    auto owned = service::Engine::Create(graph, options);
    ASSERT_TRUE(owned.ok()) << owned.status().ToString();

    CascadeIndexOptions index_options = options.index;
    Rng rng(options.seed);
    auto index = CascadeIndex::Build(graph, index_options, &rng);
    ASSERT_TRUE(index.ok());
    auto sketches =
        SketchSpreadOracle::BuildDeterministic(*index, 16, options.seed);
    ASSERT_TRUE(sketches.ok());
    const std::string path = TempPath("sketch-engine.soisnap");
    WriteBytes(path, SnapshotBytesWithSketches(graph, *index, *sketches,
                                               model));

    auto snap = Snapshot::Open(path);
    ASSERT_TRUE(snap.ok()) << snap.status().ToString();
    service::EngineParts parts;
    parts.graph = (*snap)->MakeGraph();
    auto borrowed_index = (*snap)->MakeIndex();
    ASSERT_TRUE(borrowed_index.ok());
    parts.index = std::move(*borrowed_index);
    parts.sketches = (*snap)->MakeSketchParts();
    parts.storage = *snap;
    // sketch_k = 0 here: FromParts adopts the parts' k.
    service::EngineOptions mapped_options = options;
    mapped_options.sketch_k = 0;
    auto mapped = service::Engine::FromParts(std::move(parts), mapped_options);
    ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
    EXPECT_EQ(mapped->options().sketch_k, 16u);

    std::vector<service::Request> requests;
    service::Request spread;
    spread.payload = service::SpreadRequest{{3, 17}};
    spread.accuracy = service::Accuracy::kSketch;
    requests.push_back(spread);
    service::Request select;
    select.payload = service::SeedSelectRequest{4, "tc"};
    select.accuracy = service::Accuracy::kSketch;
    requests.push_back(select);
    service::Request exact_spread;
    exact_spread.payload = service::SpreadRequest{{3, 17}};
    requests.push_back(exact_spread);

    for (const uint32_t threads : {1u, 8u}) {
      SetGlobalThreads(threads);
      auto from_owned = owned->RunBatch(requests);
      auto from_mapped = mapped->RunBatch(requests);
      ASSERT_TRUE(from_owned.ok());
      ASSERT_TRUE(from_mapped.ok());
      for (size_t i = 0; i < requests.size(); ++i) {
        // v1 format compares the payload bytes; tier/est_error are compared
        // directly (elapsed_us legitimately differs between runs).
        EXPECT_EQ(service::FormatResponseLine(static_cast<int64_t>(i),
                                              (*from_owned)[i]),
                  service::FormatResponseLine(static_cast<int64_t>(i),
                                              (*from_mapped)[i]))
            << "request " << i << " threads " << threads;
        ASSERT_TRUE((*from_owned)[i].ok());
        ASSERT_TRUE((*from_mapped)[i].ok());
        EXPECT_STREQ((*from_owned)[i]->meta.tier, (*from_mapped)[i]->meta.tier);
        EXPECT_DOUBLE_EQ((*from_owned)[i]->meta.est_error,
                         (*from_mapped)[i]->meta.est_error);
      }
    }
    SetGlobalThreads(0);
  }
}

class SnapshotSketchCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = RandomGraph(40, 200, 33);
    index_ = BuildIndex(graph_, PropagationModel::kIndependentCascade);
    auto sketches = SketchSpreadOracle::BuildDeterministic(index_, 8, 1);
    SOI_CHECK(sketches.ok());
    bytes_ = SnapshotBytesWithSketches(graph_, index_, *sketches);
  }

  void ExpectOpenFails(const std::string& bytes, const std::string& needle) {
    const std::string path = TempPath("sketch-corrupt.soisnap");
    WriteBytes(path, bytes);
    auto snap = Snapshot::Open(path);
    ASSERT_FALSE(snap.ok()) << "expected failure mentioning: " << needle;
    EXPECT_EQ(snap.status().code(), StatusCode::kInvalidArgument)
        << snap.status().ToString();
    EXPECT_NE(snap.status().ToString().find(needle), std::string::npos)
        << "message was: " << snap.status().ToString();
  }

  // The world whose sketch table holds offsets-pool entry `entry`.
  uint32_t WorldOfOffset(uint64_t entry) const {
    uint64_t start = 0;
    for (uint32_t w = 0; w < index_.num_worlds(); ++w) {
      start += index_.world(w).num_components() + uint64_t{1};
      if (entry < start) return w;
    }
    SOI_CHECK(false);
    return 0;
  }

  // Damage inside world `damaged`'s sketch runs, which Open(kStructural)
  // leaves to the world's first use: Open(kFull) refuses the file naming
  // the sketch tier even with every checksum resealed; a structural open
  // serves it; the first sketch query
  // returns InvalidArgument naming the world, and a second query the same
  // error; every other world checks clean and answers exact queries as the
  // pristine file.
  void ExpectRejectedOnFirstUse(const std::string& bad, uint32_t damaged) {
    const std::string path = TempPath("sketch-first-use.soisnap");
    WriteBytes(path, Resealed(bad));
    const auto full = Snapshot::Open(path, SnapshotValidation::kFull);
    ASSERT_FALSE(full.ok()) << "kFull admitted damage to world " << damaged;
    ExpectNames(full.status(), "sketch", damaged);

    const auto snap = OpenBytes(bad, "sketch-structural.soisnap");
    auto index = snap->MakeIndex();
    ASSERT_TRUE(index.ok());
    auto oracle = SketchSpreadOracle::FromParts(&*index,
                                                snap->MakeSketchParts());
    ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
    const NodeId seed[1] = {0};
    const auto first = oracle->EstimateSpread(seed);
    ASSERT_FALSE(first.ok());
    ExpectNames(first.status(), "sketch", damaged);
    const auto second = oracle->SelectSeeds(2);
    ASSERT_FALSE(second.ok());
    EXPECT_EQ(second.status().ToString(), first.status().ToString());

    const auto clean = OpenBytes(bytes_, "sketch-pristine.soisnap");
    auto clean_index = clean->MakeIndex();
    ASSERT_TRUE(clean_index.ok());
    for (uint32_t w = 0; w < index->num_worlds(); ++w) {
      if (w == damaged) continue;
      EXPECT_TRUE(oracle->PrepareWorld(w).ok()) << "world " << w;
      EXPECT_EQ(WorldAnswers(*index, w), WorldAnswers(*clean_index, w))
          << "world " << w;
    }
  }

  ProbGraph graph_;
  CascadeIndex index_;
  std::string bytes_;
};

TEST_F(SnapshotSketchCorruptionTest, PristineSketchBytesPassFullValidation) {
  const std::string path = TempPath("sketch-pristine.soisnap");
  WriteBytes(path, bytes_);
  EXPECT_TRUE(Snapshot::Open(path, SnapshotValidation::kFull).ok());
}

TEST_F(SnapshotSketchCorruptionTest, UndersizedSketchKIsRejected) {
  const SectionEntry meta = FindSection(bytes_, SectionKind::kSketchMeta);
  std::string bad = bytes_;
  const uint64_t two = 2;
  std::memcpy(bad.data() + meta.offset, &two, sizeof(two));
  ExpectOpenFails(bad, "sketch");
}

TEST_F(SnapshotSketchCorruptionTest, NonMonotoneSketchOffsetsAreRejected) {
  const SectionEntry offsets =
      FindSection(bytes_, SectionKind::kSketchOffsets);
  SOI_CHECK(offsets.byte_size >= 2 * sizeof(uint64_t));
  std::string bad = bytes_;
  const uint64_t huge = ~uint64_t{0} / 2;
  std::memcpy(bad.data() + offsets.offset + sizeof(uint64_t), &huge,
              sizeof(huge));
  // Entry 1 is inside world 0's table (world 0 has several components);
  // its runs are checked on the world's first use.
  ASSERT_GT(index_.world(0).num_components(), 1u);
  ExpectRejectedOnFirstUse(bad, 0);
}

TEST_F(SnapshotSketchCorruptionTest, SketchExtentsAreCheckedAtOpen) {
  // A world's last table entry is the next world's first: moving it breaks
  // the tiling of the entries pool, which Open checks for every world.
  const SectionEntry offsets =
      FindSection(bytes_, SectionKind::kSketchOffsets);
  const uint64_t last = index_.world(0).num_components();
  std::string bad = bytes_;
  const uint64_t huge = ~uint64_t{0} / 2;
  std::memcpy(bad.data() + offsets.offset + last * sizeof(uint64_t), &huge,
              sizeof(huge));
  ExpectOpenFails(bad, "sketch offsets do not tile the entries pool");
}

TEST_F(SnapshotSketchCorruptionTest, UnsortedSketchEntriesAreRejected) {
  const SectionEntry offsets =
      FindSection(bytes_, SectionKind::kSketchOffsets);
  const SectionEntry entries =
      FindSection(bytes_, SectionKind::kSketchEntries);
  // Ranks are only ordered within a run, so find the first run holding at
  // least two entries and zero its second rank; the rank before it is a
  // salted hash and almost surely nonzero, breaking strict increase.
  const uint64_t count = offsets.byte_size / sizeof(uint64_t);
  const char* base = bytes_.data() + offsets.offset;
  uint64_t target = ~uint64_t{0};
  uint64_t run_end = 0;  // offsets entry closing the damaged run
  for (uint64_t i = 1; i < count; ++i) {
    uint64_t lo = 0;
    uint64_t hi = 0;
    std::memcpy(&lo, base + (i - 1) * sizeof(uint64_t), sizeof(lo));
    std::memcpy(&hi, base + i * sizeof(uint64_t), sizeof(hi));
    if (hi - lo >= 2) {
      target = lo + 1;
      run_end = i;
      break;
    }
  }
  ASSERT_NE(target, ~uint64_t{0}) << "no sketch run with >= 2 entries";
  std::string bad = bytes_;
  const uint64_t zero = 0;
  std::memcpy(bad.data() + entries.offset + target * sizeof(uint64_t), &zero,
              sizeof(zero));
  ExpectRejectedOnFirstUse(bad, WorldOfOffset(run_end));
}

uint64_t WorldsDecoded() {
  const obs::Counter* c =
      obs::Registry::Get().FindCounter("snapshot/worlds_decoded");
  return c == nullptr ? 0 : c->Get();
}

TEST(SnapshotFirstUseTest, ConcurrentFirstTouchDecodesEachWorldOnce) {
  // Eight threads start together on the same cold, packed worlds: through
  // single cascades, multi-seed sizes, AllCascades and the sketch tier.
  // Every thread gets the owned index's answers, and each world is decoded
  // exactly once (this suite runs under TSan in CI).
  const ProbGraph graph = RandomGraph(80, 400, 61);
  const CascadeIndex owned =
      BuildIndex(graph, PropagationModel::kIndependentCascade);
  ASSERT_TRUE(owned.has_closure_cache());
  auto built = SketchSpreadOracle::BuildDeterministic(owned, 8, 1);
  ASSERT_TRUE(built.ok());
  const auto snap = OpenBytes(SnapshotBytesWithSketches(graph, owned, *built),
                              "first-touch.soisnap");
  auto cold = snap->MakeIndex();
  ASSERT_TRUE(cold.ok());
  auto sketches =
      SketchSpreadOracle::FromParts(&*cold, snap->MakeSketchParts());
  ASSERT_TRUE(sketches.ok());

  obs::SetEnabled(true);
  const uint64_t decoded_before = WorldsDecoded();
  constexpr int kThreads = 8;
  std::atomic<int> waiting{kThreads};
  std::vector<std::string> answers(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      waiting.fetch_sub(1);
      while (waiting.load() > 0) std::this_thread::yield();
      std::string& out = answers[t];
      CascadeIndex::Workspace ws;
      const NodeId pair[2] = {3, 17};
      auto all = cold->AllCascades(pair, &ws);
      out += all.ok() ? std::to_string(all->size()) : all.status().ToString();
      for (uint32_t w = 0; w < cold->num_worlds(); ++w) {
        out += WorldAnswers(*cold, w);
      }
      const auto spread = sketches->EstimateSpread(pair);
      out += spread.ok() ? std::to_string(*spread)
                         : spread.status().ToString();
    });
  }
  for (std::thread& thread : threads) thread.join();

  std::string expected =
      std::to_string(owned.num_worlds());
  for (uint32_t w = 0; w < owned.num_worlds(); ++w) {
    expected += WorldAnswers(owned, w);
  }
  const NodeId pair[2] = {3, 17};
  expected += std::to_string(*built->EstimateSpread(pair));
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(answers[t], expected) << "thread " << t;
  }
  EXPECT_EQ(WorldsDecoded() - decoded_before, cold->num_worlds());
  // Published once: later touches decode nothing.
  ASSERT_TRUE(cold->PrepareAllWorlds().ok());
  EXPECT_EQ(WorldsDecoded() - decoded_before, cold->num_worlds());
}

uint64_t Fnv1a(const std::string& bytes) {
  uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

// The writer packs closures and checksums sections on the thread budget,
// and the sketch tier builds its worlds there; no byte may depend on it.
// IC and LT indexes hold materialized, labels and traversal worlds, with a
// typical table and a sketch tier built at the same budget. SerializeSnapshot
// must give the same bytes at budgets 1, 2 and 8 — the bytes the writer gave
// before it went parallel, pinned by digest — in both closure encodings, and
// WriteSnapshot must put exactly those bytes in the file.
TEST(SnapshotWriterTest, BytesIdenticalAcrossThreadBudgets) {
  struct Case {
    PropagationModel model;
    bool pack;
    uint64_t digest;
  };
  const Case cases[] = {
      {PropagationModel::kIndependentCascade, true, 0xa052b869e4eeb78bull},
      {PropagationModel::kIndependentCascade, false, 0x7fc433884190227aull},
      {PropagationModel::kLinearThreshold, true, 0x9834ec5ec2128478ull},
      {PropagationModel::kLinearThreshold, false, 0xc58effff5b33408cull},
  };
  for (const Case& c : cases) {
    SetGlobalThreads(1);
    const ProbGraph graph = RandomGraph(120, 600, 61, c.model);
    CascadeIndex index = BuildIndex(graph, c.model, /*worlds=*/16, /*seed=*/5);
    index.RebuildClosureTiersBytes(MixedTierBudget(&index),
                                   ClosureTierPolicy::kAuto);
    ASSERT_EQ(index.stats().worlds_materialized, 1u);
    ASSERT_EQ(index.stats().worlds_labeled, 1u);
    ASSERT_EQ(index.stats().worlds_traversal, index.num_worlds() - 2);
    TypicalCascadeComputer computer(&index);
    const auto sweep = computer.ComputeAllFlat();
    ASSERT_TRUE(sweep.ok());
    std::string expected;
    for (const uint32_t threads : {1u, 2u, 8u}) {
      SetGlobalThreads(threads);
      const auto sketches = SketchSpreadOracle::BuildDeterministic(index, 8, 3);
      ASSERT_TRUE(sketches.ok());
      SnapshotWriteOptions options;
      options.model = c.model;
      options.pack = c.pack;
      options.typical = &sweep->cascades;
      options.sketches = &*sketches;
      const auto bytes = SerializeSnapshot(graph, index, options);
      ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
      if (threads == 1) {
        expected = *bytes;
        EXPECT_EQ(Fnv1a(expected), c.digest)
            << "model " << static_cast<int>(c.model) << " pack " << c.pack;
      } else {
        EXPECT_TRUE(*bytes == expected) << "threads " << threads;
      }
      const std::string path = TempPath("threads.soisnap");
      ASSERT_TRUE(WriteSnapshot(graph, index, path, options).ok());
      std::ifstream in(path, std::ios::binary);
      const std::string file((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
      EXPECT_TRUE(file == expected) << "threads " << threads;
    }
  }
  SetGlobalThreads(0);
}

// A sketch tier built over a snapshot sizes each closure world from the
// file's closure offsets, before the world's runs are checked. Offsets
// that pass the structural checks but disagree with the condensation fail
// the build with InvalidArgument naming the world; no run is written past
// its slice.
TEST(SnapshotWriterTest, SketchBuildRefusesReachCountsThatDisagree) {
  const ProbGraph graph = RandomGraph(80, 400, 71);
  const CascadeIndex index =
      BuildIndex(graph, PropagationModel::kIndependentCascade);
  ASSERT_TRUE(index.has_closure_cache());
  std::string bytes = SnapshotBytes(graph, index);
  // Move the first element of world 0's run c to run c - 1, for a c - 1
  // whose grown count stays within k = 64, so its sketch cannot fill the
  // slice sized for it. Offsets stay non-decreasing and keep their total.
  const ReachabilityClosure& cl = index.closure(0);
  uint32_t c = 1;
  while (c < cl.num_components() && cl.NodeCount(c - 1) >= 63) ++c;
  ASSERT_LT(c, cl.num_components());
  const SectionEntry offsets = FindSection(bytes, SectionKind::kClosureNodeOffsets);
  uint64_t value = 0;
  const size_t at = offsets.offset + sizeof(uint64_t) * c;
  std::memcpy(&value, bytes.data() + at, sizeof(value));
  ++value;
  std::memcpy(bytes.data() + at, &value, sizeof(value));
  const auto snap = OpenBytes(Resealed(bytes), "skewed-counts.soisnap");
  const auto borrowed = snap->MakeIndex();
  ASSERT_TRUE(borrowed.ok()) << borrowed.status().ToString();
  const auto sketches =
      SketchSpreadOracle::BuildDeterministic(*borrowed, /*k=*/64, 1);
  ASSERT_FALSE(sketches.ok());
  EXPECT_EQ(sketches.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(sketches.status().ToString().find("world 0"), std::string::npos)
      << sketches.status().ToString();
}

TEST(SnapshotWriterTest, SketchesOverDifferentIndexAreRejected) {
  const ProbGraph graph = RandomGraph(30, 150, 34);
  const CascadeIndex index =
      BuildIndex(graph, PropagationModel::kIndependentCascade, /*worlds=*/16);
  const CascadeIndex other =
      BuildIndex(graph, PropagationModel::kIndependentCascade, /*worlds=*/8);
  auto sketches = SketchSpreadOracle::BuildDeterministic(other, 8, 1);
  ASSERT_TRUE(sketches.ok());
  SnapshotWriteOptions options;
  options.sketches = &*sketches;
  EXPECT_FALSE(SerializeSnapshot(graph, index, options).ok());
}

TEST(SnapshotWriterTest, RejectsMismatchedInputsWithStatus) {
  const ProbGraph graph = RandomGraph(30, 150, 17);
  const ProbGraph other = RandomGraph(31, 150, 17);
  const CascadeIndex index =
      BuildIndex(graph, PropagationModel::kIndependentCascade);
  // Index covers a different node count than the graph.
  EXPECT_FALSE(SerializeSnapshot(other, index, {}).ok());
  // Typical table with the wrong number of sets.
  FlatSets wrong;
  const std::vector<uint32_t> one_set = {0};
  wrong.AddSet(one_set);
  SnapshotWriteOptions options;
  options.typical = &wrong;
  EXPECT_FALSE(SerializeSnapshot(graph, index, options).ok());
}

}  // namespace
}  // namespace soi
