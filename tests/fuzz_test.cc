// Robustness "fuzz" sweeps: the parsers must reject (never crash on)
// arbitrary malformed input — random bytes, random printable text, and
// systematically mutated valid payloads.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/typical_cascade.h"
#include "gen/generators.h"
#include "graph/graph_io.h"
#include "graph/prob_assign.h"
#include "index/cascade_index.h"
#include "infmax/sketch_oracle.h"
#include "snapshot/format.h"
#include "snapshot/reader.h"
#include "snapshot/writer.h"
#include "util/rng.h"

namespace soi {
namespace {

std::string RandomBytes(size_t size, Rng* rng) {
  std::string out(size, '\0');
  for (char& c : out) c = static_cast<char>(rng->NextBounded(256));
  return out;
}

std::string RandomPrintable(size_t size, Rng* rng) {
  static constexpr char kAlphabet[] = "0123456789 .-#ab\n\t";
  std::string out(size, '\0');
  for (char& c : out) {
    c = kAlphabet[rng->NextBounded(sizeof(kAlphabet) - 1)];
  }
  return out;
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << "cannot write " << path;
}

// Answers a fixed probe set from an open snapshot, touching every section:
// the graph's arcs, each node's cascade and cascade size in every world
// (lines "world <w> node <v>:"), the typical table and the sketch tier
// (lines "sketch <v>:"). Errors are transcribed too.
std::string ProbeSnapshot(const Snapshot& snap) {
  std::ostringstream out;
  out << std::setprecision(17);
  const ProbGraph graph = snap.MakeGraph();
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    out << graph.EdgeSource(e) << '>' << graph.EdgeTarget(e) << ':'
        << graph.EdgeProb(e) << ' ';
  }
  auto index = snap.MakeIndex();
  if (!index.ok()) return out.str() + index.status().ToString();
  CascadeIndex::Workspace ws;
  for (uint32_t w = 0; w < index->num_worlds(); ++w) {
    for (NodeId v = 0; v < index->num_nodes(); ++v) {
      out << "\nworld " << w << " node " << v << ':';
      auto size = index->CascadeSize(v, w, &ws);
      out << (size.ok() ? std::to_string(*size) : size.status().ToString());
      auto cascade = index->Cascade(v, w, &ws);
      if (!cascade.ok()) out << cascade.status().ToString();
      for (const NodeId u : cascade.ok() ? *cascade : std::vector<NodeId>{}) {
        out << ' ' << u;
      }
    }
  }
  if (snap.info().has_typical) {
    const FlatSets typical = FlatSets::Unpack(snap.MakeTypical());
    for (size_t i = 0; i < typical.num_sets(); ++i) {
      out << "\ntypical " << i << ':';
      for (const uint32_t u : typical.Set(i)) out << ' ' << u;
    }
  }
  if (snap.info().has_sketches) {
    auto sketches = SketchSpreadOracle::FromParts(&*index,
                                                  snap.MakeSketchParts());
    if (!sketches.ok()) return out.str() + sketches.status().ToString();
    for (NodeId v = 0; v < index->num_nodes(); ++v) {
      const NodeId seed[1] = {v};
      const auto spread = sketches->EstimateSpread(seed);
      out << "\nsketch " << v << ':';
      if (spread.ok()) {
        out << *spread;
      } else {
        out << spread.status().ToString();
      }
    }
  }
  return out.str();
}

// Where a byte of a snapshot lies when it is inside one world's packed
// closure runs or sketch runs: the state checked on that world's first use.
struct WorldDamage {
  uint32_t world = 0;
  bool sketch = false;  // sketch runs (kinds 28/29), else closure runs
};

template <typename T>
T ReadAt(const std::string& bytes, uint64_t offset) {
  T value{};
  std::memcpy(&value, bytes.data() + offset, sizeof(T));
  return value;
}

std::optional<WorldDamage> DamagedWorld(const std::string& bytes,
                                        uint64_t pos) {
  const auto header = ReadAt<SnapshotHeader>(bytes, 0);
  std::optional<SectionEntry> sections[32];
  for (uint32_t i = 0; i < header.section_count; ++i) {
    const auto e = ReadAt<SectionEntry>(
        bytes, sizeof(SnapshotHeader) + i * sizeof(SectionEntry));
    if (e.kind < 32) sections[e.kind] = e;
  }
  const auto section = [&](SectionKind kind) -> std::optional<SectionEntry> {
    return sections[static_cast<uint32_t>(kind)];
  };
  const auto inside = [&](const std::optional<SectionEntry>& e) {
    return e.has_value() && pos >= e->offset && pos < e->offset + e->byte_size;
  };
  const auto world_table = section(SectionKind::kWorldTable);
  const auto record = [&](uint32_t w) {
    return ReadAt<WorldRecord>(bytes,
                               world_table->offset + w * sizeof(WorldRecord));
  };
  const uint32_t worlds = header.num_worlds;
  // The world whose [begin(w), begin(w + 1)) holds element `at`.
  const auto owner = [&](uint64_t at, auto begin) -> std::optional<uint32_t> {
    for (uint32_t w = 0; w < worlds; ++w) {
      if (at >= begin(w) && at < begin(w + 1)) return w;
    }
    return std::nullopt;
  };
  std::optional<uint32_t> world;
  bool sketch = false;
  if (const auto e = section(SectionKind::kClosureCompsPacked); inside(e)) {
    world = owner(pos - e->offset,
                  [&](uint32_t w) { return record(w).closure_comps_base; });
  } else if (const auto e = section(SectionKind::kClosureNodesPacked);
             inside(e)) {
    world = owner(pos - e->offset,
                  [&](uint32_t w) { return record(w).closure_nodes_base; });
  } else if (const auto e = section(SectionKind::kSketchOffsets); inside(e)) {
    sketch = true;
    world = owner((pos - e->offset) / sizeof(uint64_t),
                  [&](uint32_t w) { return record(w).offsets_base; });
  } else if (const auto e = section(SectionKind::kSketchEntries); inside(e)) {
    sketch = true;
    const auto offsets = section(SectionKind::kSketchOffsets);
    // World w's runs start at its table's first entry.
    world = owner((pos - e->offset) / sizeof(uint64_t), [&](uint32_t w) {
      return ReadAt<uint64_t>(
          bytes, offsets->offset + record(w).offsets_base * sizeof(uint64_t));
    });
  }
  if (!world.has_value()) return std::nullopt;
  return WorldDamage{*world, sketch};
}

// The probe lines that do not read the damaged state: all but the damaged
// world's lines for closure damage, all but the sketch lines (each one
// averages every world) for sketch damage.
std::string LinesOutside(const std::string& probe, const WorldDamage& damage) {
  const std::string skip = damage.sketch
                               ? "sketch "
                               : "world " + std::to_string(damage.world) +
                                     " node ";
  std::istringstream in(probe);
  std::string out;
  for (std::string line; std::getline(in, line);) {
    if (line.rfind(skip, 0) != 0) out += line + '\n';
  }
  return out;
}

class FuzzSweep : public ::testing::TestWithParam<int> {};

// The index deserializer is Snapshot::Open (+ MakeIndex): the one on-disk
// index format is soi-snap.
TEST_P(FuzzSweep, IndexDeserializerNeverCrashesOnGarbage) {
  Rng rng(1000 + GetParam());
  const std::string path = testing::TempDir() + "fuzz_garbage_" +
                           std::to_string(GetParam()) + ".soisnap";
  for (const size_t size : {0u, 3u, 17u, 100u, 4096u}) {
    WriteBytes(path, RandomBytes(size, &rng));
    EXPECT_FALSE(Snapshot::Open(path).ok());  // garbage must never open
  }
  std::remove(path.c_str());
}

TEST_P(FuzzSweep, IndexDeserializerRejectsMutatedValidPayload) {
  Rng gen_rng(2000 + GetParam());
  auto topo = GenerateErdosRenyi(20, 50, false, &gen_rng);
  ASSERT_TRUE(topo.ok());
  Rng assign_rng(2001 + GetParam());
  const auto g = AssignUniform(*topo, &assign_rng, 0.2, 0.5);
  ASSERT_TRUE(g.ok());
  CascadeIndexOptions options;
  options.num_worlds = 4;
  Rng rng(2002 + GetParam());
  const auto index = CascadeIndex::Build(*g, options, &rng);
  ASSERT_TRUE(index.ok());
  TypicalCascadeComputer computer(&*index);
  const auto sweep = computer.ComputeAllFlat();
  ASSERT_TRUE(sweep.ok());
  const auto sketches = SketchSpreadOracle::BuildDeterministic(*index, 8, 1);
  ASSERT_TRUE(sketches.ok());
  SnapshotWriteOptions write_options;
  write_options.typical = &sweep->cascades;
  write_options.sketches = &*sketches;
  const auto bytes = SerializeSnapshot(*g, *index, write_options);
  ASSERT_TRUE(bytes.ok());

  const std::string path = testing::TempDir() + "fuzz_flip_" +
                           std::to_string(GetParam()) + ".soisnap";
  WriteBytes(path, *bytes);
  std::string pristine;
  {
    auto snap = Snapshot::Open(path, SnapshotValidation::kFull);
    ASSERT_TRUE(snap.ok()) << snap.status().ToString();
    pristine = ProbeSnapshot(**snap);
  }
  // Flip one random byte anywhere. Full validation rejects every flip of
  // the header, section table or a section payload; a flip in the 64-byte
  // alignment padding between sections carries no CRC and must leave every
  // answer as the pristine file gives it. Whatever structural validation
  // accepts must answer every probe without crashing or reading out of
  // bounds; a flip inside one world's packed closure runs or sketch runs is
  // checked on that world's first use, so every probe that reads none of
  // the damaged state must answer as the pristine file does. Each mapping
  // is released before the file is rewritten.
  Rng mutate_rng(3000 + GetParam());
  for (int trial = 0; trial < 400; ++trial) {
    std::string mutated = *bytes;
    const size_t pos = mutate_rng.NextBounded(mutated.size());
    mutated[pos] = static_cast<char>(mutated[pos] ^
                                     (1 + mutate_rng.NextBounded(255)));
    WriteBytes(path, mutated);
    if (auto full = Snapshot::Open(path, SnapshotValidation::kFull);
        full.ok()) {
      EXPECT_EQ(ProbeSnapshot(**full), pristine)
          << "flip at byte " << pos << " passed the CRCs but changed answers";
    }
    if (auto structural = Snapshot::Open(path); structural.ok()) {
      const std::string probe = ProbeSnapshot(**structural);
      if (const auto damage = DamagedWorld(*bytes, pos)) {
        EXPECT_EQ(LinesOutside(probe, *damage),
                  LinesOutside(pristine, *damage))
            << "flip at byte " << pos << " inside world " << damage->world
            << (damage->sketch ? "'s sketch runs" : "'s closure runs")
            << " changed another world's answers";
      }
    }
  }
  std::remove(path.c_str());
}

TEST_P(FuzzSweep, EdgeListParserNeverCrashesOnRandomText) {
  Rng rng(4000 + GetParam());
  for (const size_t size : {1u, 40u, 500u}) {
    // Either parses (valid rows by chance) or errors; both fine, no crash.
    const auto result = ParseEdgeList(RandomPrintable(size, &rng));
    if (result.ok()) {
      EXPECT_LE(result->num_edges(), size);
    }
  }
}

TEST_P(FuzzSweep, EdgeListParserHandlesHostileNumbers) {
  const char* hostile[] = {
      "0 1 1e308\n",
      "0 1 -1e308\n",
      "4294967295 4294967296 0.5\n",  // dst overflows NodeId
      "0 1 nan\n",
      "0 1 inf\n",
      "99999999999999999999 1 0.5\n",
      "0 0 0.5\n",  // self loop
  };
  for (const char* text : hostile) {
    const auto result = ParseEdgeList(text);
    EXPECT_FALSE(result.ok()) << "accepted: " << text;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSweep, ::testing::Range(0, 6));

}  // namespace
}  // namespace soi
