// Robustness "fuzz" sweeps: the parsers must reject (never crash on)
// arbitrary malformed input — random bytes, random printable text, and
// systematically mutated valid payloads: snapshots, edge lists, and the
// request lines of the golden serve fixtures (SOI_GOLDEN_DIR, a compile
// definition from tests/CMakeLists.txt).

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
#include "service/engine.h"
#include "service/protocol.h"
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

// The request lines of both golden serve fixtures.
std::vector<std::string> GoldenRequestLines() {
  std::vector<std::string> lines;
  for (const char* name : {"serve.requests.jsonl", "serve_v2.requests.jsonl"}) {
    std::ifstream in(std::string(SOI_GOLDEN_DIR) + "/" + name);
    for (std::string line; std::getline(in, line);) {
      if (!line.empty()) lines.push_back(line);
    }
  }
  return lines;
}

// One structure-aware edit of a request line; `lines` supplies splices.
void MutateRequestLine(const std::vector<std::string>& lines, Rng* rng,
                       std::string* line) {
  const auto at = [&] { return rng->NextBounded(line->size() + 1); };
  switch (rng->NextBounded(6)) {
    case 0:  // flip one byte
      if (!line->empty()) {
        const size_t pos = rng->NextBounded(line->size());
        (*line)[pos] = static_cast<char>((*line)[pos] ^
                                         (1 + rng->NextBounded(255)));
      }
      break;
    case 1: {  // splice: this line's head, another line's tail
      const std::string& other = lines[rng->NextBounded(lines.size())];
      *line = line->substr(0, at()) +
              other.substr(rng->NextBounded(other.size() + 1));
      break;
    }
    case 2:  // a run of '[' or '{' up to 100,000 long
      line->insert(at(), 1 + rng->NextBounded(100000),
                   rng->NextBounded(2) == 0 ? '[' : '{');
      break;
    case 3: {  // up to 400 digits, maybe a fraction, maybe an exponent
      std::string number(1 + rng->NextBounded(400), '0');
      for (char& c : number) c = static_cast<char>('0' + rng->NextBounded(10));
      if (rng->NextBounded(2) == 0) {
        number.insert(rng->NextBounded(number.size() + 1), ".");
      }
      if (rng->NextBounded(2) == 0) {
        number += rng->NextBounded(2) == 0 ? "e-" : "e";
        number += std::to_string(rng->NextBounded(1000));
      }
      line->insert(at(), number);
      break;
    }
    case 4: {  // a backslash escape just inside a key or string value
      static constexpr const char* kEscapes[] = {
          R"(\")", R"(\\)", R"(\/)", R"(\b)", R"(\n)", R"(\u0069)",
          R"(\u00e9)", R"(\u20ac)", R"(\u12)", R"(\q)", R"(\)"};
      const size_t quote = line->find('"', at());
      if (quote != std::string::npos) {
        line->insert(quote + 1, kEscapes[rng->NextBounded(11)]);
      }
      break;
    }
    default: {  // repeat one "key":value member before the closing brace
      const size_t key = line->find('"', at());
      const size_t end = line->find_first_of(",}", key);
      const size_t close = line->rfind('}');
      if (key != std::string::npos && end != std::string::npos &&
          close != std::string::npos && close > end) {
        line->insert(close, "," + line->substr(key, end - key));
      }
    }
  }
}

// The wire answer of a frozen-clock engine to a parsed request.
std::string Answer(service::Engine* engine,
                   const service::ProtocolRequest& request) {
  return service::FormatResponseLine(request.id, request.version,
                                     engine->Run(request.request));
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

// Mutants of the golden request lines through the request parser: the
// same outcome in a dirty reused slot as in a fresh one, every accepted
// request answered by the engine, and salvage returning on every line.
// Nesting runs longer than any stack can follow are among the mutants.
TEST_P(FuzzSweep, RequestParserNeverCrashesOnMutatedLines) {
  const std::vector<std::string> golden = GoldenRequestLines();
  ASSERT_EQ(golden.size(), 21u);
  Rng gen_rng(6000 + GetParam());
  auto topo = GenerateErdosRenyi(24, 72, false, &gen_rng);
  ASSERT_TRUE(topo.ok());
  auto graph = AssignUniform(*topo, &gen_rng, 0.1, 0.5);
  ASSERT_TRUE(graph.ok());
  service::EngineOptions options;
  options.index.num_worlds = 8;
  options.sketch_k = 8;
  options.clock_ns = [] { return uint64_t{0}; };
  auto engine = service::Engine::Create(std::move(graph).value(), options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  Rng rng(7000 + GetParam());
  service::ProtocolRequest reused;
  int accepted = 0;
  for (int trial = 0; trial < 600; ++trial) {
    std::string line = golden[rng.NextBounded(golden.size())];
    for (uint64_t edits = 1 + rng.NextBounded(3); edits > 0; --edits) {
      MutateRequestLine(golden, &rng, &line);
    }
    const std::string excerpt = line.substr(0, 200);
    service::ProtocolRequest fresh;
    const Status into = service::ParseRequestLineInto(line, &reused);
    const Status from_fresh = service::ParseRequestLineInto(line, &fresh);
    ASSERT_EQ(into.ToString(), from_fresh.ToString()) << excerpt;
    const int version = service::SalvageVersion(line);
    EXPECT_TRUE(version == 1 || version == 2) << excerpt;
    service::SalvageId(line);
    if (!into.ok()) continue;
    ++accepted;
    EXPECT_EQ(reused.request.timeout_ms, fresh.request.timeout_ms) << excerpt;
    EXPECT_EQ(reused.request.max_error, fresh.request.max_error) << excerpt;
    EXPECT_EQ(Answer(&*engine, reused), Answer(&*engine, fresh)) << excerpt;
    const auto* ops = std::get_if<service::UpdateRequest>(&reused.request.payload);
    if (ops != nullptr) {
      const auto& want =
          std::get<service::UpdateRequest>(fresh.request.payload).ops;
      ASSERT_EQ(ops->ops.size(), want.size()) << excerpt;
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(ops->ops[i].kind, want[i].kind) << excerpt;
        EXPECT_EQ(ops->ops[i].src, want[i].src) << excerpt;
        EXPECT_EQ(ops->ops[i].dst, want[i].dst) << excerpt;
        EXPECT_EQ(ops->ops[i].prob, want[i].prob) << excerpt;
      }
    }
  }
  EXPECT_GT(accepted, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSweep, ::testing::Range(0, 6));

}  // namespace
}  // namespace soi
