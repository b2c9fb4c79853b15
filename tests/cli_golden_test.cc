// Golden-file integration tests for soi_cli: byte-compares the stdout and
// artifacts of `index`, `typical`, and `infmax --method tc` at a fixed seed
// against checked-in goldens (tests/golden/), and asserts the determinism
// contract the runtime promises — identical output at --threads 1 and
// --threads 8, with metrics enabled and disabled. The `index` artifact is a
// soi-snap-v1 snapshot, which `sphere --index` answers from.
//
// The binary under test and the fixture directory come in as compile
// definitions (SOI_CLI_PATH, SOI_GOLDEN_DIR) from tests/CMakeLists.txt.
//
// Regenerating goldens after an intended algorithmic change: run these
// lines in bash from tests/golden/, with soi_cli on the PATH.
//   F='--graph graph.txt --worlds 64 --seed 1 --threads 1'
//   M='--method tc --k 8 --eval-worlds 100'
//   T='s/[0-9]*\.[0-9][0-9]s build/<TIME>s build/'
//   E='s/"elapsed_us":[0-9]+/"elapsed_us":0/'
//   soi_cli gen --config Twitter-S --scale 0.08 --seed 5 --out graph.txt
//   soi_cli index $F --out index.soisnap.golden > index.raw
//   sed "$T" index.raw > index.stdout.golden && rm index.raw
//   soi_cli typical $F > typical.stdout.golden
//   soi_cli infmax $F $M > infmax_tc.stdout.golden
//   soi_cli serve $F --stdin < serve.requests.jsonl > serve.stdout.golden
//   soi_cli serve $F --sketch-k 16 --stdin < serve_v2.requests.jsonl > v2.raw
//   sed -E "$E" v2.raw > serve_v2.stdout.golden && rm v2.raw

#include <cstdio>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

namespace soi {
namespace {

std::string GoldenPath(const std::string& name) {
  return std::string(SOI_GOLDEN_DIR) + "/" + name;
}

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

struct CliRun {
  int exit_code = -1;
  std::string stdout_text;
};

// Runs soi_cli with `args`, capturing stdout (stderr is dropped: it carries
// only the "metrics: ..." notices and warnings, which are not part of the
// golden contract).
CliRun RunCli(const std::string& args) {
  const std::string command =
      std::string("'") + SOI_CLI_PATH + "' " + args + " 2>/dev/null";
  CliRun run;
  std::FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return run;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0) {
    run.stdout_text.append(buf, n);
  }
  const int status = pclose(pipe);
  run.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return run;
}

// The one nondeterministic token in `index` stdout is the build wall time.
std::string NormalizeIndexStdout(const std::string& text) {
  static const std::regex kBuildTime(R"([0-9]+\.[0-9][0-9]s build)");
  return std::regex_replace(text, kBuildTime, "<TIME>s build");
}

// Shared flags pinning the golden configuration (seed, worlds, graph).
std::string GraphFlags() {
  return "--graph '" + GoldenPath("graph.txt") + "' --worlds 64 --seed 1";
}

TEST(CliGoldenTest, IndexStdoutMatchesGolden) {
  const std::string out = testing::TempDir() + "cli_golden_index.soisnap";
  const CliRun run =
      RunCli("index " + GraphFlags() + " --threads 1 --out '" + out + "'");
  ASSERT_EQ(run.exit_code, 0) << run.stdout_text;
  // The golden stores the tempdir-independent part: everything after the
  // "wrote <path>:" prefix, with the build time normalized.
  const std::string golden = ReadFileOrDie(GoldenPath("index.stdout.golden"));
  const std::string normalized = NormalizeIndexStdout(run.stdout_text);
  const size_t got_sep = normalized.find(": ");
  const size_t want_sep = golden.find(": ");
  ASSERT_NE(got_sep, std::string::npos);
  ASSERT_NE(want_sep, std::string::npos);
  EXPECT_EQ(normalized.substr(got_sep), golden.substr(want_sep));
  std::remove(out.c_str());
}

TEST(CliGoldenTest, IndexArtifactMatchesGoldenAtOneAndEightThreads) {
  const std::string golden =
      ReadFileOrDie(GoldenPath("index.soisnap.golden"));
  for (const char* threads : {"1", "8"}) {
    const std::string out = testing::TempDir() + "cli_golden_index_t" +
                            threads + ".soisnap";
    const CliRun run = RunCli("index " + GraphFlags() + " --threads " +
                              threads + " --out '" + out + "'");
    ASSERT_EQ(run.exit_code, 0) << run.stdout_text;
    EXPECT_EQ(ReadFileOrDie(out), golden)
        << "index artifact diverged from golden at --threads " << threads;
    std::remove(out.c_str());
  }
}

TEST(CliGoldenTest, IndexArtifactIdenticalWithMetricsDisabled) {
  const std::string golden =
      ReadFileOrDie(GoldenPath("index.soisnap.golden"));
  const std::string out = testing::TempDir() + "cli_golden_index_nm.soisnap";
  const CliRun run = RunCli("index " + GraphFlags() +
                            " --threads 1 --no-metrics --out '" + out + "'");
  ASSERT_EQ(run.exit_code, 0) << run.stdout_text;
  EXPECT_EQ(ReadFileOrDie(out), golden)
      << "--no-metrics changed the index artifact";
  std::remove(out.c_str());
}

TEST(CliGoldenTest, SphereFromIndexSnapshotMatchesInProcessSphere) {
  const std::string out = testing::TempDir() + "cli_golden_sphere.soisnap";
  ASSERT_EQ(RunCli("index " + GraphFlags() + " --threads 1 --out '" + out +
                   "'").exit_code,
            0);
  for (const char* node : {"0", "7", "42", "127"}) {
    const CliRun built =
        RunCli("sphere " + GraphFlags() + " --threads 1 --node " + node);
    const CliRun loaded = RunCli("sphere " + GraphFlags() + " --index '" +
                                 out + "' --node " + node);
    ASSERT_EQ(built.exit_code, 0);
    ASSERT_EQ(loaded.exit_code, 0);
    EXPECT_EQ(loaded.stdout_text, built.stdout_text) << "node " << node;
  }

  // The same graph with one probability changed: the snapshot no longer
  // matches it, so the freshness check refuses to answer.
  std::string edited = ReadFileOrDie(GoldenPath("graph.txt"));
  const std::string edge = "126 121 0.177724348";
  const size_t at = edited.rfind(edge);
  ASSERT_NE(at, std::string::npos);
  edited.replace(at, edge.size(), "126 121 0.5");
  const std::string other = testing::TempDir() + "cli_golden_sphere.txt";
  std::ofstream(other, std::ios::binary) << edited;
  const CliRun stale = RunCli("sphere --graph '" + other + "' --index '" +
                              out + "' --node 0");
  EXPECT_EQ(stale.exit_code, 1);
  EXPECT_EQ(stale.stdout_text, "");
  std::remove(out.c_str());
  std::remove(other.c_str());
}

TEST(CliGoldenTest, TypicalStdoutMatchesGoldenAcrossThreadsAndMetrics) {
  const std::string golden =
      ReadFileOrDie(GoldenPath("typical.stdout.golden"));
  for (const char* extra : {"--threads 1", "--threads 8",
                            "--threads 1 --no-metrics"}) {
    const CliRun run = RunCli("typical " + GraphFlags() + " " + extra);
    ASSERT_EQ(run.exit_code, 0);
    EXPECT_EQ(run.stdout_text, golden) << "typical diverged with " << extra;
  }
}

TEST(CliGoldenTest, InfMaxTcStdoutMatchesGoldenAcrossThreads) {
  const std::string golden =
      ReadFileOrDie(GoldenPath("infmax_tc.stdout.golden"));
  for (const char* threads : {"1", "8"}) {
    const CliRun run =
        RunCli("infmax " + GraphFlags() +
               " --method tc --k 8 --eval-worlds 100 --threads " + threads);
    ASSERT_EQ(run.exit_code, 0);
    EXPECT_EQ(run.stdout_text, golden)
        << "infmax tc diverged at --threads " << threads;
  }
}

TEST(CliGoldenTest, ClosureBudgetZeroReproducesGoldens) {
  // The closure cache is a pure memoization; --closure-budget-mb 0 forces
  // every query onto the traversal path, which must reproduce the (cached)
  // goldens byte-for-byte.
  const std::string typical_golden =
      ReadFileOrDie(GoldenPath("typical.stdout.golden"));
  const CliRun typical = RunCli("typical " + GraphFlags() +
                                " --threads 1 --closure-budget-mb 0");
  ASSERT_EQ(typical.exit_code, 0);
  EXPECT_EQ(typical.stdout_text, typical_golden)
      << "typical diverged with the closure cache disabled";

  const std::string infmax_golden =
      ReadFileOrDie(GoldenPath("infmax_tc.stdout.golden"));
  const CliRun infmax =
      RunCli("infmax " + GraphFlags() +
             " --method tc --k 8 --eval-worlds 100 --threads 1"
             " --closure-budget-mb 0");
  ASSERT_EQ(infmax.exit_code, 0);
  EXPECT_EQ(infmax.stdout_text, infmax_golden)
      << "infmax tc diverged with the closure cache disabled";
}

TEST(CliGoldenTest, ServeStdinMatchesGoldenAcrossThreads) {
  // The request fixture mixes every op with malformed and invalid lines;
  // the golden asserts the whole protocol contract at once: responses in
  // request order, errors as status lines (the process must not abort),
  // and ids salvaged from broken JSON.
  const std::string golden = ReadFileOrDie(GoldenPath("serve.stdout.golden"));
  for (const char* threads : {"1", "8"}) {
    const CliRun run = RunCli("serve " + GraphFlags() + " --stdin --threads " +
                              threads + " < '" +
                              GoldenPath("serve.requests.jsonl") + "'");
    ASSERT_EQ(run.exit_code, 0);
    EXPECT_EQ(run.stdout_text, golden)
        << "serve diverged at --threads " << threads;
  }
}

// The one nondeterministic token in v2 responses is the wall-clock field.
std::string NormalizeElapsed(const std::string& text) {
  static const std::regex kElapsed(R"("elapsed_us":[0-9]+)");
  return std::regex_replace(text, kElapsed, "\"elapsed_us\":0");
}

TEST(CliGoldenTest, ServeV2StdinMatchesGoldenAcrossThreads) {
  // The fixture mixes v1 and v2 lines, every accuracy knob, and the v2
  // structured-error shapes; the sketch tier is deterministic (salt is a
  // pure function of --seed), so the whole reply stream is golden-stable
  // once elapsed_us is normalized.
  const std::string golden =
      ReadFileOrDie(GoldenPath("serve_v2.stdout.golden"));
  for (const char* threads : {"1", "8"}) {
    const CliRun run = RunCli("serve " + GraphFlags() +
                              " --sketch-k 16 --stdin --threads " + threads +
                              " < '" + GoldenPath("serve_v2.requests.jsonl") +
                              "'");
    ASSERT_EQ(run.exit_code, 0);
    EXPECT_EQ(NormalizeElapsed(run.stdout_text), golden)
        << "serve v2 diverged at --threads " << threads;
  }
}

// Pulls "key": <number> out of the metrics JSON (flat, known-schema file;
// a full parser is not needed to check the coverage criterion).
double JsonNumberAfter(const std::string& json, const std::string& key,
                       size_t from = 0) {
  const size_t at = json.find("\"" + key + "\"", from);
  if (at == std::string::npos) return -1.0;
  const size_t colon = json.find(':', at);
  return std::atof(json.c_str() + colon + 1);
}

TEST(CliGoldenTest, MetricsSidecarIsValidAndCoversRuntime) {
  const std::string out = testing::TempDir() + "cli_golden_cov.soisnap";
  const std::string metrics = testing::TempDir() + "cli_golden_cov.json";
  // More worlds than the golden run so real work dominates process startup
  // and the >= 95% phase-coverage contract is comfortably testable.
  const CliRun run = RunCli(
      "index --graph '" + GoldenPath("graph.txt") +
      "' --worlds 512 --seed 1 --threads 1 --out '" + out +
      "' --metrics-out '" + metrics + "'");
  ASSERT_EQ(run.exit_code, 0) << run.stdout_text;

  const std::string json = ReadFileOrDie(metrics);
  EXPECT_NE(json.find("\"schema\": \"soi-metrics-v1\""), std::string::npos);
  const double total = JsonNumberAfter(json, "total_wall_seconds");
  ASSERT_GT(total, 0.0);

  // cli/* spans partition the command dispatch; together they must account
  // for >= 95% of the process wall time past flag parsing.
  double covered = 0.0;
  for (const char* phase : {"cli/load_graph", "cli/build_index",
                            "cli/save_index"}) {
    const size_t at = json.find(std::string("\"") + phase + "\"");
    ASSERT_NE(at, std::string::npos) << phase << " missing from metrics";
    covered += JsonNumberAfter(json, "total_seconds", at);
  }
  EXPECT_GE(covered / total, 0.95)
      << "cli/* spans cover only " << covered << "s of " << total << "s";

  EXPECT_NE(json.find("\"index/worlds_built\": 512"), std::string::npos);
  std::remove(out.c_str());
  std::remove(metrics.c_str());
}

}  // namespace
}  // namespace soi
