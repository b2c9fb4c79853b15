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

#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "snapshot/format.h"
#include "util/check.h"

extern char** environ;

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

// Runs a shell command, capturing its stdout.
CliRun RunCommand(const std::string& command) {
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

// Runs soi_cli with `args`, capturing stdout (stderr is dropped: it carries
// only the "metrics: ..." notices and warnings, which are not part of the
// golden contract). `wrapper` prefixes the command (e.g. `timeout`).
CliRun RunCli(const std::string& args, const std::string& wrapper = "") {
  return RunCommand(wrapper + "'" + SOI_CLI_PATH + "' " + args +
                    " 2>/dev/null");
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

// `index --out P` replacing an existing snapshot and killed at any point
// leaves at P either the old file or the complete new one, never a torn
// file, and a temp file a killed create left behind does not block the
// next create. (Durability across power loss needs a power cut; untested.)
TEST(CliGoldenTest, KilledIndexWriteLeavesOldOrNewSnapshot) {
  const std::string path = testing::TempDir() + "cli_golden_kill.soisnap";
  const std::string old_bytes =
      ReadFileOrDie(GoldenPath("index.soisnap.golden"));
  const std::string create = "index --graph '" + GoldenPath("graph.txt") +
                             "' --worlds 512 --seed 2 --threads 1 --out '" +
                             path + "'";
  const auto start = std::chrono::steady_clock::now();
  ASSERT_EQ(RunCli(create).exit_code, 0);
  const std::chrono::duration<double> full_run =
      std::chrono::steady_clock::now() - start;
  const std::string new_bytes = ReadFileOrDie(path);
  ASSERT_NE(new_bytes, old_bytes);

  // SIGKILL every 1/32 of a full run, from process start to past its end,
  // so some kills land while the file is being written.
  for (int k = 0; k <= 40; ++k) {
    std::ofstream(path, std::ios::binary | std::ios::trunc) << old_bytes;
    RunCli(create, "timeout -s KILL " +
                       std::to_string(full_run.count() * k / 32) + " ");
    const std::string got = ReadFileOrDie(path);
    EXPECT_TRUE(got == old_bytes || got == new_bytes)
        << "torn snapshot after kill " << k;
    EXPECT_EQ(RunCli("snapshot verify --in '" + path + "'").exit_code, 0)
        << "verify refused the snapshot after kill " << k;
  }

  std::ofstream(path + ".tmp", std::ios::binary | std::ios::trunc) << "torn";
  ASSERT_EQ(RunCli(create).exit_code, 0);
  EXPECT_EQ(ReadFileOrDie(path), new_bytes);
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  std::remove(path.c_str());
}

// A create whose write fails midway exits non-zero with an IOError,
// removes its temp file and leaves the snapshot already at the path as it
// was. The failure is real: the child shell's file-size limit (64 blocks,
// well under the ~400 KiB file) cuts the write short, and with SIGXFSZ
// ignored the next write returns EFBIG instead of killing the process.
// The limit applies to that child alone.
TEST(CliGoldenTest, FailedSnapshotWriteKeepsOldFileAndRemovesTemp) {
  const std::string path = testing::TempDir() + "cli_golden_efbig.soisnap";
  const std::string old_bytes =
      ReadFileOrDie(GoldenPath("index.soisnap.golden"));
  std::ofstream(path, std::ios::binary | std::ios::trunc) << old_bytes;
  std::remove((path + ".tmp").c_str());
  const CliRun run = RunCommand(
      "(trap '' XFSZ; ulimit -f 64; exec '" + std::string(SOI_CLI_PATH) +
      "' snapshot create " + GraphFlags() + " --threads 1 --out '" + path +
      "') 2>&1");
  EXPECT_NE(run.exit_code, 0) << run.stdout_text;
  EXPECT_NE(run.stdout_text.find("IOError"), std::string::npos)
      << run.stdout_text;
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  EXPECT_EQ(ReadFileOrDie(path), old_bytes);
  std::remove(path.c_str());
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

// Writes `snapshot create` output for the golden configuration to a temp
// file and returns `--snapshot '<path>'`; `extra` adds create flags.
std::string SnapshotSource(const std::string& name, const std::string& extra) {
  const std::string path = testing::TempDir() + name;
  const CliRun run = RunCli("snapshot create " + GraphFlags() +
                            " --threads 1 " + extra + " --out '" + path + "'");
  EXPECT_EQ(run.exit_code, 0) << run.stdout_text;
  return "--snapshot '" + path + "'";
}

TEST(CliGoldenTest, ServeStdinMatchesGoldenAcrossThreads) {
  // The request fixture mixes every op with malformed and invalid lines;
  // the golden asserts the whole protocol contract at once: responses in
  // request order, errors as status lines (the process must not abort),
  // and ids salvaged from broken JSON.
  // A --dynamic engine builds the same index, so it answers identically,
  // and so does a server mapping a snapshot of it — at 8 threads its cold
  // worlds are first touched by concurrent requests.
  const std::string golden = ReadFileOrDie(GoldenPath("serve.stdout.golden"));
  const std::string snapshot = SnapshotSource("cli_golden_serve.soisnap", "");
  for (const std::string& source :
       {GraphFlags() + " --threads 1", GraphFlags() + " --threads 8",
        GraphFlags() + " --threads 1 --dynamic", snapshot + " --threads 1",
        snapshot + " --threads 8"}) {
    const CliRun run = RunCli("serve " + source + " --stdin < '" +
                              GoldenPath("serve.requests.jsonl") + "'");
    ASSERT_EQ(run.exit_code, 0);
    EXPECT_EQ(run.stdout_text, golden) << "serve diverged with " << source;
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
  const std::string built = GraphFlags() + " --sketch-k 16";
  const std::string snapshot =
      SnapshotSource("cli_golden_serve_v2.soisnap", "--sketch-k 16");
  for (const std::string& source :
       {built + " --threads 1", built + " --threads 8",
        built + " --threads 1 --dynamic", snapshot + " --threads 1",
        snapshot + " --threads 8"}) {
    const CliRun run = RunCli("serve " + source + " --stdin < '" +
                              GoldenPath("serve_v2.requests.jsonl") + "'");
    ASSERT_EQ(run.exit_code, 0);
    EXPECT_EQ(NormalizeElapsed(run.stdout_text), golden)
        << "serve v2 diverged with " << source;
  }
}

// A `soi_cli serve --stdin` child with its standard streams piped to the
// test, so it can be signalled between requests.
class ServeProcess {
 public:
  explicit ServeProcess(const std::vector<std::string>& args) {
    ::signal(SIGPIPE, SIG_IGN);  // a dead child must fail the test, not kill it
    int in[2], out[2], err[2];
    SOI_CHECK(::pipe(in) == 0 && ::pipe(out) == 0 && ::pipe(err) == 0);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, in[0], 0);
    posix_spawn_file_actions_adddup2(&actions, out[1], 1);
    posix_spawn_file_actions_adddup2(&actions, err[1], 2);
    for (const int fd : {in[0], in[1], out[0], out[1], err[0], err[1]}) {
      posix_spawn_file_actions_addclose(&actions, fd);
    }
    std::vector<std::string> argv_text = {SOI_CLI_PATH};
    argv_text.insert(argv_text.end(), args.begin(), args.end());
    std::vector<char*> argv;
    for (std::string& a : argv_text) argv.push_back(a.data());
    argv.push_back(nullptr);
    SOI_CHECK(posix_spawn(&pid_, SOI_CLI_PATH, &actions, nullptr, argv.data(),
                          environ) == 0);
    posix_spawn_file_actions_destroy(&actions);
    ::close(in[0]);
    ::close(out[1]);
    ::close(err[1]);
    in_ = in[1];
    out_ = out[0];
    err_ = err[0];
  }

  ~ServeProcess() {
    if (pid_ > 0) Finish();
  }

  // Sends one request line; returns its response line ("" on timeout).
  std::string Ask(const std::string& line) {
    const std::string text = line + "\n";
    if (::write(in_, text.data(), text.size()) !=
        static_cast<ssize_t>(text.size())) {
      return "";
    }
    return ReadLine(out_, &out_buf_, [](const std::string&) { return true; },
                    kTimeout);
  }

  // Reads stderr lines until one contains `needle` and returns it; "" on
  // timeout or EOF.
  std::string AwaitStderr(const std::string& needle,
                          std::chrono::seconds timeout = kTimeout) {
    return ReadLine(
        err_, &err_buf_,
        [&](const std::string& l) {
          return l.find(needle) != std::string::npos;
        },
        timeout);
  }

  void Signal(int sig) { ::kill(pid_, sig); }

  // Closes the child's stdin and returns its exit code.
  int Finish() {
    ::close(in_);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
    ::close(out_);
    ::close(err_);
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

 private:
  static constexpr std::chrono::seconds kTimeout{30};

  template <typename Accept>
  static std::string ReadLine(int fd, std::string* buf, Accept accept,
                              std::chrono::seconds timeout) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    while (std::chrono::steady_clock::now() < deadline) {
      for (size_t nl; (nl = buf->find('\n')) != std::string::npos;) {
        std::string line = buf->substr(0, nl);
        buf->erase(0, nl + 1);
        if (accept(line)) return line + "\n";
      }
      struct pollfd pfd {fd, POLLIN, 0};
      if (::poll(&pfd, 1, 1000) <= 0) continue;
      char chunk[4096];
      const ssize_t n = ::read(fd, chunk, sizeof(chunk));
      if (n <= 0) return "";
      buf->append(chunk, static_cast<size_t>(n));
    }
    return "";
  }

  pid_t pid_ = -1;
  int in_ = -1, out_ = -1, err_ = -1;
  std::string out_buf_, err_buf_;
};

// A SIGHUP reload runs every world's first-use checks before it swaps: a
// file with one malformed packed closure run is refused and the old engine
// keeps answering as before; a sound file is then swapped in.
TEST(CliGoldenTest, SighupReloadRefusesMalformedWorldBeforeSwap) {
  const std::string path = testing::TempDir() + "cli_golden_reload.soisnap";
  ASSERT_EQ(RunCli("snapshot create " + GraphFlags() +
                   " --threads 1 --out '" + path + "'").exit_code,
            0);
  const std::string good = ReadFileOrDie(path);
  // 0xFF-fill the head of the packed closure pool: world 0's first run.
  std::string bad = good;
  soi::SnapshotHeader header{};
  std::memcpy(&header, bad.data(), sizeof(header));
  uint64_t pool = 0;
  for (uint32_t i = 0; i < header.section_count; ++i) {
    soi::SectionEntry e{};
    std::memcpy(&e, bad.data() + sizeof(header) + i * sizeof(e), sizeof(e));
    if (e.kind == static_cast<uint32_t>(
                      soi::SectionKind::kClosureCompsPacked)) {
      pool = e.offset;
    }
  }
  ASSERT_NE(pool, 0u) << "snapshot create wrote no packed closures";
  for (uint64_t i = 0; i < 5; ++i) bad[pool + i] = static_cast<char>(0xFF);
  // Replaced by rename, as WriteSnapshot does: the serving mapping keeps
  // the old file.
  const auto replace = [&](const std::string& bytes) {
    std::ofstream(path + ".tmp", std::ios::binary | std::ios::trunc) << bytes;
    ASSERT_EQ(std::rename((path + ".tmp").c_str(), path.c_str()), 0);
  };

  ServeProcess serve({"serve", "--snapshot", path, "--threads", "1",
                      "--stdin"});
  const std::string cascade =
      R"({"id": 1, "op": "cascade", "seeds": [5], "world": 0})";
  const std::string reliability =
      R"({"id": 2, "op": "reliability", "seeds": [3], "threshold": 0.4})";
  const std::string cascade_answer = serve.Ask(cascade);
  const std::string reliability_answer = serve.Ask(reliability);
  ASSERT_NE(cascade_answer.find("\"status\":\"ok\""), std::string::npos)
      << cascade_answer;
  ASSERT_NE(reliability_answer.find("\"status\":\"ok\""),
            std::string::npos)
      << reliability_answer;

  // The loop runs its poll hook, which does the reload, before it
  // dispatches the next request, so each first answer below comes after
  // the reload attempt whenever the signal woke the loop.
  replace(bad);
  serve.Signal(SIGHUP);
  EXPECT_EQ(serve.Ask(cascade), cascade_answer);
  const std::string refused =
      serve.AwaitStderr("reload failed, keeping old engine");
  EXPECT_NE(refused.find("world 0 has a malformed packed closure run"),
            std::string::npos)
      << "stderr line: " << refused;
  EXPECT_EQ(serve.Ask(reliability), reliability_answer);

  replace(good);
  serve.Signal(SIGHUP);
  EXPECT_EQ(serve.Ask(cascade), cascade_answer);
  EXPECT_NE(serve.AwaitStderr("snapshot reloaded"), "");
  EXPECT_EQ(serve.Ask(reliability), reliability_answer);
  EXPECT_EQ(serve.Finish(), 0);
  std::remove(path.c_str());
}

// Every SIGHUP reloads at once, with no request to wake the loop: also one
// that lands while the loop is still busy with the answer just read, which
// used to wait for the next request.
TEST(CliGoldenTest, SighupReloadsWithoutAnotherRequest) {
  const std::string path = testing::TempDir() + "cli_golden_wake.soisnap";
  ASSERT_EQ(RunCli("snapshot create " + GraphFlags() +
                   " --threads 1 --out '" + path + "'").exit_code,
            0);
  ServeProcess serve({"serve", "--snapshot", path, "--threads", "1",
                      "--stdin"});
  const std::string request = R"({"id": 1, "op": "spread", "seeds": [3]})";
  for (int round = 0; round < 40; ++round) {
    ASSERT_NE(serve.Ask(request).find("\"status\":\"ok\""), std::string::npos);
    serve.Signal(SIGHUP);
    ASSERT_NE(serve.AwaitStderr("snapshot reloaded", std::chrono::seconds(5)),
              "")
        << "no reload within 5 s of the signal in round " << round;
  }
  EXPECT_EQ(serve.Finish(), 0);
  std::remove(path.c_str());
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
