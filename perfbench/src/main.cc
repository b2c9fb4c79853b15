// perfbench: one seeded workload of the soi system, measured from outside.
//
//   perfbench --workload build|serve|update --seed N --seconds S --trace 0|1
//             --tmp DIR [--trace-out FILE]
//
// --trace 0 runs one untraced pass and reports the end-to-end metrics.
// --trace 1 runs an untraced pass, then a traced pass that records
// benchmark-side spans around each layer call; it reports the per-layer
// metrics and prints the tracing overhead (traced minus untraced end-to-end
// numbers). The last stdout line is the result JSON.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common.h"
#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload build|serve|update "
               "--seed N --seconds S --trace 0|1 --tmp DIR [--trace-out FILE]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return Usage("--seed takes an integer");
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || options.seconds <= 0) {
        return Usage("--seconds takes a positive number");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      trace = value == "1";
    } else if (flag == "--tmp") {
      options.tmp_dir = value;
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1) return Usage("flags take one value each");
  if (!perfbench::IsWorkload(options.workload)) {
    return Usage("--workload must be build, serve or update");
  }
  if (trace < 0 || options.tmp_dir.empty()) {
    return Usage("--trace and --tmp are required");
  }

  perfbench::Log("perfbench: workload %s, seed %llu, %.1f s, trace %d",
                 options.workload.c_str(),
                 static_cast<unsigned long long>(options.seed),
                 options.seconds, trace);
  const perfbench::RunResult untraced =
      perfbench::RunWorkload(options, /*traced=*/false);
  for (const perfbench::Metric& m : untraced.end_to_end) {
    perfbench::Log("  %-16s %14.6g %s", m.name.c_str(), m.value,
                   m.unit.c_str());
  }
  bool correct = untraced.correct;
  uint64_t attempted = untraced.attempted;
  uint64_t failed = untraced.failed;
  const std::vector<perfbench::Metric>* metrics = &untraced.end_to_end;
  perfbench::RunResult traced;
  if (trace == 1) {
    perfbench::Log("-- traced pass --");
    traced = perfbench::RunWorkload(options, /*traced=*/true);
    perfbench::Log("tracing overhead (traced minus untraced):");
    for (size_t i = 0; i < untraced.end_to_end.size(); ++i) {
      const perfbench::Metric& u = untraced.end_to_end[i];
      const perfbench::Metric& t = traced.end_to_end[i];
      perfbench::Log("  %-16s %14.6g -> %14.6g %s (%+.1f%%)", u.name.c_str(),
                     u.value, t.value, u.unit.c_str(),
                     u.value != 0 ? 100.0 * (t.value - u.value) / u.value : 0.0);
    }
    correct = correct && traced.correct;
    attempted += traced.attempted;
    failed += traced.failed;
    metrics = &traced.layers;
  }
  std::printf("%s\n", perfbench::ResultJson(correct, attempted, failed,
                                            *metrics)
                          .c_str());
  return correct && failed == 0 ? 0 : 1;
}
