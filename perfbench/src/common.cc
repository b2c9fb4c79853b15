#include "common.h"

#include <malloc.h>
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>

namespace perfbench {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double SecondsSince(uint64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

void Log(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  std::vprintf(fmt, args);
  va_end(args);
  std::fputc('\n', stdout);
  std::fflush(stdout);
}

// -- Tracer -------------------------------------------------------------------

int32_t Tracer::Begin(const std::string& name) {
  const int32_t id = Add(name, NowNs(), 0, current());
  stack_.push_back(id);
  return id;
}

void Tracer::End(int32_t span) {
  spans_[static_cast<size_t>(span)].end_ns = NowNs();
  if (!stack_.empty() && stack_.back() == span) stack_.pop_back();
}

int32_t Tracer::Add(const std::string& name, uint64_t start_ns,
                    uint64_t end_ns, int32_t parent, int64_t request) {
  spans_.push_back(Span{name, start_ns, end_ns, parent, request});
  return static_cast<int32_t>(spans_.size() - 1);
}

std::map<std::string, Tracer::Totals> Tracer::ByName(
    const std::string& parent) const {
  std::vector<double> child_s(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_s[static_cast<size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    }
  }
  std::map<std::string, Totals> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (!parent.empty() &&
        (s.parent < 0 ||
         spans_[static_cast<size_t>(s.parent)].name != parent)) {
      continue;
    }
    const double total = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    Totals& t = out[s.name];
    t.total_s += total;
    t.self_s += std::max(0.0, total - child_s[i]);
    ++t.count;
  }
  return out;
}

std::map<std::string, double> Tracer::SelfByLayer() const {
  std::map<std::string, double> out;
  for (const auto& [name, totals] : ByName()) {
    out[name.substr(0, name.find('.'))] += totals.self_s;
  }
  return out;
}

bool Tracer::WriteJson(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const uint64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(f, "{\"spans\":[");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const uint64_t start = s.start_ns >= base ? s.start_ns - base : 0;
    const uint64_t end = s.end_ns >= base ? s.end_ns - base : 0;
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f,"
                 "\"parent\":%d,\"request\":%lld}",
                 i == 0 ? "" : ",", s.name.c_str(),
                 static_cast<double>(start) * 1e-3,
                 static_cast<double>(end) * 1e-3, s.parent,
                 static_cast<long long>(s.request));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

// -- Samples ------------------------------------------------------------------

void Samples::Sort() const {
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
}

double Samples::Percentile(double q) const {
  if (values_.empty()) return 0.0;
  Sort();
  // Nearest rank: the smallest value with at least q of the samples at or
  // below it.
  const double rank = std::ceil(q * static_cast<double>(values_.size()));
  const size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values_[std::min(idx, values_.size() - 1)];
}

double Samples::Mean() const {
  if (values_.empty()) return 0.0;
  double sum = 0;
  for (double v : values_) sum += v;
  return sum / static_cast<double>(values_.size());
}

size_t Samples::Beyond(double q) const {
  if (values_.empty()) return 0;
  const double p = Percentile(q);
  return static_cast<size_t>(values_.end() -
                             std::upper_bound(values_.begin(), values_.end(), p));
}

std::string Samples::Describe(const char* unit) const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "p50=%.1f%s p99=%.1f%s max=%.1f%s (n=%zu, %zu beyond p99)",
                Percentile(0.5), unit, Percentile(0.99), unit,
                Percentile(1.0), unit, size(), Beyond(0.99));
  return buf;
}

// -- Failures -----------------------------------------------------------------

uint64_t Failures::total() const {
  uint64_t n = 0;
  for (const auto& [cls, count] : by_class_) n += count;
  return n;
}

void Failures::Merge(const Failures& other) {
  for (const auto& [cls, count] : other.by_class_) by_class_[cls] += count;
}

void Failures::Print(uint64_t attempted) const {
  if (by_class_.empty()) {
    Log("failures: none of %llu attempted operations",
        static_cast<unsigned long long>(attempted));
    return;
  }
  for (const auto& [cls, count] : by_class_) {
    Log("failures: %-24s %llu of %llu attempted (%.4f%%)", cls.c_str(),
        static_cast<unsigned long long>(count),
        static_cast<unsigned long long>(attempted),
        attempted ? 100.0 * static_cast<double>(count) /
                        static_cast<double>(attempted)
                  : 0.0);
  }
}

// -- Memory -------------------------------------------------------------------

bool ResetPeakRss() {
  // Hand the allocator's free memory back first, so the mark starts from
  // what is live rather than from what earlier phases left cached.
  ::malloc_trim(0);
  FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

double PeakRssMb() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

// -- Result -------------------------------------------------------------------

void SetMetric(std::vector<Metric>* metrics, const std::string& name,
               double value, const std::string& unit) {
  for (Metric& m : *metrics) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics->push_back(Metric{name, value, unit});
}

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[128];
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    // %.17g keeps every digit the measurement has.
    std::snprintf(buf, sizeof(buf), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    out += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
