// Shared harness plumbing: clocks, benchmark-side spans, percentile
// samples, failure accounting and the result line.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

uint64_t NowNs();
double SecondsSince(uint64_t start_ns);

// Prints one human-readable line to stdout (the result JSON is always the
// last line, printed by main).
void Log(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

// -- Spans -------------------------------------------------------------------

// In-memory span recorder for the traced run. Spans are recorded by the
// benchmark around its calls into each layer (never inside the library):
// name, start, end, the enclosing span, and a request id for per-request
// spans. Disabled recorders cost one branch per span.
class Tracer {
 public:
  struct Span {
    std::string name;
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
    int32_t parent = -1;
    int64_t request = -1;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  // Opens a span nested in the innermost open span (main thread only).
  int32_t Begin(const std::string& name);
  void End(int32_t span);
  // Records a finished span, e.g. per-request spans assembled from a client
  // thread's timestamps after the run. Returns its index.
  int32_t Add(const std::string& name, uint64_t start_ns, uint64_t end_ns,
              int32_t parent, int64_t request = -1);
  // The innermost open span, -1 when none.
  int32_t current() const { return stack_.empty() ? -1 : stack_.back(); }

  const std::vector<Span>& spans() const { return spans_; }

  // Total and self seconds (duration minus the part covered by direct
  // children) aggregated per span name — of all spans, or only of the direct
  // children of spans named `parent` — and self seconds per layer (the name
  // up to the first '.').
  struct Totals {
    double total_s = 0;
    double self_s = 0;
    uint64_t count = 0;
  };
  std::map<std::string, Totals> ByName(const std::string& parent = "") const;
  std::map<std::string, double> SelfByLayer() const;

  // Writes {"spans":[{"name","start_us","end_us","parent","request"}...]}.
  bool WriteJson(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int32_t> stack_;
};

// RAII span; a no-op when the tracer is disabled.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer->enabled() ? tracer->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (id_ >= 0) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int32_t id_;
};

// -- Samples -----------------------------------------------------------------

// A bag of measurements summarized by nearest-rank percentiles. Every
// printed percentile carries its sample count and how many samples lie
// beyond it, so a tail read from too few samples is visible as such.
class Samples {
 public:
  void Add(double v) {
    values_.push_back(v);
    sorted_ = false;
  }
  void Merge(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
    sorted_ = false;
  }
  size_t size() const { return values_.size(); }
  double Percentile(double q) const;
  double Median() const { return Percentile(0.5); }
  double Mean() const;
  size_t Beyond(double q) const;
  // "p50=12.0 p99=40.0 (n=2000, 20 beyond p99)".
  std::string Describe(const char* unit) const;

 private:
  void Sort() const;
  mutable std::vector<double> values_;
  mutable bool sorted_ = true;
};

// -- Failures ----------------------------------------------------------------

// Failed operations by class ("refused", "invalid_argument",
// "DEADLINE_EXCEEDED", "wrong_answer", ...), always read against the number
// attempted.
class Failures {
 public:
  void Count(const std::string& cls, uint64_t n = 1) {
    if (n > 0) by_class_[cls] += n;
  }
  uint64_t total() const;
  void Merge(const Failures& other);
  void Print(uint64_t attempted) const;

 private:
  std::map<std::string, uint64_t> by_class_;
};

// -- Memory --------------------------------------------------------------------

// Resets the kernel's peak-RSS mark (VmHWM) so a later PeakRssMb() covers
// only what ran after this call. Returns false when unsupported.
bool ResetPeakRss();
double PeakRssMb();

// -- Result --------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // End-to-end metrics (every pass) and per-layer metrics (traced passes).
  std::vector<Metric> end_to_end;
  std::vector<Metric> layers;
};

// Sets (or adds) `name` in `metrics`.
void SetMetric(std::vector<Metric>* metrics, const std::string& name,
               double value, const std::string& unit);

// The final stdout line:
// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}..}}.
std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
