// Shared plumbing for the repository benchmark: host clocks, result
// metrics, the order-sensitive output digest, bench-side spans, and
// process memory readings.
//
// Everything here lives outside the library: the benchmark times each
// layer from its own files, around calls into that layer's public
// functions, and adds no instrumentation to src/.
#ifndef PERFBENCH_CPP_COMMON_H_
#define PERFBENCH_CPP_COMMON_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// Host seconds on the monotonic clock.
double NowS();

// Runs `body` at least once and until `min_seconds` of host time have
// passed; returns host seconds per call. Set-up phases of a few
// milliseconds are timed this way so the figure does not hinge on one
// short interval.
template <typename Body>
double SecondsPerCall(double min_seconds, Body body) {
  const double start = NowS();
  int calls = 0;
  double elapsed = 0.0;
  do {
    body();
    ++calls;
    elapsed = NowS() - start;
  } while (elapsed < min_seconds);
  return elapsed / calls;
}

// Median and linear-interpolated quantile (q in [0, 1]) of a sample;
// both return 0 for an empty sample.
double Median(std::vector<double> values);
double Quantile(std::vector<double> values, double q);

// Host-speed estimates over repeated samples of the same work. Other
// tenants of a shared host only ever slow a sample down (the spread seen
// here comes in multi-second slow phases), so the fastest sample is the
// steadiest estimate of the program's own speed — the convention
// bench/sim_bench.cc uses for its gates. Both return 0 for no samples.
double BestRate(const std::vector<double>& rates);  // the highest rate
double BestTime(const std::vector<double>& times);  // the shortest time

// Peak and current resident set size of this process, in MB.
double PeakRssMb();
double CurrentRssMb();

// splitmix64 finalizer: derives independent per-stream seeds from --seed.
uint64_t Mix64(uint64_t x);

// Seeded Fisher-Yates shuffle.
template <typename T>
void Shuffle(std::vector<T>* items, uint64_t seed) {
  for (size_t i = items->size(); i > 1; --i) {
    seed = Mix64(seed);
    std::swap((*items)[i - 1], (*items)[seed % i]);
  }
}

// FNV-1a over 64-bit words. Order-sensitive: the same values in another
// order give another digest. Doubles are mixed by bit pattern, so a
// change in the last ulp of any simulated time changes the digest.
class Digest {
 public:
  void Mix(uint64_t value);
  void MixDouble(double value);
  void MixString(const std::string& value);
  uint64_t value() const { return state_; }
  std::string Hex() const;

 private:
  uint64_t state_ = 0xcbf29ce484222325ull;
};

// The metrics a run reports, in insertion order, plus the correctness
// gate: every failed check is kept with its message.
class Result {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  void Check(bool ok, const std::string& what);
  bool correct() const { return failures_.empty(); }
  const std::vector<std::string>& failures() const { return failures_; }
  // The machine-readable result line (one JSON object).
  std::string Json(uint64_t attempted, uint64_t failed) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> failures_;
};

// Bench-side spans, kept in memory and written at exit as a Chrome trace
// (complete "X" events, one track). Spans nest by call order: a span
// opened while another is open is its child. Disabled recorders (the
// untraced run) record nothing.
class SpanRecorder {
 public:
  SpanRecorder(bool enabled, std::string run_id);
  bool enabled() const { return enabled_; }
  // Returns a handle for End; -1 when disabled.
  int Begin(const std::string& name);
  void End(int handle);
  size_t size() const { return spans_.size(); }
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    double start_us = 0.0;
    double end_us = -1.0;
    int parent = -1;
  };
  bool enabled_;
  std::string run_id_;
  double origin_s_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// RAII span over one scope.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const std::string& name)
      : recorder_(recorder), handle_(recorder->Begin(name)) {}
  ~ScopedSpan() { recorder_->End(handle_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int handle_;
};

// Prints one progress line to stderr (stdout carries only the result).
void Note(const char* format, ...) __attribute__((format(printf, 1, 2)));

}  // namespace perfbench

#endif  // PERFBENCH_CPP_COMMON_H_
