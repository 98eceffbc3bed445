#include "perfbench/cpp/common.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <utility>

namespace perfbench {

double NowS() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

double BestRate(const std::vector<double>& rates) { return Quantile(rates, 1.0); }
double BestTime(const std::vector<double>& times) { return Quantile(times, 0.0); }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double CurrentRssMb() {
  long pages = 0;
  FILE* statm = std::fopen("/proc/self/statm", "r");
  if (statm != nullptr) {
    long size = 0;
    if (std::fscanf(statm, "%ld %ld", &size, &pages) != 2) {
      pages = 0;
    }
    std::fclose(statm);
  }
  return static_cast<double>(pages) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

void Digest::Mix(uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    state_ ^= (value >> (8 * byte)) & 0xffu;
    state_ *= 0x100000001b3ull;
  }
}

void Digest::MixDouble(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  Mix(bits);
}

void Digest::MixString(const std::string& value) {
  Mix(value.size());
  for (const char c : value) {
    Mix(static_cast<unsigned char>(c));
  }
}

std::string Digest::Hex() const {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx", static_cast<unsigned long long>(state_));
  return buffer;
}

void Result::Add(const std::string& name, double value, const std::string& unit) {
  metrics_.push_back(Metric{name, value, unit});
}

void Result::Check(bool ok, const std::string& what) {
  if (!ok) {
    failures_.push_back(what);
  }
}

namespace {

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out + "\"";
}

}  // namespace

std::string Result::Json(uint64_t attempted, uint64_t failed) const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& metric = metrics_[i];
    // %.17g keeps every digit of the measured value; JSON has no NaN/inf.
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metric.value) ? metric.value : 0.0);
    out += (i > 0 ? ", " : "") + JsonString(metric.name) + ": {\"value\": " + value +
           ", \"unit\": " + JsonString(metric.unit) + "}";
  }
  return out + "}}";
}

SpanRecorder::SpanRecorder(bool enabled, std::string run_id)
    : enabled_(enabled), run_id_(std::move(run_id)), origin_s_(NowS()) {}

int SpanRecorder::Begin(const std::string& name) {
  if (!enabled_) {
    return -1;
  }
  Span span;
  span.name = name;
  span.start_us = (NowS() - origin_s_) * 1e6;
  span.parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

void SpanRecorder::End(int handle) {
  if (handle < 0) {
    return;
  }
  spans_[static_cast<size_t>(handle)].end_us = (NowS() - origin_s_) * 1e6;
  // Spans close in LIFO order (ScopedSpan); tolerate a skipped level.
  while (!open_.empty()) {
    const int top = open_.back();
    open_.pop_back();
    if (top == handle) {
      break;
    }
  }
}

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  std::fprintf(out,
               "{\"traceEvents\": [\n{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
               "\"args\": {\"name\": %s}}",
               JsonString("perfbench " + run_id_).c_str());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const double end_us = span.end_us >= span.start_us ? span.end_us : span.start_us;
    std::fprintf(out,
                 ",\n{\"name\": %s, \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": %.3f, "
                 "\"dur\": %.3f, \"args\": {\"run\": %s, \"span\": %zu, \"parent\": %d}}",
                 JsonString(span.name).c_str(), span.start_us, end_us - span.start_us,
                 JsonString(run_id_).c_str(), i, span.parent);
  }
  std::fprintf(out, "\n]}\n");
  return std::fclose(out) == 0;
}

void Note(const char* format, ...) {
  va_list args;
  va_start(args, format);
  std::vfprintf(stderr, format, args);
  va_end(args);
  std::fputc('\n', stderr);
}

}  // namespace perfbench
