// Shared helpers of the end-to-end benchmark: clocks, sample sets and
// fixed-size histograms with percentiles, a span recorder for the traced
// run, and a small JSON writer.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace metisbench {

using Clock = std::chrono::steady_clock;

// Nanoseconds since an arbitrary (process-wide) epoch.
[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// Process CPU time (user + system), in seconds.
[[nodiscard]] double cpu_seconds();
// Peak resident set size of the process so far, in MB.
[[nodiscard]] double peak_rss_mb();
// Threads the process has right now (/proc/self/task).
[[nodiscard]] std::size_t thread_count();

// A set of measured values (any unit) with the percentile rule of the
// benchmark: a percentile is reported only when at least ten samples lie
// beyond it.
class Samples {
 public:
  void add(double v) { values_.push_back(v); }
  [[nodiscard]] std::size_t size() const { return values_.size(); }
  [[nodiscard]] bool empty() const { return values_.empty(); }
  // Linear-interpolated percentile (p in [0, 100]); nullopt when empty.
  [[nodiscard]] std::optional<double> percentile(double p) const;
  // True when at least ten samples lie above the p-th percentile.
  [[nodiscard]] bool supports(double p) const;
  // Mean of the middle half: the lowest and highest quarter (rounded down)
  // are dropped. Unlike the median it moves smoothly when the samples come
  // from two modes in varying proportion; nullopt when empty.
  [[nodiscard]] std::optional<double> interquartile_mean() const;

 private:
  std::vector<double> values_;
};

// A fixed-size histogram of non-negative integer values (the generator
// records nanoseconds), with the same percentile rule as Samples. Buckets
// are exact below 256 and log-linear above (128 per power of two, so a
// bucket is under 0.8% of its value wide), up to 2^41; a percentile is
// interpolated inside its bucket. Its memory does not grow with the number
// of values, so the generator's own storage, and with it the process's
// peak RSS, does not grow with the query rate or the run length.
class Histogram {
 public:
  Histogram() : counts_(kBuckets, 0) {}
  void add(std::int64_t v);
  void clear();
  [[nodiscard]] std::size_t size() const { return count_; }
  [[nodiscard]] std::optional<double> percentile(double p) const;
  [[nodiscard]] bool supports(double p) const;

 private:
  static constexpr std::size_t kLinear = 256;
  static constexpr std::size_t kSub = 128;
  static constexpr int kMaxBits = 41;
  static constexpr std::size_t kBuckets =
      kLinear + static_cast<std::size_t>(kMaxBits - 8) * kSub;
  std::vector<std::uint32_t> counts_;
  std::size_t count_ = 0;
};

// In-memory span recorder for the traced run. Spans are recorded only in
// the benchmark's own code, around calls into the library's layers, and
// written out once at exit.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;    // index of the enclosing span, -1 for a root
    std::uint64_t request = 0;  // spans of one replayed job share this id
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  [[nodiscard]] bool enabled() const { return enabled_; }

  // Opens a span under the innermost open span; returns its index (-1
  // when tracing is off).
  int begin(const std::string& name, std::uint64_t request);
  void end(int span);

  // Records a count at a layer boundary (e.g. samples per collection
  // round), so ratios are measured where the work happens.
  void count(const std::string& name, double value) {
    if (enabled_) counts_[name].add(value);
  }
  [[nodiscard]] const std::map<std::string, Samples>& counts() const {
    return counts_;
  }

  // Self time (duration minus the part covered by child spans) of every
  // span, keyed by name, in milliseconds.
  [[nodiscard]] std::map<std::string, Samples> self_ms() const;
  // Chrome trace-event JSON ("X" events, one track per request id).
  [[nodiscard]] std::string to_json() const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::map<std::string, Samples> counts_;
};

// RAII span. A null tracer (or a disabled one) records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, std::uint64_t request)
      : tracer_(tracer),
        span_(tracer != nullptr ? tracer->begin(name, request) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->end(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int span_;
};

// splitmix64: the benchmark's stateless hash for deriving per-item choices
// (session, feature row, job parameters) from the workload seed.
[[nodiscard]] inline std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Minimal JSON emission (objects of numbers, strings, nested objects).
[[nodiscard]] std::string json_escape(const std::string& s);
[[nodiscard]] std::string json_number(double v);

}  // namespace metisbench
