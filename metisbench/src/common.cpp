#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <sstream>

namespace metisbench {

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::size_t thread_count() {
  std::size_t n = 0;
  std::error_code ec;
  for (auto it = std::filesystem::directory_iterator("/proc/self/task", ec);
       !ec && it != std::filesystem::directory_iterator(); it.increment(ec)) {
    ++n;
  }
  return n;
}

std::optional<double> Samples::percentile(double p) const {
  if (values_.empty()) return std::nullopt;
  std::vector<double> v = values_;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

std::optional<double> Samples::interquartile_mean() const {
  if (values_.empty()) return std::nullopt;
  std::vector<double> v = values_;
  std::sort(v.begin(), v.end());
  const std::size_t cut = v.size() / 4;
  double sum = 0.0;
  for (std::size_t i = cut; i < v.size() - cut; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * cut);
}

bool Samples::supports(double p) const {
  const double beyond =
      static_cast<double>(values_.size()) * (1.0 - p / 100.0);
  return beyond >= 10.0;
}

void Histogram::add(std::int64_t v) {
  const auto u = static_cast<std::uint64_t>(std::clamp<std::int64_t>(
      v, 0, (std::int64_t{1} << kMaxBits) - 1));
  std::size_t i = u;
  if (u >= kLinear) {
    const int bits = std::bit_width(u);  // 9..kMaxBits
    const int shift = bits - 8;
    i = kLinear + static_cast<std::size_t>(bits - 9) * kSub +
        static_cast<std::size_t>((u >> shift) - kSub);
  }
  counts_[i]++;
  count_++;
}

void Histogram::clear() {
  std::fill(counts_.begin(), counts_.end(), 0);
  count_ = 0;
}

std::optional<double> Histogram::percentile(double p) const {
  if (count_ == 0) return std::nullopt;
  // The rank Samples::percentile interpolates at, located in its bucket and
  // placed inside it as if the bucket's values were spread evenly.
  const double rank = p / 100.0 * static_cast<double>(count_ - 1);
  double below = 0.0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    const double c = counts_[i];
    if (c == 0.0 || below + c <= rank) {
      below += c;
      continue;
    }
    double lo = static_cast<double>(i), width = 1.0;
    if (i >= kLinear) {
      const std::size_t k = i - kLinear;
      const int shift = static_cast<int>(k / kSub) + 1;
      lo = std::ldexp(static_cast<double>(kSub + k % kSub), shift);
      width = std::ldexp(1.0, shift);
    }
    return lo + width * (rank - below) / c;
  }
  return std::nullopt;  // unreachable: rank < count_
}

bool Histogram::supports(double p) const {
  return static_cast<double>(count_) * (1.0 - p / 100.0) >= 10.0;
}

int Tracer::begin(const std::string& name, std::uint64_t request) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.request = request;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = now_ns();
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

void Tracer::end(int span) {
  if (!enabled_ || span < 0) return;
  spans_[static_cast<std::size_t>(span)].end_ns = now_ns();
  if (!open_.empty() && open_.back() == span) open_.pop_back();
}

std::map<std::string, Samples> Tracer::self_ms() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, Samples> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out[s.name].add(static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) *
                    1e-6);
  }
  return out;
}

std::string Tracer::to_json() const {
  std::ostringstream os;
  os << "{\"traceEvents\":[";
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i > 0) os << ',';
    os << "{\"name\":\"" << json_escape(s.name) << "\",\"ph\":\"X\",\"pid\":1"
       << ",\"tid\":" << s.request
       << ",\"ts\":" << json_number(static_cast<double>(s.start_ns - t0) / 1e3)
       << ",\"dur\":"
       << json_number(static_cast<double>(s.end_ns - s.start_ns) / 1e3)
       << '}';
  }
  os << "]}";
  return os.str();
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace metisbench
