// Measurement plumbing for ma_benchmark: order statistics, process
// resource readings, the in-memory span tracer and the metric report.
// Nothing here calls into the engine; the workloads in ma_benchmark.cc
// do, and wrap those calls in spans.
#ifndef MA_PERFBENCH_HARNESS_H_
#define MA_PERFBENCH_HARNESS_H_

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace ma::perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Quantile `q` in [0, 1] of `v` with linear interpolation between the
/// closest ranks; 0 for an empty sample.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double Median(std::vector<double> v) {
  return Quantile(std::move(v), 0.5);
}

/// Geometric mean of the positive entries of `v`; 0 when there are none.
inline double Geomean(const std::vector<double>& v) {
  double log_sum = 0;
  size_t n = 0;
  for (const double x : v) {
    if (x <= 0) continue;
    log_sum += std::log(x);
    ++n;
  }
  return n == 0 ? 0 : std::exp(log_sum / static_cast<double>(n));
}

/// User + system CPU seconds this process has consumed so far.
inline double CpuSeconds() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  auto sec = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return sec(u.ru_utime) + sec(u.ru_stime);
}

/// Peak resident set size of this process, in MiB.
inline double PeakRssMb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// The host's speed, read from a fixed reference kernel that shares no
/// code with the engine. The reference host is a share of a larger
/// machine whose other tenants use the same cores and caches: its speed
/// swings by up to 50% over minutes, and every timing of a run moves with
/// it. The kernel, timed every kPeriodSeconds throughout a measuring
/// window, slows down with the host, so dividing a run's timings by the
/// slowdown it implies removes most of that swing.
///
/// The kernel reads 256 KiB, warmed just before, 64 times over: L2-resident
/// reads, like the engine's vectors and most of its hash tables. When the
/// engine slowed by 40% in a busy stretch, this kernel slowed by 42%,
/// while a dependent integer chain slowed by 9% and an 8 MiB pointer
/// chase by 16%. Callers sample between queries, when Due(). Not
/// thread-safe: one thread samples.
class HostSpeed {
 public:
  /// Least time between two samples.
  static constexpr double kPeriodSeconds = 0.1;
  /// The kernel's time in ms on the reference host at full speed
  /// (4-vCPU AVX-512 Xeon, GCC 12 -O3).
  static constexpr double kNominalMs = 0.1545;
  /// The engine slows by the kernel's slowdown to this power. Over five
  /// sets of 7-15 runs per workload in busy stretches, it left the
  /// largest spread of any timing at 10.8%, against 14.3% at 1 and 14.9%
  /// at 0.5.
  static constexpr double kEngineExponent = 0.75;

  HostSpeed() : data_(32 << 10) {
    for (size_t i = 0; i < data_.size(); ++i) data_[i] = i * 2654435761u;
  }

  /// Whether a sample is due: none was taken yet, or the last one is
  /// kPeriodSeconds old.
  bool Due() const {
    return ms_.empty() || SecondsBetween(last_, Clock::now()) >= kPeriodSeconds;
  }

  /// Times the kernel once.
  void Sample() {
    uint64_t s = 0;
    for (size_t i = 0; i < data_.size(); i += 8) s += data_[i];
    const Clock::time_point t0 = Clock::now();
    for (int r = 0; r < 64; ++r) {
      for (size_t i = 0; i < data_.size(); i += 8) s += data_[i] ^ data_[i + 1];
    }
    last_ = Clock::now();
    ms_.push_back(SecondsBetween(t0, last_) * 1e3);
    sink_ = s;
  }

  /// By how much the host slowed the engine: (the kernel's median time
  /// over its nominal time) to the power kEngineExponent. 2 means the
  /// engine ran at half its speed on the reference host. 1 without
  /// samples.
  double Slowdown() const {
    return ms_.empty() ? 1 : std::pow(Median(ms_) / kNominalMs, kEngineExponent);
  }

  size_t samples() const { return ms_.size(); }

 private:
  std::vector<uint64_t> data_;
  std::vector<double> ms_;
  Clock::time_point last_;
  volatile uint64_t sink_ = 0;
};

/// Shortest decimal text that reads back as exactly `v` (non-finite
/// values print as 0 so the report stays valid JSON).
inline std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

inline std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

/// In-memory spans recorded around the benchmark's calls into each
/// engine layer. Disabled tracers record nothing (Begin returns -1), so
/// untraced runs pay one branch per call site. Thread-safe: the serving
/// workload records from its generator and waiter threads.
class Tracer {
 public:
  struct Span {
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
    int parent = -1;
    uint64_t request = 0;
  };

  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  void set_enabled(bool on) { enabled_.store(on); }
  bool enabled() const { return enabled_.load(); }

  /// Opens a span now; returns its id (-1 when disabled).
  int Begin(std::string name, int parent = -1, uint64_t request = 0) {
    return Add(std::move(name), Clock::now(), Clock::time_point{}, parent,
               request);
  }

  void End(int id) {
    if (id < 0) return;
    const Clock::time_point now = Clock::now();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(id)].end = now;
  }

  /// Records a span whose bounds were measured elsewhere.
  int Add(std::string name, Clock::time_point start, Clock::time_point end,
          int parent = -1, uint64_t request = 0) {
    if (!enabled()) return -1;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({std::move(name), start, end, parent, request});
    return static_cast<int>(spans_.size() - 1);
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }

  /// `{"spans": [...], "self_time": {...}}`: every span (times in µs
  /// from the tracer's origin), then per span name the count, total
  /// duration and self time — the duration minus the part covered by
  /// direct children.
  std::string ToJson() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<double> child_us(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child_us[static_cast<size_t>(s.parent)] += Us(s.end) - Us(s.start);
    }
    struct Summary {
      uint64_t count = 0;
      double total_us = 0;
      double self_us = 0;
    };
    std::map<std::string, Summary> by_name;
    std::string out = "{\"spans\": [";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const double dur = Us(s.end) - Us(s.start);
      Summary& sum = by_name[s.name];
      ++sum.count;
      sum.total_us += dur;
      sum.self_us += std::max(0.0, dur - child_us[i]);
      out += i == 0 ? "\n" : ",\n";
      out += "{\"id\": " + std::to_string(i) + ", \"name\": " + JsonString(s.name) +
             ", \"start_us\": " + JsonNumber(Us(s.start)) +
             ", \"end_us\": " + JsonNumber(Us(s.end)) +
             ", \"parent\": " + std::to_string(s.parent) +
             ", \"request\": " + std::to_string(s.request) + "}";
    }
    out += "],\n\"self_time\": {";
    bool first = true;
    for (const auto& [name, sum] : by_name) {
      out += first ? "\n" : ",\n";
      first = false;
      out += JsonString(name) + ": {\"count\": " + std::to_string(sum.count) +
             ", \"total_ms\": " + JsonNumber(sum.total_us / 1e3) +
             ", \"self_ms\": " + JsonNumber(sum.self_us / 1e3) + "}";
    }
    return out + "}}";
  }

 private:
  double Us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }

  Clock::time_point origin_;
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Opens a span on construction and closes it on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name, int parent = -1,
             uint64_t request = 0)
      : tracer_(tracer), id_(tracer->Begin(std::move(name), parent, request)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

/// One reported metric: its value, unit and how many samples it was
/// computed from.
struct Metric {
  double value = 0;
  std::string unit;
  uint64_t samples = 0;
};

/// Named metrics in a fixed declaration order. Set() on an undeclared
/// name is a harness bug and aborts, so a misspelt metric can never
/// silently report its default.
class MetricSet {
 public:
  void Declare(const std::string& name, const std::string& unit) {
    order_.push_back(name);
    metrics_[name] = Metric{0, unit, 0};
  }

  void Set(const std::string& name, double value, uint64_t samples) {
    auto it = metrics_.find(name);
    if (it == metrics_.end()) {
      std::fprintf(stderr, "ma_benchmark: undeclared metric %s\n", name.c_str());
      std::abort();
    }
    it->second.value = value;
    it->second.samples = samples;
  }

  std::string ToJson() const {
    std::string out = "{";
    for (size_t i = 0; i < order_.size(); ++i) {
      const Metric& m = metrics_.at(order_[i]);
      out += (i == 0 ? "" : ", ") + JsonString(order_[i]) +
             ": {\"value\": " + JsonNumber(m.value) +
             ", \"unit\": " + JsonString(m.unit) +
             ", \"samples\": " + std::to_string(m.samples) + "}";
    }
    return out + "}";
  }

 private:
  std::vector<std::string> order_;
  std::map<std::string, Metric> metrics_;
};

}  // namespace ma::perfbench

#endif  // MA_PERFBENCH_HARNESS_H_
