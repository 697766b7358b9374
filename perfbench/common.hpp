// Shared plumbing of the host wall-clock benchmark: command line, seeded
// randomness, exact percentiles over the benchmark's own samples, the
// metric report, in-memory spans for traced runs, and process gauges.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";  // where a traced run writes its spans
};

// Parses --workload/--seed/--seconds/--trace/--out; throws on bad input.
Args parse_args(int argc, char** argv);

// SplitMix64: the benchmark's only source of randomness, so one seed
// always yields the same inputs.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  // Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[below(i)]);
    }
  }

 private:
  std::uint64_t s_;
};

// Exact order statistics over raw samples (linear interpolation between
// the two nearest ranks). Never bucketed.
double quantile(std::vector<double> v, double q);
double median(const std::vector<double>& v);
double geomean(const std::vector<double>& v);

// One named metric of the final report.
struct Metric {
  double value = 0;
  std::string unit;
  std::uint64_t samples = 0;  // 0 = a count or ratio, not a sample statistic
};

// The report of one run: metrics by name plus the attempt/failure tally.
// An untraced run puts end-to-end metrics in the JSON result line; a traced
// run puts the per-layer metrics there and shows its end-to-end numbers in
// the table only, so the tracing overhead can be read off.
// print() writes a human-readable table to stdout followed by the single
// JSON result line, which must be the last line of standard output.
struct Report {
  bool traced = false;
  std::map<std::string, Metric> metrics;
  // Metrics shown in the table but kept out of the JSON result line.
  std::map<std::string, Metric> extra;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::vector<std::string> notes;

  void e2e(const std::string& name, double value, const std::string& unit,
           std::uint64_t samples = 0) {
    (traced ? extra : metrics)[name] = Metric{value, unit, samples};
  }
  void layer(const std::string& name, double value, const std::string& unit,
             std::uint64_t samples = 0) {
    if (traced) metrics[name] = Metric{value, unit, samples};
  }
  // Shown in the table of every run, never in the result line.
  void info(const std::string& name, double value, const std::string& unit,
            std::uint64_t samples = 0) {
    extra[name] = Metric{value, unit, samples};
  }
  // Records a wrong answer or failed query (first few are kept as notes).
  void fail(const std::string& what);
  void print(const std::string& workload) const;
};

// Spans recorded by the benchmark around its own calls into the runtime:
// name, start, end, parent span and the id shared by one request's spans.
// Kept in memory; write() dumps them as JSON lines when the run ends.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), t0_(Clock::now()) {}
  bool enabled() const { return enabled_; }

  // Reserves a span id, so children can name a parent recorded after them.
  std::uint64_t new_id() { return enabled_ ? ++next_id_ : 0; }
  void record(std::uint64_t id, const char* name, Clock::time_point start,
              Clock::time_point end, std::uint64_t parent = 0,
              std::uint64_t request = 0);
  // new_id() + record(); returns the span id (0 when tracing is off).
  std::uint64_t add(const char* name, Clock::time_point start,
                    Clock::time_point end, std::uint64_t parent = 0,
                    std::uint64_t request = 0) {
    std::uint64_t id = new_id();
    record(id, name, start, end, parent, request);
    return id;
  }
  std::size_t size() const;
  void write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::uint64_t id, parent, request;
    double start_us, end_us;
  };
  bool enabled_;
  Clock::time_point t0_;
  std::atomic<std::uint64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

// Process high-water resident set size, in MB.
double peak_rss_mb();
// Process CPU time (user + system), in seconds.
double process_cpu_s();

}  // namespace perfbench
