#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace perfbench {

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + k);
    std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = v != "0";
    } else if (k == "--out") {
      a.out_dir = v;
    } else {
      throw std::runtime_error("unknown option " + k);
    }
  }
  if (a.workload.empty()) throw std::runtime_error("--workload is required");
  if (!(a.seconds > 0)) throw std::runtime_error("--seconds must be > 0");
  return a;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * double(v.size() - 1);
  std::size_t lo = static_cast<std::size_t>(pos);
  std::size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = pos - double(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += std::log(x);
  return std::exp(s / double(v.size()));
}

void Report::fail(const std::string& what) {
  ++failed;
  if (notes.size() < 8) notes.push_back("FAIL " + what);
}

namespace {

void print_table(const std::map<std::string, Metric>& m) {
  for (const auto& [name, x] : m) {
    if (x.samples != 0) {
      std::printf("  %-34s %14.6g %-12s n=%llu\n", name.c_str(), x.value,
                  x.unit.c_str(), (unsigned long long)x.samples);
    } else {
      std::printf("  %-34s %14.6g %s\n", name.c_str(), x.value,
                  x.unit.c_str());
    }
  }
}

}  // namespace

void Report::print(const std::string& workload) const {
  std::printf("workload %s: attempted %llu, failed %llu\n", workload.c_str(),
              (unsigned long long)attempted, (unsigned long long)failed);
  for (const std::string& n : notes) std::printf("  %s\n", n.c_str());
  print_table(metrics);
  if (!extra.empty()) {
    std::printf("  -- not in the result line --\n");
    print_table(extra);
  }
  std::string json = "{\"correct\": ";
  json += (correct && failed == 0) ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, x] : metrics) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.9g", x.value);
    if (!first) json += ", ";
    first = false;
    json += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
            x.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

void Tracer::record(std::uint64_t id, const char* name,
                    Clock::time_point start, Clock::time_point end,
                    std::uint64_t parent, std::uint64_t request) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, id, parent, request, us_between(t0_, start),
                        us_between(t0_, end)});
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

void Tracer::write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  for (const Span& s : spans_) {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,"
                  "\"request\":%llu,\"start_us\":%.3f,\"end_us\":%.3f}\n",
                  s.name, (unsigned long long)s.id,
                  (unsigned long long)s.parent,
                  (unsigned long long)s.request, s.start_us, s.end_us);
    out << buf;
  }
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // Linux reports KB
}

double process_cpu_s() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) { return double(t.tv_sec) + t.tv_usec / 1e6; };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

}  // namespace perfbench
