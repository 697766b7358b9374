// perfbench: host wall-clock benchmark of the ACE runtime.
//
//   perfbench --workload <seq_corpus|par_threads|serve_read|serve_churn>
//             --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//
// Prints a table of every metric with its unit and sample count, then one
// JSON result line: {"correct", "attempted", "failed", "metrics"}. An
// untraced run reports the end-to-end metrics; a traced run reports the
// per-layer metrics and writes its spans to <dir>/spans_<workload>.jsonl.
// perfbench/README.md explains the workloads and metrics.
#include <cstdio>
#include <stdexcept>

#include "programs.hpp"
#include "workloads.hpp"

namespace perfbench {

const std::vector<LayerMetric>& per_layer_metrics() {
  static const std::vector<LayerMetric> list = [] {
    std::vector<LayerMetric> m = {
        {"parse.consult_us", "us"},
        {"parse.clause_us", "us"},
        {"parse.query_us", "us"},
        {"term.unify16_ns", "ns"},
        {"term.canon_key_us", "us"},
        {"db.lookup_ns", "ns"},
        {"db.write_us", "us"},
        {"db.limbo_peak", "count"},
        {"db.epoch_lag_peak", "count"},
        {"engine.heap_cells_per_res", "cells"},
        {"engine.choicepoints_per_res", "count"},
        {"andp.overhead_vs_seq", "x"},
        {"andp.parcall_frames", "count/query"},
        {"andp.steals", "count/query"},
        {"andp.markers", "count/query"},
        {"runtime.cpu_per_wall", "cpu/wall"},
        {"runtime.useful_share", "fraction"},
        {"orp.copied_cells", "cells/query"},
        {"orp.sharing_sessions", "count/query"},
        {"orp.tree_descents", "count/query"},
        {"orp.takes_per_session", "count"},
        {"tab.hit_rate", "fraction"},
        {"tab.invalidations", "count"},
        {"tab.bytes", "bytes"},
        {"analysis.purity_ms", "ms"},
        {"serve.submit_us", "us"},
        {"serve.pool_hit_rate", "fraction"},
        {"serve.cache_hit_rate", "fraction"},
        {"serve.cache_invalidations", "count"},
        {"serve.cache_evictions", "count"},
        {"serve.busy_share", "fraction"},
        {"stats.scrape_us", "us"},
        {"speedup_4t", "x"},
        {"slo_share", "fraction"},
        {"fail_share", "fraction"},
        {"gen_lag_ms", "ms"},
    };
    for (const char* phase : {"queue", "acquire", "parse", "run", "render"}) {
      for (const char* q : {"p50", "p99"}) {
        m.push_back({std::string("serve.") + phase + "_us." + q, "us"});
      }
    }
    for (const std::string& cls : corpus_classes()) {
      m.push_back({"engine.query_ms." + cls, "ms"});
      m.push_back({"engine.resolutions." + cls, "count"});
      m.push_back({"sim.vt_per_us." + cls, "vt/us"});
    }
    for (const char* cls : {"takeuchi", "fib"}) {
      m.push_back({std::string("andp.wall_1t_ms.") + cls, "ms"});
      m.push_back({std::string("andp.wall_4t_ms.") + cls, "ms"});
    }
    for (const char* cls : {"queens2", "puzzle", "members"}) {
      m.push_back({std::string("orp.wall_1a_ms.") + cls, "ms"});
      m.push_back({std::string("orp.wall_4a_ms.") + cls, "ms"});
    }
    return m;
  }();
  return list;
}

double timed_setup(const std::function<void()>& setup) {
  std::vector<double> s;
  for (int i = 0; i < kSetupReps; ++i) {
    Clock::time_point t0 = Clock::now();
    setup();
    s.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
  }
  return median(s);
}

namespace {

int run(const Args& args) {
  Report report;
  report.traced = args.trace;
  Tracer tracer(args.trace);
  if (args.workload == "seq_corpus") {
    run_seq_corpus(args, report, tracer);
  } else if (args.workload == "par_threads") {
    run_par_threads(args, report, tracer);
  } else if (args.workload == "serve_read") {
    run_serve(args, report, tracer, /*churn=*/false);
  } else if (args.workload == "serve_churn") {
    run_serve(args, report, tracer, /*churn=*/true);
  } else {
    throw std::runtime_error("unknown workload " + args.workload);
  }
  report.e2e("peak_rss_mb", peak_rss_mb(), "MB");
  const double fail_share =
      double(report.failed) /
      double(std::max<std::uint64_t>(report.attempted, 1));
  report.info("fail_share", fail_share, "fraction", report.attempted);
  report.layer("fail_share", fail_share, "fraction", report.attempted);

  if (args.trace) {
    // The result line carries exactly the per-layer set: layers this
    // workload bypasses read 0.
    std::map<std::string, Metric> layers;
    for (const LayerMetric& lm : per_layer_metrics()) {
      Metric m{0, lm.unit, 0};
      auto it = report.metrics.find(lm.name);
      if (it != report.metrics.end()) {
        m.value = it->second.value;
        m.samples = it->second.samples;
        report.metrics.erase(it);
      }
      layers[lm.name] = m;
    }
    if (!report.metrics.empty()) {
      throw std::runtime_error("unlisted layer metric " +
                               report.metrics.begin()->first);
    }
    report.metrics = std::move(layers);
    tracer.write(args.out_dir + "/spans_" + args.workload + ".jsonl");
    report.info("trace.spans", double(tracer.size()), "count");
  }
  report.print(args.workload);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
