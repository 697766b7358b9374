// The four workloads and the kernel probes. Each run_* function sets up
// (timing its set-up several times), measures for args.seconds, checks
// every answer and fills the report. With args.trace set it records spans
// and fills the per-layer metrics instead of the end-to-end ones.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

void run_seq_corpus(const Args& args, Report& report, Tracer& tracer);
void run_par_threads(const Args& args, Report& report, Tracer& tracer);
void run_serve(const Args& args, Report& report, Tracer& tracer, bool churn);

// Kernel probes for the traced run: consult, clause and query parse,
// 16-argument unify, clause lookup, canonical keys, purity analysis.
// `queries` are goal texts the workload sent (parse and canon-key inputs).
void run_probes(Report& report, Tracer& tracer,
                const std::vector<std::string>& queries);

// Every per-layer metric name with its unit, in report order. A traced run
// reports all of them; a layer a workload bypasses reads 0.
struct LayerMetric {
  std::string name;
  std::string unit;
};
const std::vector<LayerMetric>& per_layer_metrics();

// Runs `setup` kSetupReps times and returns the median wall seconds; the
// state built by the last repetition is what the workload then measures.
constexpr int kSetupReps = 11;
double timed_setup(const std::function<void()>& setup);

}  // namespace perfbench
