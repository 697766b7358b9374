// seq_corpus and par_threads: one client calling Engine::solve in a closed
// loop over seed-shuffled cycles of corpus queries. A run always finishes
// the cycle it is in, so every run sees the same query mix.
#include <algorithm>
#include <map>
#include <memory>
#include <numeric>

#include "builtins/lib.hpp"
#include "engine/engine.hpp"
#include "programs.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

std::unique_ptr<ace::Database> load_program() {
  auto db = std::make_unique<ace::Database>();
  ace::load_library(*db);
  db->consult(program_text());
  return db;
}

// One executed query with what the per-layer metrics need.
struct Sample {
  std::string cls;
  int level = 0;
  int engine = 0;  // index into the workload's engine list
  double ms = 0;
  ace::Counters stats;
  std::uint64_t virtual_time = 0;
};

// Solves `q` on `eng`, times the call and checks the answer.
Sample solve_checked(ace::Engine& eng, const Query& q, Report& report) {
  Sample s;
  s.cls = q.cls;
  ++report.attempted;
  try {
    Clock::time_point t0 = Clock::now();
    ace::SolveResult r = eng.solve(q.text);
    s.ms = ms_between(t0, Clock::now());
    s.stats = r.stats;
    s.virtual_time = r.virtual_time;
    if (r.stop != ace::StopCause::None) {
      report.fail(q.text + " stopped: " + ace::stop_cause_name(r.stop));
    } else if (!answers_match(q, r.solutions)) {
      report.fail(q.text + " on " + eng.config().describe() + ": " +
                  std::to_string(r.solutions.size()) + " solutions, " +
                  std::to_string(q.expected.size()) + " expected");
    }
  } catch (const std::exception& e) {
    report.fail(q.text + " threw: " + e.what());
  }
  return s;
}

struct Item {
  std::string cls;
  int level = 0;
  int engine = 0;
};

// Every run of one item over the timed window.
struct ItemRuns {
  std::vector<double> ms;
  std::uint64_t resolutions = 0;  // summed over the runs
};

// Runs whole cycles (every item once, in a seed-shuffled order) until
// `seconds` have passed; returns the runs per item, indexed like `items`.
// `on_sample` sees every query.
template <typename OnSample>
std::vector<ItemRuns> run_cycles(
    const Args& args, Rng& rng, const std::vector<Item>& items,
    std::vector<std::unique_ptr<ace::Engine>>& engines, Report& report,
    Tracer& tracer, OnSample&& on_sample) {
  Clock::time_point end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(args.seconds));
  std::vector<std::size_t> order(items.size());
  std::iota(order.begin(), order.end(), 0);
  std::vector<ItemRuns> runs(items.size());
  std::uint64_t request = 0;
  while (Clock::now() < end) {
    rng.shuffle(order);
    std::uint64_t cycle_id = tracer.new_id();
    Clock::time_point cycle_start = Clock::now();
    for (std::size_t i : order) {
      const Item& it = items[i];
      Query q = corpus_query(it.cls, it.level, rng);
      Clock::time_point t0 = Clock::now();
      Sample s = solve_checked(*engines[it.engine], q, report);
      tracer.add("engine.solve", t0, Clock::now(), cycle_id, ++request);
      s.level = it.level;
      s.engine = it.engine;
      runs[i].ms.push_back(s.ms);
      runs[i].resolutions += s.stats.resolutions;
      on_sample(std::move(s));
    }
    tracer.record(cycle_id, "cycle", cycle_start, Clock::now());
  }
  return runs;
}

// End-to-end metrics of the query mix. lips and throughput are those of
// one cycle at each query's median wall time over the run, so a burst of
// host interference moves them less than a whole-run mean would; the
// whole-run figure is printed next to them. The latency percentiles are
// over every query run in the window.
void report_engine_e2e(Report& report, double setup_s,
                       const std::vector<ItemRuns>& runs) {
  std::vector<double> all;
  double cycle_ms = 0, cycle_res = 0, all_ms = 0, all_res = 0;
  for (const ItemRuns& r : runs) {
    cycle_ms += median(r.ms);
    cycle_res += double(r.resolutions) / double(r.ms.size());
    for (double ms : r.ms) all_ms += ms;
    all_res += double(r.resolutions);
    all.insert(all.end(), r.ms.begin(), r.ms.end());
  }
  const std::uint64_t n = all.size();
  report.e2e("setup_s", setup_s, "s");
  report.info("lips", cycle_res / (cycle_ms / 1e3), "1/s", n);
  report.info("throughput_qps", double(runs.size()) / (cycle_ms / 1e3),
              "1/s", n);
  report.info("latency_p50_ms", quantile(all, 0.50), "ms", n);
  report.info("latency_p90_ms", quantile(all, 0.90), "ms", n);
  report.info("latency_p99_ms", quantile(all, 0.99), "ms", n);
  report.info("cycles", double(n / std::max<std::size_t>(runs.size(), 1)),
              "count");
  report.info("lips_whole_run", all_res / (all_ms / 1e3), "1/s", n);
}

double ratio(double a, double b) { return b == 0 ? 0 : a / b; }

// puzzle has a single size: seq_corpus runs it at level 2 only.
bool has_level(const std::string& cls, int level) {
  return cls != "puzzle" || level == 2;
}

// Goal texts of one cycle, the input of the parse and canon-key probes.
std::vector<std::string> item_texts(const std::vector<Item>& items,
                                    std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> texts;
  for (const Item& it : items) {
    texts.push_back(corpus_query(it.cls, it.level, rng).text);
  }
  return texts;
}

}  // namespace

void run_seq_corpus(const Args& args, Report& report, Tracer& tracer) {
  std::vector<Item> items;
  for (const std::string& cls : corpus_classes()) {
    for (int level = 1; level <= 2; ++level) {
      if (has_level(cls, level)) items.push_back({cls, level, 0});
    }
  }
  std::unique_ptr<ace::Database> db;
  std::vector<std::unique_ptr<ace::Engine>> engines;
  double setup_s = timed_setup([&] {
    engines.clear();
    db = load_program();
    engines.push_back(std::make_unique<ace::Engine>(*db));
    Rng warm(args.seed ^ 0x77a3);
    for (const Item& it : items) {
      solve_checked(*engines[0], corpus_query(it.cls, it.level, warm),
                    report);
    }
  });

  Rng rng(args.seed);
  std::uint64_t resolutions = 0, heap_cells = 0, choicepoints = 0;
  std::map<std::string, std::vector<double>> top_ms;  // level-2 latencies
  std::map<std::string, std::uint64_t> top_res;       // level-2 resolutions
  std::map<std::string, std::pair<double, double>> vt_us;  // class -> vt, us
  std::vector<ItemRuns> runs = run_cycles(args, rng, items, engines, report,
                                          tracer, [&](Sample s) {
    resolutions += s.stats.resolutions;
    heap_cells += s.stats.heap_cells;
    choicepoints += s.stats.choicepoints;
    if (s.level == 2) {
      top_ms[s.cls].push_back(s.ms);
      top_res[s.cls] = s.stats.resolutions;
    }
    vt_us[s.cls].first += double(s.virtual_time);
    vt_us[s.cls].second += s.ms * 1000.0;
  });

  report_engine_e2e(report, setup_s, runs);
  for (const std::string& cls : corpus_classes()) {
    report.layer("engine.query_ms." + cls, median(top_ms[cls]), "ms",
                 top_ms[cls].size());
    report.layer("engine.resolutions." + cls, double(top_res[cls]), "count");
    report.layer("sim.vt_per_us." + cls,
                 ratio(vt_us[cls].first, vt_us[cls].second), "vt/us");
  }
  report.layer("engine.heap_cells_per_res", ratio(heap_cells, resolutions),
               "cells");
  report.layer("engine.choicepoints_per_res",
               ratio(choicepoints, resolutions), "count");
  if (tracer.enabled()) {
    run_probes(report, tracer, item_texts(items, args.seed));
  }
}

void run_par_threads(const Args& args, Report& report, Tracer& tracer) {
  // Engines: andp with lpco+shallow+pdo on real threads at 1 and 4 agents,
  // orp with lao at 1 and 4 agents (virtual-time scheduling on one thread:
  // orp has no real-thread mode), and seq as the reference for andp's
  // one-agent overhead.
  enum : int { kAndp1, kAndp4, kOrp1, kOrp4, kSeq };
  std::vector<ace::EngineConfig> configs(5);
  for (int e : {kAndp1, kAndp4}) {
    configs[e].mode = ace::EngineMode::Andp;
    configs[e].agents = e == kAndp1 ? 1 : 4;
    configs[e].lpco = configs[e].shallow = configs[e].pdo = true;
    configs[e].use_threads = true;
  }
  for (int e : {kOrp1, kOrp4}) {
    configs[e].mode = ace::EngineMode::Orp;
    configs[e].agents = e == kOrp1 ? 1 : 4;
    configs[e].lao = true;
  }
  // One cycle: 17 queries, about 70 ms, so every query runs some 250 times
  // in a 20 s run. matrix_bt and pderiv_bt are left out: on real threads
  // their backtracking into a parcall aborts the process now and then
  // ("unwinding a slot that is still executing", engine/backtrack.cpp);
  // seq_corpus runs them.
  const std::vector<Item> items = {
      {"takeuchi", 0, kAndp1}, {"takeuchi", 0, kAndp4},
      {"takeuchi", 1, kAndp1}, {"takeuchi", 1, kAndp4},
      {"fib", 1, kAndp1},      {"fib", 1, kAndp4},
      {"fib", 2, kAndp1},      {"fib", 2, kAndp4},
      {"queens2", 0, kOrp1},   {"queens2", 0, kOrp4},
      {"queens2", 1, kOrp1},   {"queens2", 1, kOrp4},
      {"members", 1, kOrp1},   {"members", 1, kOrp4},
      {"puzzle", 1, kOrp1},    {"puzzle", 1, kOrp4},
      {"takeuchi", 1, kSeq},
  };

  std::unique_ptr<ace::Database> db;
  std::vector<std::unique_ptr<ace::Engine>> engines;
  double setup_s = timed_setup([&] {
    engines.clear();
    db = load_program();
    for (const ace::EngineConfig& c : configs) {
      engines.push_back(std::make_unique<ace::Engine>(*db, c));
    }
    Rng warm(args.seed ^ 0x77a3);
    for (const Item& it : items) {
      solve_checked(*engines[it.engine], corpus_query(it.cls, it.level, warm),
                    report);
    }
  });

  Rng rng(args.seed);
  // (class, level, engine) -> wall samples.
  std::map<std::tuple<std::string, int, int>, std::vector<double>> walls;
  ace::Counters andp4, orp4;
  std::uint64_t andp4_n = 0, orp4_n = 0;
  std::vector<ItemRuns> runs =
      run_cycles(args, rng, items, engines, report, tracer, [&](Sample s) {
        walls[{s.cls, s.level, s.engine}].push_back(s.ms);
        if (s.engine == kAndp4) {
          andp4.add(s.stats);
          ++andp4_n;
        } else if (s.engine == kOrp4) {
          orp4.add(s.stats);
          ++orp4_n;
        }
      });
  report_engine_e2e(report, setup_s, runs);

  // Speedups: median 1-agent wall / median 4-agent wall per (class, size);
  // per-layer walls at the largest size of each class.
  std::vector<double> all_speedups, andp_speedups;
  for (const Item& it : items) {
    if (it.engine != kAndp1 && it.engine != kOrp1) continue;
    const bool andp = it.engine == kAndp1;
    const std::vector<double>& w1 = walls[{it.cls, it.level, it.engine}];
    const std::vector<double>& w4 = walls[{it.cls, it.level, it.engine + 1}];
    const double m1 = median(w1), m4 = median(w4);
    all_speedups.push_back(m1 / m4);
    if (andp) andp_speedups.push_back(m1 / m4);
    const std::string prefix = andp ? "andp.wall_" : "orp.wall_";
    report.layer(prefix + (andp ? "1t_ms." : "1a_ms.") + it.cls, m1, "ms",
                 w1.size());
    report.layer(prefix + (andp ? "4t_ms." : "4a_ms.") + it.cls, m4, "ms",
                 w4.size());
  }
  const double speedup = geomean(all_speedups);
  report.info("speedup_4t", speedup, "x", all_speedups.size());
  report.layer("speedup_4t", speedup, "x", all_speedups.size());
  report.layer("andp.overhead_vs_seq",
               median(walls[{"takeuchi", 1, kAndp1}]) /
                   median(walls[{"takeuchi", 1, kSeq}]),
               "x");

  const double n4 = double(std::max<std::uint64_t>(andp4_n, 1));
  report.layer("andp.parcall_frames", double(andp4.parcall_frames) / n4,
               "count/query");
  report.layer("andp.steals", double(andp4.steals) / n4, "count/query");
  report.layer("andp.markers",
               double(andp4.input_markers + andp4.end_markers) / n4,
               "count/query");
  const double o4 = double(std::max<std::uint64_t>(orp4_n, 1));
  report.layer("orp.copied_cells", double(orp4.copied_cells) / o4,
               "cells/query");
  report.layer("orp.sharing_sessions", double(orp4.sharing_sessions) / o4,
               "count/query");
  report.layer("orp.tree_descents", double(orp4.tree_descents) / o4,
               "count/query");
  report.layer("orp.takes_per_session",
               ratio(double(orp4.public_node_takes),
                     double(orp4.sharing_sessions)),
               "count");

  if (tracer.enabled()) {
    // Process CPU over wall on extra 4-agent andp runs after the window.
    double cpu_s = 0, wall_s = 0;
    Rng cpu_rng(args.seed ^ 0xc0u);
    for (const Item& it : items) {
      if (it.engine != kAndp4) continue;
      Query q = corpus_query(it.cls, it.level, cpu_rng);
      for (int rep = 0; rep < 5; ++rep) {
        const double c0 = process_cpu_s();
        const Clock::time_point t0 = Clock::now();
        solve_checked(*engines[kAndp4], q, report);
        wall_s += std::chrono::duration<double>(Clock::now() - t0).count();
        cpu_s += process_cpu_s() - c0;
      }
    }
    const double cpu_per_wall = ratio(cpu_s, wall_s);
    report.layer("runtime.cpu_per_wall", cpu_per_wall, "cpu/wall");
    report.layer("runtime.useful_share",
                 ratio(geomean(andp_speedups), cpu_per_wall), "fraction");
    run_probes(report, tracer, item_texts(items, args.seed));
  }
}

}  // namespace perfbench
