// serve_read and serve_churn: open-loop arrivals on a fixed schedule into
// one QueryService with the result cache on. The main thread is the
// generator; with the service's three dispatch threads the process uses
// four threads. Every request is timed from the moment it was due.
#include <algorithm>
#include <deque>
#include <future>
#include <memory>
#include <set>

#include "builtins/lib.hpp"
#include "programs.hpp"
#include "serve/service.hpp"
#include "stats/prometheus.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

// Fixed for both serving workloads. The rate is the highest at which the
// generator keeps a sub-millisecond schedule on the reference host (a
// shared 4-vCPU virtual machine); the limit is the latency from due time a
// request must meet to count in slo_share.
constexpr double kRatePerS = 1000.0;
constexpr double kSloLimitMs = 50.0;
constexpr unsigned kDispatchThreads = 3;
constexpr std::size_t kCacheCapacity = 256;
// Hot requests per read category: 40 in all on serve_read (they fit in
// the cache), 656 on serve_churn (2.5 caches' worth; the tabled and link/2
// categories have fewer distinct forms).
constexpr std::size_t kHotPerCategoryRead = 2;
constexpr std::size_t kHotPerCategoryChurn = 40;
// The generator fell behind in a window when its median lag there exceeds
// this; such windows are left out of the latency percentiles.
constexpr double kMaxGenLagMs = 1.0;
// Slack added to completion estimates in the zero-stale check.
constexpr double kStaleSlackMs = 0.2;
// Width of the windows the latency percentiles are computed over.
constexpr double kWindowMs = 1000.0;

enum class Kind { Static, LinkRead, LrRead, Write };

struct Request {
  Kind kind = Kind::Static;
  Query q;  // expected answers are used for Kind::Static only
  ace::EngineConfig engine;
  int key = -1;        // link/2 key for dynamic reads and writes
  int write_seq = 0;   // writes: 1-based sequence number on `key`
  int new_value = 0;   // writes: value after the write
};

struct Sent {
  Request req;
  Clock::time_point due, before, after;
  ace::QueryService::Ticket ticket;
  ace::QueryResult result;
  double service_ms = 0;  // admit -> respond, measured by the service
  double from_due_ms = 0;
  // ms after the schedule start: before submit(), and an upper bound on
  // when the response was sent (after submit() returned + service time).
  double submitted_ms = 0;
  double done_ms = 0;
};

ace::EngineConfig serve_engine(int which) {
  ace::EngineConfig c;
  if (which == 1) {
    c.mode = ace::EngineMode::Andp;
    c.agents = 4;
    c.lpco = c.shallow = c.pdo = true;
  } else if (which == 2) {
    c.mode = ace::EngineMode::Orp;
    c.agents = 4;
    c.lao = true;
  }
  return c;
}

// The read categories of the serving mix, sent in equal numbers: each
// corpus class on the seq engine and on its parallel engine (andp, or orp
// for the search classes), the two tabled closures, and the two reads of
// the dynamic link/2 table.
constexpr int kCategories = 20;

Request make_read(int category, std::size_t variant, Rng& rng) {
  static const std::vector<std::string> classes = {
      "nrev", "takeuchi", "fib", "queens2", "matrix_bt", "members",
      "pderiv_bt"};
  Request r;
  if (category < 14) {
    const std::string& cls = classes[category / 2];
    r.q = served_query(cls, variant, rng);
    r.engine = serve_engine(category % 2 == 0 ? 0
                            : is_search_class(cls) ? 2
                                                   : 1);
  } else if (category < 18) {
    int node = 1 + static_cast<int>(variant % kGraphNodes);
    r.q = category % 2 == 0 ? tc_query(node) : path_query(node);
  } else {
    r.key = static_cast<int>(variant % kLinkKeys);
    r.kind = category == 18 ? Kind::LinkRead : Kind::LrRead;
    r.q.cls = r.kind == Kind::LinkRead ? "link" : "lr";
    r.q.text = r.kind == Kind::LinkRead ? link_read_text(r.key)
                                        : lr_read_text(r.key);
  }
  return r;
}

// Per category, up to `per` distinct requests that are sent again and
// again (fewer where the category has fewer distinct forms).
std::vector<std::vector<Request>> make_hot_pools(Rng& rng, std::size_t per) {
  std::vector<std::vector<Request>> pools(kCategories);
  for (int c = 0; c < kCategories; ++c) {
    std::set<std::string> seen;
    for (std::size_t v = 0; pools[c].size() < per && v < 50 * per; ++v) {
      Request r = make_read(c, v, rng);
      if (seen.insert(r.q.text).second) pools[c].push_back(std::move(r));
    }
  }
  return pools;
}

// One window's worth of request slots. Every window sends the same
// multiset of slots (a fixed share of writes, hot and fresh reads per
// category) in a seed-shuffled order, so windows are comparable.
struct Slot {
  bool write = false;
  bool hot = false;
  int category = 0;
  std::size_t variant = 0;  // fresh reads: row of the size table
};

std::vector<Slot> window_slots(std::size_t n, bool churn) {
  std::vector<Slot> slots;
  std::size_t writes = churn ? n / 8 : 0;
  for (std::size_t i = 0; i < writes; ++i) slots.push_back({true});
  for (std::size_t j = 0; j + writes < n; ++j) {
    slots.push_back({false, j % 2 == 0,
                     static_cast<int>((j / 2) % kCategories),
                     j / 2 / kCategories});
  }
  return slots;
}

ace::QueryRequest to_request(const Request& r) {
  return ace::QueryRequestBuilder(r.q.text).engine(r.engine).build();
}

double service_ms(const ace::QueryResult& res) {
  return res.phases.present ? double(res.phases.total_ns()) / 1e6
                            : double(res.latency.count()) / 1e3;
}

// Per-key history of link/2 writes for the zero-stale check.
struct WriteRecord {
  int value = 0;
  double submitted_ms = 0;  // before submit(), ms after the schedule start
  double done_ms = 0;       // completion estimate (upper bound)
};

// The link/2 values a read may observe: every state from the last write
// known complete before the read was submitted up to the last write
// submitted before the read completed, including the mid-write state in
// which the old and the new fact are both present.
std::vector<std::set<int>> allowed_states(
    const std::vector<WriteRecord>& history, double read_submitted_ms,
    double read_done_ms) {
  std::size_t lo = 0, hi = 0;
  for (std::size_t m = 1; m < history.size(); ++m) {
    if (history[m].done_ms >= 0 && history[m].done_ms < read_submitted_ms) {
      lo = m;
    }
    if (history[m].submitted_ms < read_done_ms) hi = m;
  }
  std::vector<std::set<int>> states;
  for (std::size_t m = lo; m <= hi; ++m) {
    states.push_back({history[m].value});
    if (m > lo) states.push_back({history[m - 1].value, history[m].value});
  }
  return states;
}

bool check_result(const Sent& s,
                  const std::vector<std::vector<WriteRecord>>& writes,
                  std::string* why) {
  const ace::QueryResult& res = s.result;
  if (s.req.kind == Kind::Write) {
    if (res.outcome != ace::QueryOutcome::Success) {
      *why = std::string("write ") + ace::query_outcome_name(res.outcome);
      return false;
    }
    return true;
  }
  if (!res.completed()) {
    *why = std::string(ace::query_outcome_name(res.outcome)) + " " +
           res.error;
    return false;
  }
  if (s.req.kind == Kind::Static) {
    if (answers_match(s.req.q, res.solutions)) return true;
    *why = std::to_string(res.solutions.size()) + " solutions, " +
           std::to_string(s.req.q.expected.size()) + " expected";
    return false;
  }
  std::vector<std::string> got = res.solutions;
  std::sort(got.begin(), got.end());
  for (const std::set<int>& state :
       allowed_states(writes[s.req.key], s.submitted_ms - kStaleSlackMs,
                      s.done_ms + kStaleSlackMs)) {
    std::vector<std::string> want = s.req.kind == Kind::LinkRead
                                        ? link_answers(state)
                                        : lr_answers(state);
    if (got == want) return true;
  }
  *why = "stale or wrong dynamic read (" + std::to_string(got.size()) +
         " solutions)";
  return false;
}

// Quantiles of one field over a set of samples.
void layer_p50_p99(Report& report, const std::string& name,
                   const std::vector<double>& v) {
  report.layer(name + ".p50", quantile(v, 0.5), "us", v.size());
  report.layer(name + ".p99", quantile(v, 0.99), "us", v.size());
}

}  // namespace

void run_serve(const Args& args, Report& report, Tracer& tracer, bool churn) {
  Rng rng(args.seed);
  const std::vector<std::vector<Request>> hot = make_hot_pools(
      rng, churn ? kHotPerCategoryChurn : kHotPerCategoryRead);

  std::unique_ptr<ace::Database> db;
  std::unique_ptr<ace::QueryService> service;
  std::vector<std::vector<WriteRecord>> writes(kLinkKeys);
  for (int k = 0; k < kLinkKeys; ++k) writes[k].push_back({initial_link(k)});

  double setup_s = timed_setup([&] {
    service.reset();
    db = std::make_unique<ace::Database>();
    ace::load_library(*db);
    db->consult(program_text());
    ace::ServiceOptions opts;
    opts.dispatch_threads = kDispatchThreads;
    opts.queue_capacity = 1 << 14;
    opts.result_cache_capacity = kCacheCapacity;
    service = std::make_unique<ace::QueryService>(*db, opts);
    // Warm-up: the hot set once (filling the caches and the session
    // pools), checked against the initial link/2 state.
    std::vector<Sent> warm;
    for (const std::vector<Request>& pool : hot) {
      for (const Request& r : pool) {
        Sent s;
        s.req = r;
        s.ticket = service->submit(to_request(r));
        warm.push_back(std::move(s));
      }
    }
    for (Sent& s : warm) {
      s.result = s.ticket.result.get();
      std::string why;
      ++report.attempted;
      if (!check_result(s, writes, &why)) {
        report.fail(s.req.q.text + ": " + why);
      }
    }
  });

  const ace::tab::TableSpace::Stats tab0 = service->tables().stats();
  const ace::serve::ResultCache::Stats cache0 =
      service->result_cache()->stats();
  const ace::ServeMetricsSnapshot snap0 = service->metrics_snapshot();

  // ---- The open-loop schedule -------------------------------------------
  // Responses are collected in submission order as they become ready, so
  // only the in-flight requests are held. A read is checked when it is
  // collected: every write it could have seen was submitted by then, and
  // every write that finished before it was sent was collected before it.
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / kRatePerS));
  const std::size_t total =
      static_cast<std::size_t>(args.seconds * kRatePerS);
  std::deque<Sent> inflight;
  std::vector<int> current(kLinkKeys);
  for (int k = 0; k < kLinkKeys; ++k) current[k] = initial_link(k);
  std::vector<double> scrape_us;
  std::uint64_t limbo_peak = 0, epoch_lag_peak = 0;
  int writes_sent = 0;

  std::vector<double> latencies, lag_ms, write_us, submit_us;
  std::vector<double> queue_us, acquire_us, parse_us, run_us, render_us;
  std::vector<std::string> probe_texts;
  std::vector<std::size_t> window_of;  // per request: its one-second window
  std::uint64_t resolutions = 0, answered = 0, in_slo = 0, collected = 0;
  double busy_ns = 0, last_done_ms = 0;
  // Sized up front: growing a large vector inside the schedule would unmap
  // its old block and stall the generator.
  for (std::vector<double>* v : {&latencies, &lag_ms, &submit_us, &queue_us,
                                 &acquire_us, &parse_us, &run_us,
                                 &render_us, &write_us}) {
    v->reserve(total);
  }
  window_of.reserve(total);

  const Clock::time_point t0 = Clock::now();
  auto ms_since_t0 = [&](Clock::time_point t) { return ms_between(t0, t); };
  auto finish = [&](Sent& s) {
    const std::uint64_t req_id = ++collected;
    s.result = s.ticket.result.get();
    s.service_ms = service_ms(s.result);
    s.from_due_ms = ms_between(s.due, s.before) + s.service_ms;
    s.submitted_ms = ms_since_t0(s.before);
    s.done_ms = ms_since_t0(s.after) + s.service_ms;
    last_done_ms = std::max(last_done_ms, s.done_ms);
    if (s.req.kind == Kind::Write) {
      writes[s.req.key][s.req.write_seq].done_ms = s.done_ms;
      write_us.push_back(s.service_ms * 1e3);
    }
    ++report.attempted;
    std::string why;
    const bool ok = check_result(s, writes, &why);
    if (!ok) report.fail(s.req.q.text + ": " + why);
    latencies.push_back(s.from_due_ms);
    lag_ms.push_back(ms_between(s.due, s.before));
    window_of.push_back(static_cast<std::size_t>(ms_between(t0, s.due) /
                                                 kWindowMs));
    submit_us.push_back(us_between(s.before, s.after));
    resolutions += s.result.stats.resolutions;
    if (ok) ++answered;
    if (ok && s.from_due_ms <= kSloLimitMs) ++in_slo;
    if (req_id % 7 == 0 && probe_texts.size() < 512) {
      probe_texts.push_back(s.req.q.text);
    }
    const ace::PhaseNanos& ph = s.result.phases;
    queue_us.push_back(ph.queue_ns / 1e3);
    acquire_us.push_back(ph.acquire_ns / 1e3);
    parse_us.push_back(ph.parse_ns / 1e3);
    run_us.push_back(ph.run_ns / 1e3);
    render_us.push_back(ph.render_ns / 1e3);
    busy_ns += double(ph.total_ns() - ph.queue_ns);
    if (tracer.enabled()) {
      const std::uint64_t root = tracer.new_id();
      tracer.add("serve.submit", s.before, s.after, root, req_id);
      Clock::time_point t = s.before;
      auto phase = [&](const char* name, std::uint64_t ns) {
        Clock::time_point e = t + std::chrono::nanoseconds(ns);
        tracer.add(name, t, e, root, req_id);
        t = e;
      };
      phase("serve.queue", ph.queue_ns);
      phase("serve.acquire", ph.acquire_ns);
      phase("serve.parse", ph.parse_ns);
      phase("serve.run", ph.run_ns);
      phase("serve.render", ph.render_ns);
      tracer.record(root,
                    s.req.kind == Kind::Write ? "db.write" : "serve.request",
                    s.due, t, 0, req_id);
    }
  };
  // Collects finished responses from the front; with `block`, waits for
  // the front one.
  auto collect = [&](bool block) {
    while (!inflight.empty()) {
      Sent& s = inflight.front();
      if (!block && s.ticket.result.wait_for(std::chrono::seconds(0)) !=
                        std::future_status::ready) {
        return;
      }
      finish(s);
      inflight.pop_front();
      if (block) return;
    }
  };

  Clock::time_point next_scrape = t0 + std::chrono::seconds(1);
  const std::size_t per_window =
      static_cast<std::size_t>(kRatePerS * kWindowMs / 1000.0);
  std::vector<Slot> slots = window_slots(per_window, churn);
  for (std::size_t i = 0; i < total; ++i) {
    if (i % per_window == 0) rng.shuffle(slots);
    const Slot& slot = slots[i % per_window];
    Sent s;
    if (slot.write) {
      Request w;
      w.kind = Kind::Write;
      w.key = writes_sent++ % kLinkKeys;
      int old_value = current[w.key];
      do {
        w.new_value = 1 + static_cast<int>(rng.below(kGraphNodes));
      } while (w.new_value == old_value);
      w.q.cls = "write";
      w.q.text = link_write_text(w.key, old_value, w.new_value);
      current[w.key] = w.new_value;
      w.write_seq = static_cast<int>(writes[w.key].size());
      s.req = std::move(w);
    } else if (slot.hot) {
      const std::vector<Request>& pool = hot[slot.category];
      s.req = pool[rng.below(pool.size())];
    } else {
      s.req = make_read(slot.category, slot.variant, rng);
    }
    s.due = t0 + interval * static_cast<long>(i);
    // Spin (collecting responses) rather than sleep until the request is
    // due: a sleeping thread on this kind of virtual machine can wake
    // milliseconds late, which would show as generator lag.
    do {
      collect(false);
    } while (Clock::now() < s.due);
    if (s.req.kind == Kind::Write) {
      // Writes to one key are kept in order: the previous one must have
      // answered (it long has at this rate; waiting shows as lag).
      while (writes[s.req.key].back().done_ms < 0) collect(true);
    }
    if (Clock::now() >= next_scrape) {
      Clock::time_point a = Clock::now();
      ace::ServeMetricsSnapshot snap = service->metrics_snapshot();
      std::size_t bytes = snap.to_json().size() +
                          ace::prometheus_text(snap).size();
      Clock::time_point b = Clock::now();
      scrape_us.push_back(us_between(a, b));
      tracer.add("stats.scrape", a, b);
      limbo_peak = std::max(limbo_peak, snap.db_limbo_depth);
      epoch_lag_peak = std::max(epoch_lag_peak, snap.db_epoch_lag);
      if (bytes == 0) report.fail("empty metrics scrape");
      next_scrape += std::chrono::seconds(1);
    }
    s.before = Clock::now();
    s.ticket = service->submit(to_request(s.req));
    s.after = Clock::now();
    if (s.req.kind == Kind::Write) {
      writes[s.req.key].push_back(
          {s.req.new_value, ms_since_t0(s.before), -1.0});
    }
    inflight.push_back(std::move(s));
  }
  while (!inflight.empty()) collect(true);
  const double wall_s = last_done_ms / 1000.0;
  const std::size_t sent = collected;

  // Latency percentiles per one-second window (kRatePerS samples, so the
  // p99 has ten beyond it), reported as the median over the windows in
  // which the generator kept up: the percentile of a typical second. Every
  // window sends the same requests, so a burst of host interference moves
  // a few windows, not the median.
  const std::size_t nwin = window_of.empty() ? 0 : window_of.back() + 1;
  std::vector<std::vector<double>> win_lat(nwin), win_lag(nwin);
  for (std::size_t i = 0; i < latencies.size(); ++i) {
    win_lat[window_of[i]].push_back(latencies[i]);
    win_lag[window_of[i]].push_back(lag_ms[i]);
  }
  std::vector<double> p50s, p90s, p99s;
  std::size_t kept = 0;
  for (std::size_t w = 0; w < nwin; ++w) {
    if (win_lat[w].size() < per_window ||
        quantile(win_lag[w], 0.5) > kMaxGenLagMs) {
      continue;  // partial window, or the generator fell behind
    }
    kept += win_lat[w].size();
    p50s.push_back(quantile(win_lat[w], 0.50));
    p90s.push_back(quantile(win_lat[w], 0.90));
    p99s.push_back(quantile(win_lat[w], 0.99));
  }
  const double gen_lag_p99 = quantile(lag_ms, 0.99);
  if (p99s.size() * 4 < nwin) {
    report.correct = false;
    report.notes.push_back("INVALID: the generator fell behind in " +
                           std::to_string(nwin - p99s.size()) + " of " +
                           std::to_string(nwin) + " windows");
  }

  // The open-loop schedule fixes the wall-clock rates (they only show that
  // the schedule was kept), so lips and throughput are taken over the
  // dispatch threads' busy time: the rates one dispatch thread sustains.
  const double busy_s = busy_ns / 1e9;
  report.e2e("setup_s", setup_s, "s");
  report.info("lips", double(resolutions) / busy_s, "1/s", sent);
  report.info("throughput_qps", double(answered) / busy_s, "1/s", sent);
  report.info("lips_wall", double(resolutions) / wall_s, "1/s", sent);
  report.info("throughput_wall_qps", double(answered) / wall_s, "1/s", sent);
  report.info("latency_p50_ms", median(p50s), "ms", kept);
  report.info("latency_p90_ms", median(p90s), "ms", kept);
  report.info("latency_p99_ms", median(p99s), "ms", kept);
  report.info("windows_kept", double(p99s.size()), "count", nwin);
  report.info("latency_p99_all_ms", quantile(latencies, 0.99), "ms", sent);
  const double slo_share = double(in_slo) / double(sent);
  const double busy_share =
      busy_ns / 1e9 / (wall_s * double(kDispatchThreads));
  report.info("slo_share", slo_share, "fraction", sent);
  report.info("gen_lag_ms", gen_lag_p99, "ms", lag_ms.size());
  report.info("gen_lag_max_ms", quantile(lag_ms, 1.0), "ms", lag_ms.size());
  report.info("serve.busy_share", busy_share, "fraction");

  report.layer("slo_share", slo_share, "fraction", sent);
  report.layer("gen_lag_ms", gen_lag_p99, "ms", lag_ms.size());
  report.layer("serve.busy_share", busy_share, "fraction");
  report.layer("serve.submit_us", median(submit_us), "us", submit_us.size());
  layer_p50_p99(report, "serve.queue_us", queue_us);
  layer_p50_p99(report, "serve.acquire_us", acquire_us);
  layer_p50_p99(report, "serve.parse_us", parse_us);
  layer_p50_p99(report, "serve.run_us", run_us);
  layer_p50_p99(report, "serve.render_us", render_us);

  const ace::ServeMetricsSnapshot snap1 = service->metrics_snapshot();
  const double pool_hits = double(snap1.pool_hits - snap0.pool_hits);
  const double pool_all =
      pool_hits + double(snap1.pool_misses - snap0.pool_misses);
  report.layer("serve.pool_hit_rate", pool_all == 0 ? 0 : pool_hits / pool_all,
               "fraction");
  const ace::serve::ResultCache::Stats cache1 =
      service->result_cache()->stats();
  const double c_hits = double(cache1.hits - cache0.hits);
  const double c_all = c_hits + double(cache1.misses - cache0.misses);
  report.layer("serve.cache_hit_rate", c_all == 0 ? 0 : c_hits / c_all,
               "fraction");
  report.layer("serve.cache_invalidations",
               double(cache1.invalidations - cache0.invalidations), "count");
  report.layer("serve.cache_evictions",
               double(cache1.evictions - cache0.evictions), "count");
  const ace::tab::TableSpace::Stats tab1 = service->tables().stats();
  const double t_hits = double(tab1.hits - tab0.hits);
  const double t_all = t_hits + double(tab1.misses - tab0.misses);
  report.layer("tab.hit_rate", t_all == 0 ? 0 : t_hits / t_all, "fraction");
  report.layer("tab.invalidations",
               double(tab1.invalidations - tab0.invalidations), "count");
  report.layer("tab.bytes", double(tab1.bytes), "bytes");
  report.layer("db.write_us", median(write_us), "us", write_us.size());
  report.layer("db.limbo_peak", double(limbo_peak), "count");
  report.layer("db.epoch_lag_peak", double(epoch_lag_peak), "count");
  report.layer("stats.scrape_us", median(scrape_us), "us", scrape_us.size());

  if (tracer.enabled()) {
    service->shutdown();
    run_probes(report, tracer, probe_texts);
  }
}

}  // namespace perfbench
