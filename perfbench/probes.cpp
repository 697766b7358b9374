// Kernel probes of the traced run: each times one public entry point of a
// layer in a tight loop, reporting the median of five batches.
#include <memory>

#include "analysis/purity.hpp"
#include "builtins/lib.hpp"
#include "db/database.hpp"
#include "parse/parser.hpp"
#include "programs.hpp"
#include "term/canon.hpp"
#include "term/unify.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

// Median over five batches of `fn(batch)`'s wall time divided by `per`,
// in the unit `scale` converts seconds to. One span per batch.
template <typename Fn>
double probe(Tracer& tracer, const char* span, double per, double scale,
             Fn&& fn) {
  std::vector<double> v;
  for (int batch = 0; batch < 5; ++batch) {
    Clock::time_point t0 = Clock::now();
    fn();
    Clock::time_point t1 = Clock::now();
    tracer.add(span, t0, t1);
    v.push_back(std::chrono::duration<double>(t1 - t0).count() * scale / per);
  }
  return median(v);
}

// Keeps probe results observable so the loops are not optimized away.
volatile std::size_t g_sink = 0;

}  // namespace

void run_probes(Report& report, Tracer& tracer,
                const std::vector<std::string>& queries) {
  const std::string& program = program_text();

  // parse: consulting the whole benchmark program into a fresh database.
  std::vector<double> consult_us;
  for (int rep = 0; rep < 5; ++rep) {
    ace::Database db;
    ace::load_library(db);
    Clock::time_point t0 = Clock::now();
    db.consult(program);
    Clock::time_point t1 = Clock::now();
    tracer.add("parse.consult", t0, t1);
    consult_us.push_back(us_between(t0, t1));
  }
  report.layer("parse.consult_us", median(consult_us), "us", 5);

  ace::Database db;
  ace::load_library(db);
  db.consult(program);
  ace::SymbolTable& syms = db.syms();

  const std::string clause =
      "qsort([P|T], S) :- part(T, P, L, G), qsort(L, SL) & qsort(G, SG), "
      "append(SL, [P|SG], S).";
  constexpr int kClauseReps = 2000;
  report.layer("parse.clause_us",
               probe(tracer, "parse.clause", kClauseReps, 1e6, [&] {
                 for (int i = 0; i < kClauseReps; ++i) {
                   g_sink = g_sink + ace::parse_term_text(syms, clause)
                                         .cells.size();
                 }
               }),
               "us");

  const double nq = double(std::max<std::size_t>(queries.size(), 1));
  report.layer("parse.query_us", probe(tracer, "parse.query", nq, 1e6, [&] {
                 for (const std::string& q : queries) {
                   g_sink = g_sink + ace::parse_term_text(syms, q).cells.size();
                 }
               }),
               "us");

  std::vector<ace::TermTemplate> parsed;
  for (const std::string& q : queries) {
    parsed.push_back(ace::parse_term_text(syms, q));
  }
  report.layer("term.canon_key_us",
               probe(tracer, "term.canon_key", nq, 1e6, [&] {
                 for (const ace::TermTemplate& t : parsed) {
                   g_sink = g_sink + ace::canonical_template_key(t).size();
                 }
               }),
               "us");

  // term: unify two ground 16-argument structures.
  {
    ace::Store store(1);
    ace::Trail trail;
    std::uint32_t f = syms.intern("f");
    std::vector<ace::Addr> a1, a2;
    for (int i = 0; i < 16; ++i) {
      a1.push_back(ace::heap_int(store, 0, i));
      a2.push_back(ace::heap_int(store, 0, i));
    }
    ace::Addr a = ace::heap_struct(store, 0, f, a1);
    ace::Addr b = ace::heap_struct(store, 0, f, a2);
    constexpr int kReps = 200000;
    report.layer("term.unify16_ns",
                 probe(tracer, "term.unify16", kReps, 1e9, [&] {
                   for (int i = 0; i < kReps; ++i) {
                     g_sink = g_sink + ace::unify(store, trail, a, b);
                   }
                 }),
                 "ns");
  }

  // db: first-argument index lookup on edge/2.
  {
    const ace::Predicate* edge = db.find(syms.intern("edge"), 2);
    ace::IndexKey key{ace::IndexKey::Kind::Int, 17};
    constexpr int kReps = 500000;
    report.layer("db.lookup_ns", probe(tracer, "db.lookup", kReps, 1e9, [&] {
                   for (int i = 0; i < kReps; ++i) {
                     g_sink = g_sink + edge->candidates(key).size();
                   }
                 }),
                 "ns");
  }

  // analysis: the purity rebuild the service runs after a write.
  report.layer("analysis.purity_ms",
               probe(tracer, "analysis.purity", 1, 1e3, [&] {
                 ace::AbsProgram prog =
                     ace::AbsProgram::from_database(syms, db);
                 g_sink = g_sink +
                          ace::analyze_purity(prog, syms).effects.size();
               }),
               "ms");
}

}  // namespace perfbench
