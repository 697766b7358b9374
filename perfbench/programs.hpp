// The benchmark's own Prolog program and query generators.
//
// The program re-creates the corpus classes the benchmark drives (nrev,
// takeuchi, fib, queens2, puzzle, matrix_bt, members, pderiv_bt) plus a
// small graph with tabled closures and a dynamic predicate for the serving
// workloads. It lives here, not in src/workloads, so that a change to the
// runtime's own corpus cannot silently change what the benchmark measures.
//
// Every query carries its expected answer, computed by the C++ oracles in
// programs.cpp independently of the engine: N-queens placements, fib(n),
// the tak value, the nrev last element, matrix checksums, derivative sizes.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

// The whole program: corpus classes + graph + dynamic link/2 table.
const std::string& program_text();

// A query with its expected solutions, sorted (a multiset compare makes the
// check independent of the order an or-parallel engine reports them in).
struct Query {
  std::string cls;   // class name, e.g. "takeuchi"
  std::string text;  // '.'-terminated goal
  std::vector<std::string> expected;
};

// True when `solutions` is exactly the expected multiset.
bool answers_match(const Query& q, std::vector<std::string> solutions);

// The eight engine classes, in a fixed order.
const std::vector<std::string>& corpus_classes();
// The or-parallel search classes among them.
bool is_search_class(const std::string& cls);

// Size levels per class, 0 (smallest) to 2. `rng` varies the data (list
// offsets, matrix coefficients) where that leaves the work unchanged.
Query corpus_query(const std::string& cls, int level, Rng& rng);

// A serving-scale query of `cls` (not puzzle): `variant` picks its sizes
// from a fixed table (wrapping around), `rng` varies data values that
// leave the work unchanged (list offsets, matrix coefficients).
Query served_query(const std::string& cls, std::size_t variant, Rng& rng);

// ---- Graph part ---------------------------------------------------------
constexpr int kGraphNodes = 48;
constexpr int kLinkKeys = 8;

// Tabled closures over the static edge/2 graph.
Query tc_query(int node);
Query path_query(int node);
// Initial value of the dynamic link(K, V) fact for key K.
int initial_link(int key);
// Solutions of `link(K, V).` / `lr(K, Y).` when link/2 holds `values` for K.
std::vector<std::string> link_answers(const std::set<int>& values);
std::vector<std::string> lr_answers(const std::set<int>& values);
std::string link_read_text(int key);
std::string lr_read_text(int key);
std::string link_write_text(int key, int old_value, int new_value);

}  // namespace perfbench
