#include "programs.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>

namespace perfbench {

const std::string& program_text() {
  static const std::string text = R"PL(
% nrev: naive reverse of K..K+N-1.
app([], L, L).
app([H|T], L, [H|R]) :- app(T, L, R).
nrev([], []).
nrev([H|T], R) :- nrev(T, RT), app(RT, [H], R).
nrev_from(K, N, Last) :- M is K + N - 1, numlist(K, M, L), nrev(L, R),
    R = [Last|_].

% takeuchi: and-parallel tak.
tak(X, Y, Z, A) :- X =< Y, !, A = Z.
tak(X, Y, Z, A) :- X1 is X - 1, Y1 is Y - 1, Z1 is Z - 1,
    tak(X1, Y, Z, A1) & tak(Y1, Z, X, A2) & tak(Z1, X, Y, A3),
    tak(A1, A2, A3, A).
takeuchi(X, Y, Z, A) :- tak(X, Y, Z, A).

% fib: doubly recursive and-parallel Fibonacci.
fibp(N, F) :- N < 2, !, F = N.
fibp(N, F) :- N1 is N - 1, N2 is N - 2,
    fibp(N1, F1) & fibp(N2, F2), F is F1 + F2.

% queens2: n-queens, incremental generator coding (all solutions).
queens2(N, Qs) :- q2(N, N, [], Qs).
q2(0, _, Acc, Acc) :- !.
q2(K, N, Acc, Qs) :- between(1, N, Q), qsafe(Q, Acc, 1), K1 is K - 1,
    q2(K1, N, [Q|Acc], Qs).
qsafe(_, [], _).
qsafe(Q, [P|Ps], D) :- Q =\= P, Q =\= P + D, Q =\= P - D, D1 is D + 1,
    qsafe(Q, Ps, D1).

% puzzle: every 3x3 magic square.
puzzle([A, B, C, D, E, F, G, H, I]) :-
    L0 = [1, 2, 3, 4, 5, 6, 7, 8, 9],
    select(A, L0, L1), select(B, L1, L2), select(C, L2, L3),
    15 =:= A + B + C,
    select(D, L3, L4), select(E, L4, L5), select(F, L5, L6),
    15 =:= D + E + F,
    select(G, L6, L7), select(H, L7, L8), select(I, L8, []),
    15 =:= G + H + I,
    15 =:= A + D + G, 15 =:= B + E + H, 15 =:= C + F + I,
    15 =:= A + E + I, 15 =:= C + E + G.

% matrix_bt: failure-driven seeded matrix product; C varies the matrix.
mkmat(0, _, _, []) :- !.
mkmat(N, M, C, [R|Rs]) :- mkrow(M, N, C, R), N1 is N - 1, mkmat(N1, M, C, Rs).
mkrow(0, _, _, []) :- !.
mkrow(M, N, C, [E|Es]) :- E is (M * C + N * 31) mod 10, M1 is M - 1,
    mkrow(M1, N, C, Es).
checksum([], 0).
checksum([R|Rs], S) :- sum_list(R, S1), checksum(Rs, S2), S is S1 + S2.
dot([], [], 0).
dot([A|As], [B|Bs], S) :- dot(As, Bs, S1), S is S1 + A * B.
mrow_s([], _, _, []).
mrow_s([C|Cs], R, S, [E|Es]) :- dot(R, C, D), E is (D * S + 1) mod 9973,
    mrow_s(Cs, R, S, Es).
mmult_s([], _, _, []).
mmult_s([R|Rs], Cols, S, [O|Os]) :-
    mrow_s(Cols, R, S, O) & mmult_s(Rs, Cols, S, Os).
matrix_bt(N, S, C, Sum) :- mkmat(N, N, C, M),
    between(1, S, Seed), mmult_s(M, M, Seed, Out), Seed =:= S,
    checksum(Out, Sum).

% members: member(V, L), compute(V, R) with Fibonacci mod a prime.
mkvlist(0, []) :- !.
mkvlist(N, [M|T]) :- M is 40 + N mod 23, N1 is N - 1, mkvlist(N1, T).
fib_iter(0, A, _, A) :- !.
fib_iter(N, A, B, F) :- N1 is N - 1, C is (A + B) mod 1000000007,
    fib_iter(N1, B, C, F).
compute(V, R) :- W is V * 6, fib_iter(W, 0, 1, R).
members(N, V, R) :- mkvlist(N, L), member(V, L), compute(V, R).

% pderiv_bt: failure-driven seeded symbolic differentiation.
d(x, x, 1).
d(N, _, 0) :- integer(N).
d(A + B, X, DA + DB) :- d(A, X, DA) & d(B, X, DB).
d(A - B, X, DA - DB) :- d(A, X, DA) & d(B, X, DB).
d(A * B, X, A * DB + DA * B) :- d(A, X, DA) & d(B, X, DB).
mkexp(0, x) :- !.
mkexp(N, x * E + N) :- N1 is N - 1, mkexp(N1, E).
tsize(X, 1) :- atomic(X), !.
tsize(T, S) :- T =.. [_|As], tsizes(As, S1), S is S1 + 1.
tsizes([], 0).
tsizes([A|As], S) :- tsize(A, S1), tsizes(As, S2), S is S1 + S2.
pder_el(I, Seed, N, Sz) :- D is 1 + (I * Seed) mod N, mkexp(D, E),
    d(E, x, DD), tsize(DD, Sz).
pder_all([], _, _, []).
pder_all([I|Is], Seed, N, [Sz|Szs]) :-
    pder_el(I, Seed, N, Sz) & pder_all(Is, Seed, N, Szs).
pderiv_bt(K, N, S, W) :- numlist(1, K, Idx),
    between(1, S, Seed), pder_all(Idx, Seed, N, Szs), Seed =:= S,
    sum_list(Szs, W).

% Graph: tabled closures, and lr/2 tabled over link/2, which reads one
% dynamic linkK/1 table per key K (the writes target those).
:- table tc/2.
tc(X, Y) :- tc(X, Z), edge(Z, Y).
tc(X, Y) :- edge(X, Y).
:- table path/2.
path(X, Y) :- edge(X, Y).
path(X, Y) :- edge(X, Z), path(Z, Y).
:- table lr/2.
lr(K, Y) :- link(K, Y).
lr(K, Y) :- lr(K, Z), edge(Z, Y).
)PL" + [] {
    // Six clusters of eight nodes: a cycle inside each cluster and one
    // edge from each cluster to the next, so reach sets differ in size.
    std::string g;
    for (int c = 0; c < kGraphNodes / 8; ++c) {
      for (int i = 1; i <= 8; ++i) {
        g += "edge(" + std::to_string(8 * c + i) + ", " +
             std::to_string(8 * c + i % 8 + 1) + ").\n";
      }
      if (8 * (c + 1) < kGraphNodes) {
        g += "edge(" + std::to_string(8 * c + 8) + ", " +
             std::to_string(8 * c + 9) + ").\n";
      }
    }
    for (int k = 0; k < kLinkKeys; ++k) {
      const std::string p = "link" + std::to_string(k);
      g += ":- dynamic " + p + "/1.\n";
      g += "link(" + std::to_string(k) + ", V) :- " + p + "(V).\n";
      g += p + "(" + std::to_string(initial_link(k)) + ").\n";
    }
    return g;
  }();
  return text;
}

bool answers_match(const Query& q, std::vector<std::string> solutions) {
  std::sort(solutions.begin(), solutions.end());
  return solutions == q.expected;
}

const std::vector<std::string>& corpus_classes() {
  static const std::vector<std::string> c = {
      "nrev",    "takeuchi", "fib",     "queens2",
      "puzzle",  "matrix_bt", "members", "pderiv_bt"};
  return c;
}

bool is_search_class(const std::string& cls) {
  return cls == "queens2" || cls == "puzzle" || cls == "members";
}

namespace {

// ---- Oracles: plain C++ re-statements of each program's meaning --------

std::int64_t tak(std::int64_t x, std::int64_t y, std::int64_t z) {
  if (x <= y) return z;
  return tak(tak(x - 1, y, z), tak(y - 1, z, x), tak(z - 1, x, y));
}

std::int64_t fib(int n) {
  std::int64_t a = 0, b = 1;
  for (int i = 0; i < n; ++i) {
    std::int64_t c = a + b;
    a = b;
    b = c;
  }
  return a;
}

std::string list_text(const std::vector<int>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) s += ",";
    s += std::to_string(v[i]);
  }
  return s + "]";
}

// Every placement of n non-attacking queens, one column per row.
std::vector<std::string> queens(int n) {
  std::vector<std::string> out;
  std::vector<int> cols;
  auto rec = [&](auto&& self) -> void {
    if (static_cast<int>(cols.size()) == n) {
      out.push_back("Qs = " + list_text(cols));
      return;
    }
    for (int q = 1; q <= n; ++q) {
      bool ok = true;
      for (std::size_t r = 0; r < cols.size() && ok; ++r) {
        int dist = static_cast<int>(cols.size() - r);
        ok = cols[r] != q && cols[r] + dist != q && cols[r] - dist != q;
      }
      if (!ok) continue;
      cols.push_back(q);
      self(self);
      cols.pop_back();
    }
  };
  rec(rec);
  return out;
}

std::vector<std::string> magic_squares() {
  std::vector<std::string> out;
  std::vector<int> p = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  do {
    auto line = [&](int a, int b, int c) { return p[a] + p[b] + p[c] == 15; };
    if (line(0, 1, 2) && line(3, 4, 5) && line(6, 7, 8) && line(0, 3, 6) &&
        line(1, 4, 7) && line(2, 5, 8) && line(0, 4, 8) && line(2, 4, 6)) {
      out.push_back("S = " + list_text(p));
    }
  } while (std::next_permutation(p.begin(), p.end()));
  return out;
}

std::int64_t matrix_checksum(int n, int s, int c) {
  std::vector<std::vector<std::int64_t>> m;
  for (int row = n; row >= 1; --row) {
    std::vector<std::int64_t> r;
    for (int col = n; col >= 1; --col) r.push_back((col * c + row * 31) % 10);
    m.push_back(r);
  }
  std::int64_t sum = 0;
  for (const auto& r : m) {
    for (const auto& other : m) {
      std::int64_t dot = 0;
      for (int i = 0; i < n; ++i) dot += r[i] * other[i];
      sum += (dot * s + 1) % 9973;
    }
  }
  return sum;
}

// tsize of mkexp(n) and of its derivative: mkexp(n) = x * mkexp(n-1) + n,
// d(A*B) = A*DB + DA*B, d(A+B) = DA + DB, d(x) = 1, d(integer) = 0.
std::int64_t deriv_size(int n) {
  std::int64_t s = 1, sd = 1;  // mkexp(0) = x, d(x) = 1
  for (int i = 1; i <= n; ++i) {
    sd = 7 + sd + s;
    s = 4 + s;
  }
  return sd;
}

std::int64_t pderiv_w(int k, int n, int s) {
  std::int64_t w = 0;
  for (int i = 1; i <= k; ++i) w += deriv_size(1 + (i * s) % n);
  return w;
}

std::vector<std::string> members_answers(int n) {
  std::vector<std::string> out;
  for (int i = n; i >= 1; --i) {
    int v = 40 + i % 23;
    std::uint64_t a = 0, b = 1;
    for (int j = 0; j < 6 * v; ++j) {
      std::uint64_t c = (a + b) % 1000000007ull;
      a = b;
      b = c;
    }
    out.push_back("V = " + std::to_string(v) + ", R = " + std::to_string(a));
  }
  return out;
}

std::string num(std::int64_t v) { return std::to_string(v); }

Query make(const std::string& cls, std::string text,
           std::vector<std::string> expected) {
  std::sort(expected.begin(), expected.end());
  return Query{cls, std::move(text), std::move(expected)};
}

// One row of a size table: a class's size parameters, unused ones 0.
struct Sizes {
  int a = 0, b = 0, c = 0;
};
using SizeTable = std::map<std::string, std::vector<Sizes>>;

// The one generator per class: the query at sizes `s`. `rng` varies only
// data that leaves the work unchanged (list offsets, matrix coefficients).
Query class_query(const std::string& cls, const Sizes& s, Rng& rng) {
  if (cls == "nrev") {
    int k = 1 + static_cast<int>(rng.below(1000));
    return make(cls, "nrev_from(" + num(k) + ", " + num(s.a) + ", Last).",
                {"Last = " + num(k + s.a - 1)});
  }
  if (cls == "takeuchi") {
    return make(cls,
                "takeuchi(" + num(s.a) + ", " + num(s.b) + ", " + num(s.c) +
                    ", A).",
                {"A = " + num(tak(s.a, s.b, s.c))});
  }
  if (cls == "fib") {
    return make(cls, "fibp(" + num(s.a) + ", F).", {"F = " + num(fib(s.a))});
  }
  if (cls == "queens2") {
    static std::map<int, std::vector<std::string>> memo;
    if (!memo.count(s.a)) memo[s.a] = queens(s.a);
    return make(cls, "queens2(" + num(s.a) + ", Qs).", memo[s.a]);
  }
  if (cls == "puzzle") {
    static const std::vector<std::string> squares = magic_squares();
    return make(cls, "puzzle(S).", squares);
  }
  if (cls == "matrix_bt") {
    int c = 1 + static_cast<int>(rng.below(100));
    return make(cls,
                "matrix_bt(" + num(s.a) + ", " + num(s.b) + ", " + num(c) +
                    ", Sum).",
                {"Sum = " + num(matrix_checksum(s.a, s.b, c))});
  }
  if (cls == "members") {
    return make(cls, "members(" + num(s.a) + ", V, R).",
                members_answers(s.a));
  }
  if (cls == "pderiv_bt") {
    return make(cls,
                "pderiv_bt(" + num(s.a) + ", " + num(s.b) + ", " + num(s.c) +
                    ", W).",
                {"W = " + num(pderiv_w(s.a, s.b, s.c))});
  }
  throw std::runtime_error("unknown class " + cls);
}

}  // namespace

Query corpus_query(const std::string& cls, int level, Rng& rng) {
  // Indexed by level.
  static const SizeTable corpus = {
      {"nrev", {{20}, {40}, {60}}},
      {"takeuchi", {{8, 4, 0}, {10, 6, 1}, {12, 8, 2}}},
      {"fib", {{10}, {13}, {15}}},
      {"queens2", {{5}, {6}, {7}}},
      {"puzzle", {{}, {}, {}}},
      {"matrix_bt", {{3, 3}, {5, 12}, {6, 20}}},
      {"members", {{8}, {30}, {60}}},
      {"pderiv_bt", {{4, 3, 3}, {6, 5, 12}, {8, 6, 20}}},
  };
  if (level < 0 || level > 2) throw std::runtime_error("bad size level");
  return class_query(cls, corpus.at(cls)[level], rng);
}

Query served_query(const std::string& cls, std::size_t variant, Rng& rng) {
  // `variant` picks the row (wrapping around), so every window can send
  // the same sizes.
  static const SizeTable served = {
      {"nrev", {{20}, {25}, {30}, {35}, {40}}},
      {"takeuchi", {{8, 4, 0}, {8, 4, 1}, {8, 4, 2}, {8, 4, 3},
                    {9, 5, 0}, {9, 5, 1}, {9, 5, 2}, {9, 5, 3},
                    {10, 6, 0}, {10, 6, 1}, {10, 6, 2}, {10, 6, 3}}},
      {"fib", {{10}, {11}, {12}, {13}, {14}}},
      {"queens2", {{5}, {6}}},
      {"matrix_bt", {{3, 3}, {3, 6}, {3, 9}, {3, 12},
                     {4, 3}, {4, 6}, {4, 9}, {4, 12},
                     {5, 3}, {5, 6}, {5, 9}, {5, 12}}},
      {"members", {{8}, {12}, {16}, {20}, {24}, {28}}},
      {"pderiv_bt", {{4, 3, 3}, {4, 3, 9}, {4, 5, 3}, {4, 5, 9},
                     {6, 3, 3}, {6, 3, 9}, {6, 5, 3}, {6, 5, 9}}},
  };
  const std::vector<Sizes>& rows = served.at(cls);
  return class_query(cls, rows[variant % rows.size()], rng);
}

namespace {

// Nodes reachable from `v` in one or more edges: its own cluster (a cycle)
// and every later cluster.
std::vector<int> reach(int v) {
  std::vector<int> out;
  for (int u = (v - 1) / 8 * 8 + 1; u <= kGraphNodes; ++u) out.push_back(u);
  return out;
}

std::vector<std::string> bindings(const std::string& var,
                                  const std::vector<int>& values) {
  std::vector<std::string> out;
  for (int v : values) out.push_back(var + " = " + num(v));
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

Query tc_query(int node) {
  return make("tc", "tc(" + num(node) + ", Y).", bindings("Y", reach(node)));
}

Query path_query(int node) {
  return make("path", "path(" + num(node) + ", Y).",
              bindings("Y", reach(node)));
}

int initial_link(int key) { return 1 + (key * 7) % kGraphNodes; }

std::vector<std::string> link_answers(const std::set<int>& values) {
  return bindings("V", std::vector<int>(values.begin(), values.end()));
}

std::vector<std::string> lr_answers(const std::set<int>& values) {
  std::set<int> all;
  for (int v : values) {
    for (int u : reach(v)) all.insert(u);
  }
  return bindings("Y", std::vector<int>(all.begin(), all.end()));
}

std::string link_read_text(int key) {
  return "link(" + num(key) + ", V).";
}

std::string lr_read_text(int key) { return "lr(" + num(key) + ", Y)."; }

std::string link_write_text(int key, int old_value, int new_value) {
  const std::string p = "link" + num(key);
  return "assertz(" + p + "(" + num(new_value) + ")), retract(" + p + "(" +
         num(old_value) + ")).";
}

}  // namespace perfbench
