//===- perfbench/tests/bench_math_test.cpp - The benchmark's arithmetic ----===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins the statistics the benchmark reports: the tail rule, the median,
/// the geometric mean, ratios with a zero base, and span self time with
/// nested children. Run with `python3 perfbench/run.py --selftest`; exits
/// non-zero if any check fails.
///
//===----------------------------------------------------------------------===//

#include "BenchMath.h"

#include "harness/Experiment.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

using namespace perfbench;

namespace {

int Failures = 0;

void check(bool Ok, const char *What, int Line) {
  if (!Ok) {
    std::fprintf(stderr, "FAIL line %d: %s\n", Line, What);
    ++Failures;
  }
}
#define CHECK(X) check((X), #X, __LINE__)

bool near(double A, double B) { return std::fabs(A - B) < 1e-9; }

std::vector<double> iota(size_t N) {
  std::vector<double> V;
  for (size_t I = 1; I <= N; ++I)
    V.push_back(double(I));
  return V;
}

void testMedian() {
  CHECK(median({3, 1, 2}) == 2);
  CHECK(median({4, 1, 3, 2}) == 2.5);
  CHECK(median({}) == 0);
}

void testTail() {
  // 1000 samples: p99 is rank 990, leaving exactly 10 beyond; p99.9
  // would leave 1.
  Tail T = tailPercentile(iota(1000));
  CHECK(T.Valid && T.PerMille == 990 && T.Value == 990 && T.Beyond == 10);
  CHECK(percentileName(T.PerMille) == "p99");

  // 999 samples: p99 is rank 990 (ceil 989.01), 9 beyond, so p95.
  T = tailPercentile(iota(999));
  CHECK(T.Valid && T.PerMille == 950 && T.Beyond == 999 - 950);

  // 10000 samples: p99.9 leaves exactly 10.
  T = tailPercentile(iota(10000));
  CHECK(T.Valid && T.PerMille == 999 && T.Beyond == 10);
  CHECK(percentileName(T.PerMille) == "p99.9");

  // Unsorted input is sorted first.
  std::vector<double> Rev = iota(200);
  std::reverse(Rev.begin(), Rev.end());
  T = tailPercentile(Rev);
  CHECK(T.Valid && T.PerMille == 950 && T.Value == 190 && T.Beyond == 10);

  // 20 samples: only p50 leaves 10 beyond; 19 leave none.
  T = tailPercentile(iota(20));
  CHECK(T.Valid && T.PerMille == 500 && T.Value == 10 && T.Beyond == 10);
  T = tailPercentile(iota(19));
  CHECK(!T.Valid && T.Samples == 19);
  CHECK(!tailPercentile({}).Valid);
}

void testGeomean() {
  CHECK(near(rio::geomean({2, 8}), 4));
  CHECK(near(rio::geomean({1.5}), 1.5));
  CHECK(near(rio::geomean({1, 10, 100}), 10));
  CHECK(rio::geomean({}) == 0);
}

void testRatio() {
  Ratio R{3, 4};
  CHECK(R.value() == 0.75);
  CHECK(R.str() == "0.75 (3/4)");
  Ratio Zero{0, 0};
  CHECK(Zero.value() == 0);
  CHECK(Zero.str() == "n/a (0/0)");
  Ratio NoBase{5, 0};
  CHECK(NoBase.value() == 0);
  CHECK(NoBase.str() == "n/a (5/0)");
  Ratio NoTop{0, 7};
  CHECK(NoTop.value() == 0 && NoTop.str() == "0 (0/7)");
}

Span span(uint32_t Parent, uint64_t Start, uint64_t End) {
  Span S;
  S.Parent = Parent;
  S.StartNs = Start;
  S.EndNs = End;
  return S;
}

void testSelfTime() {
  // job [0,100) > run [10,90) > hooks [20,30) and [50,70) > nested [55,60)
  std::vector<Span> S = {span(NoParent, 0, 100), span(0, 10, 90),
                         span(1, 20, 30), span(1, 50, 70), span(3, 55, 60)};
  std::vector<uint64_t> Self = selfTimes(S);
  CHECK(Self[0] == 20); // 100 - run's 80
  CHECK(Self[1] == 50); // 80 - 10 - 20; the grandchild is not re-counted
  CHECK(Self[2] == 10);
  CHECK(Self[3] == 15); // 20 - 5
  CHECK(Self[4] == 5);
  uint64_t Sum = 0;
  for (uint64_t V : Self)
    Sum += V;
  CHECK(Sum == 100); // self times partition the root

  // Overlapping children are merged; a child past its parent is clipped.
  S = {span(NoParent, 0, 100), span(0, 10, 40), span(0, 30, 50),
       span(0, 90, 130)};
  Self = selfTimes(S);
  CHECK(Self[0] == 100 - 40 - 10);

  // A child covering the whole parent leaves zero, never underflow.
  S = {span(NoParent, 10, 20), span(0, 0, 30)};
  CHECK(selfTimes(S)[0] == 0);
  CHECK(selfTimes({}).empty());
}

} // namespace

int main() {
  testMedian();
  testTail();
  testGeomean();
  testRatio();
  testSelfTime();
  if (Failures) {
    std::fprintf(stderr, "%d check(s) failed\n", Failures);
    return 1;
  }
  std::printf("perfbench arithmetic: all checks passed\n");
  return 0;
}
