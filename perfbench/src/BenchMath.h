//===- perfbench/src/BenchMath.h - The benchmark's own arithmetic ----------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The statistics the benchmark reports, kept apart from the driver so
/// tests/bench_math_test.cpp can pin them: the median, the nearest-rank
/// tail rule (the highest percentile that still has at least ten samples
/// beyond it), ratios that say when their base is zero, and span self time
/// (a span's duration minus the part of it its children cover).
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCHMATH_H
#define PERFBENCH_BENCHMATH_H

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

/// Median (mean of the two middle values for an even count).
inline double median(std::vector<double> Values) {
  if (Values.empty())
    return 0;
  std::sort(Values.begin(), Values.end());
  size_t N = Values.size();
  return N % 2 ? Values[N / 2] : (Values[N / 2 - 1] + Values[N / 2]) / 2;
}

/// The reported tail of a timing sample.
struct Tail {
  bool Valid = false;   ///< false when fewer than 2 * MinBeyond samples
  unsigned PerMille = 0;///< the percentile chosen, e.g. 990 for p99
  double Value = 0;     ///< the sample at that percentile
  size_t Beyond = 0;    ///< samples strictly ranked above it
  size_t Samples = 0;
};

/// Picks the highest percentile of the ladder p99.9, p99, p95, p90, p75,
/// p50 that leaves at least \p MinBeyond samples ranked above it. A fixed
/// ladder keeps the reported percentile the same across runs whose sample
/// counts differ slightly.
inline Tail tailPercentile(std::vector<double> Values, size_t MinBeyond = 10) {
  static const unsigned Ladder[] = {999, 990, 950, 900, 750, 500};
  Tail T;
  T.Samples = Values.size();
  std::sort(Values.begin(), Values.end());
  for (unsigned PerMille : Ladder) {
    size_t Rank = (size_t(PerMille) * T.Samples + 999) / 1000;
    if (Rank == 0 || T.Samples - Rank < MinBeyond)
      continue;
    T.Valid = true;
    T.PerMille = PerMille;
    T.Value = Values[Rank - 1];
    T.Beyond = T.Samples - Rank;
    return T;
  }
  return T;
}

/// "p99.9" / "p95" for a per-mille percentile.
inline std::string percentileName(unsigned PerMille) {
  char Buf[16];
  if (PerMille % 10)
    std::snprintf(Buf, sizeof(Buf), "p%u.%u", PerMille / 10, PerMille % 10);
  else
    std::snprintf(Buf, sizeof(Buf), "p%u", PerMille / 10);
  return Buf;
}

/// A ratio that keeps its numerator and denominator for printing. A zero
/// base has no ratio: value() reports 0 and str() says "n/a".
struct Ratio {
  double Num = 0;
  double Den = 0;

  double value() const { return Den != 0 ? Num / Den : 0; }
  std::string str() const {
    char Buf[96];
    if (Den == 0)
      std::snprintf(Buf, sizeof(Buf), "n/a (%.10g/0)", Num);
    else
      std::snprintf(Buf, sizeof(Buf), "%.6g (%.10g/%.10g)", value(), Num,
                    Den);
    return Buf;
  }
};

constexpr uint32_t NoParent = ~uint32_t(0);

/// One timed interval. Parent indexes the enclosing span in the same
/// vector (NoParent for a root); a parent always precedes its children.
struct Span {
  uint32_t Parent = NoParent;
  uint8_t Layer = 0;
  uint64_t StartNs = 0;
  uint64_t EndNs = 0;
};

/// Self time of every span: its duration minus the union of its direct
/// children's intervals, each clipped to the parent. Grandchildren are
/// already inside their parent's interval, so they are not subtracted
/// twice, and overlapping children are merged before subtracting.
inline std::vector<uint64_t> selfTimes(const std::vector<Span> &Spans) {
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> Kids(Spans.size());
  for (const Span &S : Spans)
    if (S.Parent != NoParent && S.Parent < Spans.size()) {
      const Span &P = Spans[S.Parent];
      uint64_t Lo = std::max(S.StartNs, P.StartNs);
      uint64_t Hi = std::min(S.EndNs, P.EndNs);
      if (Lo < Hi)
        Kids[S.Parent].push_back({Lo, Hi});
    }
  std::vector<uint64_t> Self(Spans.size());
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    uint64_t Duration = S.EndNs > S.StartNs ? S.EndNs - S.StartNs : 0;
    auto &K = Kids[I];
    std::sort(K.begin(), K.end());
    uint64_t Covered = 0, RunLo = 0, RunHi = 0;
    bool Open = false;
    for (auto [Lo, Hi] : K) {
      if (Open && Lo <= RunHi) {
        RunHi = std::max(RunHi, Hi);
        continue;
      }
      if (Open)
        Covered += RunHi - RunLo;
      RunLo = Lo;
      RunHi = Hi;
      Open = true;
    }
    if (Open)
      Covered += RunHi - RunLo;
    Self[I] = Duration - std::min(Duration, Covered);
  }
  return Self;
}

} // namespace perfbench

#endif // PERFBENCH_BENCHMATH_H
