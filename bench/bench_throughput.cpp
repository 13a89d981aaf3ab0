//===- bench/bench_throughput.cpp - Host-side simulator throughput -----------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures how fast the *simulator itself* runs on the host: simulated
/// instructions per host wall-clock second (MIPS), per runtime
/// configuration. Every other bench reports simulated cycles — this one
/// guards the infrastructure's own speed, which the hot-path structures
/// (interned stat handles, the flat fragment/IBL table, the direct-mapped
/// decode cache of pre-resolved lines) exist to improve. The `native` row
/// is a plain Machine::step loop with no runtime: the interpreter's raw
/// speed, beside what each runtime configuration keeps of it. Simulated
/// results must not change when host speed does; the stats-parity test
/// pins that.
///
/// Emits BENCH_throughput.json for scripts/bench_compare.py — simulated
/// instruction counts declared exact, wall time and MIPS declared host —
/// and prints a human-readable table. The configurations take turns over
/// the workload mix until each has run for at least MinConfigNs of wall
/// time; each reports its fastest repetition (the usual way to strip
/// scheduler noise from a throughput number, given enough repetitions).
///
//===----------------------------------------------------------------------===//

#include "harness/BenchJson.h"
#include "harness/Experiment.h"
#include "support/OutStream.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

using namespace rio;

namespace {

struct BenchConfig {
  const char *Name;
  RuntimeConfig Config;
  bool Native = false; ///< a plain Machine::step loop; Config unused
};

struct Sample {
  std::string Config;
  uint64_t Instructions = 0;
  uint64_t WallNs = 0;
  double Mips = 0;
  uint64_t SpentNs = 0; ///< wall time over all repetitions
};

constexpr uint64_t MinConfigNs = 2'000'000'000;
constexpr const char *Workloads[] = {"crafty", "vpr", "gap"};

/// Runs \p BC once over the workload mix and keeps the repetition in
/// \p Best if it is the fastest so far. Returns false if a run failed.
bool measureRep(const BenchConfig &BC, const std::vector<Program> &Programs,
                Sample &Best) {
  uint64_t Instructions = 0;
  auto T0 = std::chrono::steady_clock::now();
  for (const Program &Prog : Programs) {
    Outcome O = BC.Native ? runNativeProgram(Prog)
                          : runUnderRuntime(Prog, BC.Config, ClientKind::None);
    if (O.Status != RunStatus::Exited)
      return false;
    Instructions += O.Instructions;
  }
  auto T1 = std::chrono::steady_clock::now();
  uint64_t WallNs = std::max<uint64_t>(
      1, std::chrono::duration_cast<std::chrono::nanoseconds>(T1 - T0).count());
  Best.SpentNs += WallNs;
  double Mips = double(Instructions) * 1000.0 / double(WallNs);
  if (Mips > Best.Mips) {
    Best.Instructions = Instructions;
    Best.WallNs = WallNs;
    Best.Mips = Mips;
  }
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  const char *OutPath = Argc > 1 ? Argv[1] : "BENCH_throughput.json";
  OutStream &OS = outs();

  RuntimeConfig Cache = RuntimeConfig::linkIndirect(); // links, no traces
  const BenchConfig Configs[] = {
      {"native", RuntimeConfig(), /*Native=*/true},
      {"emulate", RuntimeConfig::emulate()},
      {"cache", Cache},
      {"cache+traces", RuntimeConfig::full()},
  };

  std::vector<Program> Programs;
  for (const char *Name : Workloads) {
    const Workload *W = findWorkload(Name);
    if (!W) {
      OS.printf("unknown workload %s\n", Name);
      return 1;
    }
    Programs.push_back(buildWorkload(*W, 0));
  }

  OS.printf("Host throughput (simulated instructions / host second)\n");
  OS.printf("workloads: crafty vpr gap; best rep of %.1f s per config\n\n",
            double(MinConfigNs) / 1e9);
  OS.printf("%-14s %14s %14s %10s\n", "config", "sim instrs", "wall ms",
            "MIPS");

  // Round-robin over the configurations until each has run for
  // MinConfigNs, so a slow spell on a shared host lands on repetitions of
  // every configuration rather than on all of one configuration's.
  std::vector<Sample> Samples;
  for (const BenchConfig &BC : Configs)
    Samples.push_back({BC.Name});
  bool Ok = true;
  for (bool More = true; Ok && More;) {
    More = false;
    for (size_t Idx = 0; Idx != Samples.size(); ++Idx) {
      Ok = Ok && measureRep(Configs[Idx], Programs, Samples[Idx]);
      More |= Samples[Idx].SpentNs < MinConfigNs;
    }
  }

  BenchJson J;
  for (const Sample &S : Samples) {
    OS.printf("%-14s %14llu %14.2f %10.2f\n", S.Config.c_str(),
              (unsigned long long)S.Instructions, double(S.WallNs) / 1e6,
              S.Mips);
    J.row(S.Config)
        .exact("instructions", S.Instructions)
        .host("wall_ns", S.WallNs)
        .host("mips", S.Mips);
  }
  if (!J.write(OutPath))
    return 1;
  OS.printf("\nwrote %s\n", OutPath);
  return Ok ? 0 : 1;
}
