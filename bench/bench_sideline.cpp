//===- bench/bench_sideline.cpp - Asynchronous sideline publication wins -----===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures what asynchronous sideline re-optimization buys over the
/// synchronous sideline (paper Section 3.4). Three indirect-branch-heavy
/// workloads run three ways:
///
///   * off   — no client, no sideline: the raw runtime floor;
///   * sync  — sideline queue drained on the app thread at quantum
///             boundaries; every replacement charges FragmentReplaceCost;
///   * async — a host worker thread optimizes decoded traces while the
///             app runs; publication swaps the link graph at a safe point
///             for SidelinePublishCost and moves suspended threads onto
///             the new version by on-stack replacement.
///
/// The bench hard-asserts the subsystem's contract on the simulated
/// clock: all three modes are output-transparent, the async schedule is
/// deterministic for the fixed seed (two runs, bit-identical cycles), and
/// async steady-state cycles beat sync outright on at least two of the
/// three workloads (publication is 300 cycles cheaper per trace; the
/// virtual completion latency can return a sliver of that on a workload
/// with very few traces).
///
/// Simulated cycles and the publication, stale-drop and trace counts are
/// declared exact, so bench_compare.py gates them bit-identical across
/// commits. Host wall clock of each run is only shown.
///
//===----------------------------------------------------------------------===//

#include "clients/Clients.h"
#include "core/Runtime.h"
#include "core/Sideline.h"
#include "harness/BenchJson.h"
#include "harness/Experiment.h"
#include "support/OutStream.h"

#include <chrono>
#include <cstdlib>
#include <string>

using namespace rio;

namespace {

/// Virtual dispatch: a tight loop over 16 "objects" whose type field
/// indexes a method table — 13 hot-class objects, 2 warm, 1 cold.
std::string vdispatchSource(int Outer) {
  return R"(
    .entry main
    types: .word 0 0 0 0 0 0 0 4 0 0 0 8 0 0 4 0
    vtable: .word m0 m1 m2
    main:
      mov esi, 0
      mov ebp, )" + std::to_string(Outer) + R"(
    outer:
      mov ebx, 0
    inner:
      mov ecx, [types+ebx]
      jmp [vtable+ecx]
    m0:
      add esi, 1
      jmp mret
    m1:
      add esi, 17
      jmp mret
    m2:
      add esi, 257
      jmp mret
    mret:
      add ebx, 4
      cmp ebx, 64
      jnz inner
      and esi, 0xFFFFFF
      dec ebp
      jnz outer
      mov ebx, esi
      mov eax, 2
      int 0x80
      mov ebx, 0
      mov eax, 1
      int 0x80
  )";
}

/// Ret-heavy call tree: three levels of calls, seven returns per
/// iteration through three ret sites.
std::string rettreeSource(int Iters) {
  return R"(
    .entry main
    main:
      mov esi, 0
      mov edi, )" + std::to_string(Iters) + R"(
    loop:
      call a
      and esi, 0xFFFFFF
      dec edi
      jnz loop
      mov ebx, esi
      mov eax, 2
      int 0x80
      mov ebx, 0
      mov eax, 1
      int 0x80
    a:
      call b
      call b
      add esi, 5
      ret
    b:
      call leaf
      call leaf
      add esi, 7
      ret
    leaf:
      add esi, 3
      ret
  )";
}

/// Switch-dispatch interpreter: 64 bytecode slots fetched through one
/// indirect jump, four hot opcodes covering 60 of them.
std::string interpSource(int Outer) {
  std::string Code = "code: .word";
  int Slot = 0;
  int Remaining[] = {38, 12, 6, 6, 1, 1};
  while (Slot < 63) {
    int Pick = (Slot * 5 + 3) % 6;
    for (int Try = 0; Try != 6; ++Try, Pick = (Pick + 1) % 6)
      if (Remaining[Pick] > 0)
        break;
    --Remaining[Pick];
    Code += " " + std::to_string(Pick * 4);
    ++Slot;
  }
  Code += " 24\n"; // last slot: oploop
  return R"(
    .entry main
  )" + Code + R"(
    optable: .word op0 op1 op2 op3 op4 op5 oploop
    main:
      mov esi, 0
      mov edi, )" + std::to_string(Outer) + R"(
      mov ebx, 0
    fetch:
      mov ecx, [code+ebx]
      add ebx, 4
      jmp [optable+ecx]
    op0:
      add esi, 1
      jmp fetch
    op1:
      add esi, 17
      jmp fetch
    op2:
      add esi, 257
      jmp fetch
    op3:
      add esi, 4097
      jmp fetch
    op4:
      add esi, 65537
      jmp fetch
    op5:
      and esi, 0xFFFFFF
      jmp fetch
    oploop:
      mov ebx, 0
      dec edi
      jnz fetch
      and esi, 0xFFFFFF
      mov ebx, esi
      mov eax, 2
      int 0x80
      mov ebx, 0
      mov eax, 1
      int 0x80
  )";
}

struct Sample {
  std::string Config;  ///< <workload>_{off,sync,async}
  uint64_t Cycles = 0; ///< simulated, full run — exact, gated
  uint64_t Published = 0;  ///< versions published (0 for off/sync)
  uint64_t StaleDrops = 0; ///< queued work invalidated before publication
  uint64_t Traces = 0;     ///< traces built
  uint64_t HostNs = 0;     ///< host wall clock, informational only
};

uint64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void die(const std::string &Msg) {
  errs().printf("bench_sideline: %s\n", Msg.c_str());
  std::abort();
}

enum class Mode { Off, Sync, Async };

Sample runOnce(const std::string &Name, const Program &Prog, Mode Which,
               const std::string &Expected) {
  Sample Out;
  Out.Config = Name + (Which == Mode::Off     ? "_off"
                       : Which == Mode::Sync  ? "_sync"
                                              : "_async");
  Machine M;
  if (!loadProgram(M, Prog))
    die(Name + ": program too large");
  RlrClient Inner;
  uint64_t T0 = nowNs();
  RunResult R;
  if (Which == Mode::Off) {
    Runtime RT(M, RuntimeConfig::full());
    R = RT.run();
    Out.Traces = RT.stats().get("traces_built");
  } else {
    SidelineOptimizer Sideline(Inner,
                               Which == Mode::Async ? SidelineMode::Async
                                                    : SidelineMode::Sync);
    RuntimeConfig Config = RuntimeConfig::full();
    if (Which == Mode::Async)
      Config.SidelinePump = &Sideline;
    Runtime RT(M, Config, &Sideline);
    R = runWithSideline(RT, Sideline);
    Out.Published = Sideline.versionsPublished();
    Out.StaleDrops = Sideline.staleDrops();
    Out.Traces = RT.stats().get("traces_built");
  }
  Out.HostNs = nowNs() - T0;
  if (R.Status != RunStatus::Exited)
    die(Out.Config + ": run did not exit: " + R.FaultReason);
  if (M.output() != Expected)
    die(Out.Config + ": transparency violated");
  Out.Cycles = R.Cycles;
  return Out;
}

} // namespace

int main(int Argc, char **Argv) {
  const char *OutPath = Argc > 1 ? Argv[1] : "BENCH_sideline.json";
  OutStream &OS = outs();
  OS.printf("Asynchronous sideline re-optimization (simulated cycles; "
            "client = redundant load removal)\n\n");
  OS.printf("%-10s %12s %12s %12s %6s %6s\n", "workload", "off", "sync",
            "async", "pub", "drop");

  struct Spec {
    const char *Name;
    std::string Source;
  };
  const Spec Specs[] = {{"vdispatch", vdispatchSource(600)},
                        {"rettree", rettreeSource(1300)},
                        {"interp", interpSource(80)}};

  BenchJson J;
  int AsyncWins = 0;
  for (const Spec &S : Specs) {
    Program Prog;
    std::string Error;
    if (!assemble(S.Source, Prog, Error))
      die(std::string(S.Name) + ": assembly failed: " + Error);
    Outcome Native = runNativeProgram(Prog);
    if (Native.Status != RunStatus::Exited)
      die(std::string(S.Name) + ": native run failed");

    Sample Off = runOnce(S.Name, Prog, Mode::Off, Native.Output);
    Sample Sync = runOnce(S.Name, Prog, Mode::Sync, Native.Output);
    Sample Async = runOnce(S.Name, Prog, Mode::Async, Native.Output);

    // The virtual-completion schedule is seeded: a second async run must
    // land on the identical simulated cycle count.
    Sample Again = runOnce(S.Name, Prog, Mode::Async, Native.Output);
    if (Again.Cycles != Async.Cycles || Again.Published != Async.Published)
      die(std::string(S.Name) + ": async schedule is not deterministic");

    if (Sync.Published != 0)
      die(std::string(S.Name) + ": sync sideline published versions");
    if (Async.Published == 0)
      die(std::string(S.Name) + ": async sideline published nothing");
    AsyncWins += Async.Cycles < Sync.Cycles;

    OS.printf("%-10s %12llu %12llu %12llu %6llu %6llu\n", S.Name,
              (unsigned long long)Off.Cycles, (unsigned long long)Sync.Cycles,
              (unsigned long long)Async.Cycles,
              (unsigned long long)Async.Published,
              (unsigned long long)Async.StaleDrops);
    for (const Sample *Row : {&Off, &Sync, &Async})
      J.row(Row->Config)
          .exact("cycles", Row->Cycles)
          .exact("published", Row->Published)
          .exact("stale_drops", Row->StaleDrops)
          .exact("traces", Row->Traces)
          .host("host_ns", Row->HostNs);
  }

  OS.printf("\nasync beat sync outright on %d of 3 workloads\n", AsyncWins);
  if (AsyncWins < 2)
    die("async steady-state cycles must beat sync on at least 2 workloads");

  if (!J.write(OutPath))
    return 1;
  OS.printf("wrote %s\n", OutPath);
  return 0;
}
