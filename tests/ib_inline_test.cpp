//===- tests/ib_inline_test.cpp - Adaptive indirect-branch inline caches -----===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the adaptive indirect-branch inline caches (core/IbInline.cpp):
/// chain hit/miss semantics, threshold and skew gating, transparency of the
/// rewritten code, arm re-routing after target eviction / region flush /
/// SMC invalidation in both cache-sharing modes, savef/restf elision
/// safety under a flag-clobbering client, and an on-mode cycle golden.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "api/dr_api.h"
#include "core/Runtime.h"
#include "core/ThreadedRunner.h"

using namespace rio;
using namespace rio::test;

namespace {

/// A dispatch loop with one hot indirect-jump site. The index into the
/// 16-entry jump table is uniform, but the *targets* are skewed by table
/// construction: 12 slots route to h0 and one each to h1..h4. With the
/// default 4-way chain one of the five targets always stays outside the
/// chain, so both hits and misses occur. Each handler contributes
/// differently to the checksum, so any dispatch error changes the printed
/// output.
Program skewedDispatchProgram(int Iters) {
  std::string Table = "table: .word";
  for (int I = 0; I != 12; ++I)
    Table += " h0";
  Table += " h1 h2 h3 h4\n";
  return assembleOrDie(R"(
    .entry main
  )" + Table + R"(
    main:
      mov esi, 0
      mov eax, 12345
      mov edi, )" + std::to_string(Iters) + R"(
    loop:
      imul eax, eax, 1103515245
      add eax, 12345
      mov ecx, eax
      shr ecx, 16
      and ecx, 15
      shl ecx, 2
      jmp [table+ecx]
    h0:
      add esi, 1
      jmp next
    h1:
      add esi, 17
      jmp next
    h2:
      add esi, 257
      jmp next
    h3:
      add esi, 4097
      jmp next
    h4:
      add esi, 65537
      jmp next
    next:
      and esi, 0xFFFFFF
      dec edi
      jnz loop
      mov ebx, esi
      mov eax, 2
      int 0x80
      mov ebx, 0
      mov eax, 1
      int 0x80
  )");
}

/// Skewed dispatch interleaved with laps of one-shot filler blocks: the
/// fillers overflow a small FIFO block cache every lap, evicting the chain
/// targets out from under a live chain, and the next lap's dispatch loop
/// forces the arms to re-route and relink.
Program pressureDispatchProgram(int Laps, int Iters, int Fillers) {
  std::string Table = "table: .word";
  for (int I = 0; I != 12; ++I)
    Table += " h0";
  Table += " h1 h1 h2 h3\n";
  std::string S = R"(
    .entry main
  )" + Table + R"(
    main:
      mov esi, 0
      mov eax, 12345
      mov ebp, )" + std::to_string(Laps) + R"(
    lap:
      mov edi, )" + std::to_string(Iters) + R"(
    loop:
      imul eax, eax, 1103515245
      add eax, 12345
      mov ecx, eax
      shr ecx, 16
      and ecx, 15
      shl ecx, 2
      jmp [table+ecx]
    h0:
      add esi, 1
      jmp next
    h1:
      add esi, 17
      jmp next
    h2:
      add esi, 257
      jmp next
    h3:
      add esi, 4097
      jmp next
    next:
      and esi, 0xFFFFFF
      dec edi
      jnz loop
      jmp f0
  )";
  for (int I = 0; I != Fillers; ++I) {
    S += "f" + std::to_string(I) + ":\n";
    S += "  add esi, " + std::to_string((I * 2654435761u >> 10) & 0xFFFF) +
         "\n";
    S += "  and esi, 0xFFFFFF\n";
    S += "  jmp f" + std::to_string(I + 1) + "\n";
  }
  S += "f" + std::to_string(Fillers) + R"(:
      dec ebp
      jnz lap
      mov ebx, esi
      mov eax, 2
      int 0x80
      mov ebx, 0
      mov eax, 1
      int 0x80
  )";
  return assembleOrDie(S);
}

/// Like skewedDispatchProgram, but all 16 table slots are distinct
/// handlers: every target carries exactly 1/16 of the arrivals, so the
/// skew gate must refuse to build a chain.
Program uniformDispatchProgram(int Iters) {
  std::string Table = "table: .word";
  std::string Handlers;
  for (int I = 0; I != 16; ++I) {
    Table += " u" + std::to_string(I);
    Handlers += "u" + std::to_string(I) + ":\n  add esi, " +
                std::to_string(1 + I * 3) + "\n  jmp next\n";
  }
  return assembleOrDie(R"(
    .entry main
  )" + Table + "\n" + R"(
    main:
      mov esi, 0
      mov ecx, 0
      mov edi, )" + std::to_string(Iters) + R"(
    loop:
      mov eax, ecx
      and eax, 15
      shl eax, 2
      jmp [table+eax]
  )" + Handlers + R"(
    next:
      and esi, 0xFFFFFF
      inc ecx
      dec edi
      jnz loop
      mov ebx, esi
      mov eax, 2
      int 0x80
      mov ebx, 0
      mov eax, 1
      int 0x80
  )");
}

/// A ret-heavy program: one helper returning to three call sites with a
/// skewed site distribution (the `ret` is the profiled indirect site).
Program skewedRetProgram(int Iters) {
  return assembleOrDie(R"(
    .entry main
    main:
      mov esi, 0
      mov edi, )" + std::to_string(Iters) + R"(
    loop:
      call work
      add esi, 3
      call work
      add esi, 5
      mov eax, edi
      and eax, 7
      jnz skip
      call work
      add esi, 7
    skip:
      and esi, 0xFFFFFF
      dec edi
      jnz loop
      mov ebx, esi
      mov eax, 2
      int 0x80
      mov ebx, 0
      mov eax, 1
      int 0x80
    work:
      add esi, 11
      ret
  )");
}

/// Skewed dispatch with a mid-run self-modifying write: halfway through
/// the run — long after the site has warmed past any reasonable threshold
/// — the program stores into h0's code bytes (rewriting the same value, so
/// semantics are unchanged). The write must invalidate h0's fragment and
/// re-route any chain arm aimed at it; the second half relinks it.
Program smcDispatchProgram(int Iters) {
  std::string Table = "table: .word";
  for (int I = 0; I != 12; ++I)
    Table += " h0";
  Table += " h1 h1 h2 h3\n";
  return assembleOrDie(R"(
    .entry main
  )" + Table + R"(
    main:
      mov esi, 0
      mov eax, 12345
      mov edi, )" + std::to_string(Iters) + R"(
    loop:
      imul eax, eax, 1103515245
      add eax, 12345
      mov ecx, eax
      shr ecx, 16
      and ecx, 15
      shl ecx, 2
      jmp [table+ecx]
    h0:
      add esi, 1
      jmp next
    h1:
      add esi, 17
      jmp next
    h2:
      add esi, 257
      jmp next
    h3:
      add esi, 4097
      jmp next
    next:
      and esi, 0xFFFFFF
      dec edi
      jz exit
      cmp edi, )" + std::to_string(Iters / 2) + R"(
      jnz loop
      mov ebx, [h0]
      mov [h0], ebx
      jmp loop
    exit:
      mov ebx, esi
      mov eax, 2
      int 0x80
      mov ebx, 0
      mov eax, 1
      int 0x80
  )");
}

/// Two workers, each with its own skewed dispatch loop interleaved with
/// laps of one-shot filler blocks (cache pressure, as in
/// pressureDispatchProgram), joined through flags; the combined checksum
/// prints at the end. Deterministic under any fair schedule.
Program threadedDispatchProgram(int Laps, int Iters, int Fillers) {
  std::string S = R"(
    .entry main
    results: .space 16
    flags:   .space 16
    stacks:  .space 4096
  )";
  for (int W = 0; W != 2; ++W) {
    std::string Id = std::to_string(W);
    S += "table" + Id + ": .word";
    for (int I = 0; I != 12; ++I)
      S += " w" + Id + "h0";
    S += " w" + Id + "h1 w" + Id + "h1 w" + Id + "h2 w" + Id + "h3\n";
  }
  S += R"(
    main:
      mov ebx, worker0
      mov ecx, stacks+2048
      mov eax, 5
      int 0x80
      mov ebx, worker1
      mov ecx, stacks+4096
      mov eax, 5
      int 0x80
    join:
      mov eax, [flags+0]
      test eax, eax
      jz join
    join2:
      mov eax, [flags+4]
      test eax, eax
      jz join2
      mov esi, [results+0]
      add esi, [results+4]
      and esi, 0xFFFFFF
      mov ebx, esi
      mov eax, 2
      int 0x80
      mov ebx, 0
      mov eax, 1
      int 0x80
  )";
  for (int W = 0; W != 2; ++W) {
    std::string Id = std::to_string(W);
    S += "worker" + Id + ":\n";
    S += "  mov esi, 0\n";
    S += "  mov eax, " + std::to_string(777 + W * 1000) + "\n";
    S += "  mov ebp, " + std::to_string(Laps) + "\n";
    S += "w" + Id + "lap:\n";
    S += "  mov edi, " + std::to_string(Iters) + "\n";
    S += "w" + Id + "loop:\n";
    S += "  imul eax, eax, 1103515245\n";
    S += "  add eax, 12345\n";
    S += "  mov ecx, eax\n";
    S += "  shr ecx, 16\n";
    S += "  and ecx, 15\n";
    S += "  shl ecx, 2\n";
    S += "  jmp [table" + Id + "+ecx]\n";
    S += "w" + Id + "h0:\n  add esi, 1\n  jmp w" + Id + "next\n";
    S += "w" + Id + "h1:\n  add esi, 17\n  jmp w" + Id + "next\n";
    S += "w" + Id + "h2:\n  add esi, 257\n  jmp w" + Id + "next\n";
    S += "w" + Id + "h3:\n  add esi, 4097\n  jmp w" + Id + "next\n";
    S += "w" + Id + "next:\n";
    S += "  and esi, 0xFFFFFF\n";
    S += "  dec edi\n";
    S += "  jnz w" + Id + "loop\n";
    S += "  jmp w" + Id + "f0\n";
    for (int I = 0; I != Fillers; ++I) {
      S += "w" + Id + "f" + std::to_string(I) + ":\n";
      S += "  add esi, " +
           std::to_string(((I + W * 7) * 2654435761u >> 10) & 0xFFFF) + "\n";
      S += "  and esi, 0xFFFFFF\n";
      S += "  jmp w" + Id + "f" + std::to_string(I + 1) + "\n";
    }
    S += "w" + Id + "f" + std::to_string(Fillers) + ":\n";
    S += "  dec ebp\n";
    S += "  jnz w" + Id + "lap\n";
    S += "  mov [results+" + std::to_string(W * 4) + "], esi\n";
    S += "  mov eax, 1\n";
    S += "  mov [flags+" + std::to_string(W * 4) + "], eax\n";
    S += "  mov eax, 6\n";
    S += "  int 0x80\n";
  }
  return assembleOrDie(S);
}

struct CachedRun {
  std::string Output;
  uint64_t Cycles = 0;
  StatisticSet Stats;
  CpuState FinalCpu;
};

CachedRun runUnder(const Program &P, const RuntimeConfig &Cfg,
                   Client *C = nullptr) {
  Machine M;
  EXPECT_TRUE(loadProgram(M, P));
  CachedRun Out;
  {
    Runtime RT(M, Cfg, C);
    RunResult R = RT.run();
    EXPECT_EQ(R.Status, RunStatus::Exited) << R.FaultReason;
    Out.Stats = RT.stats();
  }
  Out.Output = M.output();
  Out.Cycles = M.cycles();
  Out.FinalCpu = M.cpu();
  return Out;
}

RuntimeConfig ibOn(RuntimeConfig Cfg) {
  Cfg.IbInline = true;
  return Cfg;
}

//===----------------------------------------------------------------------===//
// Chain semantics: hits, misses, threshold, skew
//===----------------------------------------------------------------------===//

TEST(IbInline, ChainHitAndMissSemantics) {
  Program P = skewedDispatchProgram(3000);
  NativeRun Native = runNative(P);

  CachedRun Off = runUnder(P, RuntimeConfig::linkIndirect());
  CachedRun On = runUnder(P, ibOn(RuntimeConfig::linkIndirect()));

  EXPECT_EQ(Off.Output, Native.Output);
  EXPECT_EQ(On.Output, Native.Output);

  // The hot site crossed the threshold and was rewritten once; hot targets
  // hit the chain, the cold tail still falls through to the IBL.
  EXPECT_EQ(On.Stats.get("ib_inline_rewrites"), 1u);
  EXPECT_GT(On.Stats.get("ib_inline_hits"), 1000u);
  EXPECT_GT(On.Stats.get("ib_inline_misses"), 0u);
  EXPECT_GT(On.Stats.get("ib_inline_spills_collapsed"), 0u);

  // The whole point: linked chain checks are cheaper than IBL lookups.
  EXPECT_LT(On.Cycles, Off.Cycles);
}

TEST(IbInline, RetSitesProfileAndRewrite) {
  Program P = skewedRetProgram(2000);
  NativeRun Native = runNative(P);

  CachedRun On = runUnder(P, ibOn(RuntimeConfig::linkIndirect()));
  EXPECT_EQ(On.Output, Native.Output);
  EXPECT_GE(On.Stats.get("ib_inline_rewrites"), 1u);
  EXPECT_GT(On.Stats.get("ib_inline_hits"), 0u);
}

TEST(IbInline, ThresholdGatesRewriting) {
  Program P = skewedDispatchProgram(3000);
  RuntimeConfig Cfg = ibOn(RuntimeConfig::linkIndirect());
  Cfg.IbInlineThreshold = 1000000; // never reached
  CachedRun Gated = runUnder(P, Cfg);
  CachedRun Off = runUnder(P, RuntimeConfig::linkIndirect());

  EXPECT_EQ(Gated.Stats.get("ib_inline_rewrites"), 0u);
  EXPECT_EQ(Gated.Stats.get("ib_inline_hits"), 0u);
  // Profiling is host-side only: with no rewrite ever triggered, the
  // feature must be simulated-cycle-invisible.
  EXPECT_EQ(Gated.Cycles, Off.Cycles);
  EXPECT_EQ(Gated.Output, Off.Output);
}

TEST(IbInline, UniformDistributionIsNotSkewedEnough) {
  Program P = uniformDispatchProgram(3000);
  NativeRun Native = runNative(P);
  CachedRun On = runUnder(P, ibOn(RuntimeConfig::linkIndirect()));
  EXPECT_EQ(On.Output, Native.Output);
  // 16 equally warm targets: the top four cover a quarter of the
  // arrivals, under the one-third skew bar.
  EXPECT_EQ(On.Stats.get("ib_inline_rewrites"), 0u);
}

TEST(IbInline, FeatureOffIsBitIdentical) {
  Program P = skewedDispatchProgram(2000);
  CachedRun A = runUnder(P, RuntimeConfig::full());
  RuntimeConfig Cfg = RuntimeConfig::full();
  Cfg.IbInline = false; // explicit default
  CachedRun B = runUnder(P, Cfg);
  EXPECT_EQ(A.Cycles, B.Cycles);
  EXPECT_EQ(A.Output, B.Output);
  EXPECT_EQ(A.Stats.get("ib_inline_rewrites"), 0u);
}

TEST(IbInline, TransparentUnderTraces) {
  Program P = skewedDispatchProgram(3000);
  NativeRun Native = runNative(P);
  CachedRun On = runUnder(P, ibOn(RuntimeConfig::full()));
  EXPECT_EQ(On.Output, Native.Output);
}

/// Calls through an esp-relative operand into callees that return with
/// `ret 8`, popping the two words the caller pushed: the function pointer
/// (the `call [esp+4]` operand, read before the call pushes) and the
/// argument. One pointer in eight selects the cold callee, so both the
/// call site and the `ret 8` sites see a skewed mix of targets.
Program espCallRetImmProgram(int Iters) {
  return assembleOrDie(R"(
    .entry main
    main:
      mov esi, 0
      mov edi, )" + std::to_string(Iters) + R"(
    loop:
      mov eax, hot
      test edi, 7
      jnz push_fn
      mov eax, cold
    push_fn:
      push eax
      push edi
      call [esp+4]
      and esi, 0xFFFFFF
      dec edi
      jnz loop
      mov ebx, esi
      mov eax, 2
      int 0x80
      mov ebx, 0
      mov eax, 1
      int 0x80
    hot:
      mov ecx, [esp+4]
      add esi, ecx
      ret 8
    cold:
      mov ecx, [esp+4]
      imul ecx, ecx, 3
      add esi, ecx
      ret 8
  )");
}

TEST(IbInline, RetImmAndEspRelativeCallTargets) {
  // The target loads no workload reaches: `ret N` and `call [esp+k]`, once
  // as checks inlined into a trace and once as rewritten IbInline sites.
  Program P = espCallRetImmProgram(3000);
  NativeRun Native = runNative(P);
  ASSERT_EQ(Native.Status, RunStatus::Exited);

  // Traces alone inline both sites' checks (twice: one trace per callee);
  // IbInline alone rewrites the call site and both `ret 8` sites; with
  // both, the chain lands on a trace's inline miss path.
  struct {
    RuntimeConfig Cfg;
    uint64_t MinInlined, MinRewrites;
  } const Cases[] = {{RuntimeConfig::full(), 2, 0},
                     {ibOn(RuntimeConfig::linkIndirect()), 0, 3},
                     {ibOn(RuntimeConfig::full()), 2, 1}};
  for (const auto &C : Cases) {
    CachedRun R = runUnder(P, C.Cfg);
    EXPECT_EQ(R.Output, Native.Output);
    for (unsigned Reg = 0; Reg != 8; ++Reg)
      EXPECT_EQ(R.FinalCpu.Gpr[Reg], Native.FinalCpu.Gpr[Reg]) << "gpr " << Reg;
    EXPECT_EQ(R.FinalCpu.Eflags, Native.FinalCpu.Eflags);
    EXPECT_GE(R.Stats.get("indirect_branches_inlined"), C.MinInlined);
    EXPECT_GE(R.Stats.get("ib_inline_rewrites"), C.MinRewrites);
  }
}

//===----------------------------------------------------------------------===//
// Arm re-routing: eviction, region flush, SMC — both sharing modes
//===----------------------------------------------------------------------===//

TEST(IbInline, ArmReroutesAfterTargetEviction) {
  Program P = pressureDispatchProgram(4, 1000, 80);
  NativeRun Native = runNative(P);

  RuntimeConfig Cfg = ibOn(RuntimeConfig::linkIndirect());
  // The 80-block filler lap (~2.5KB of fragments) overflows a 2KB block
  // cache every lap, evicting the chain targets between dispatch bursts.
  Cfg.BbCacheSize = 2048;
  CachedRun On = runUnder(P, Cfg);

  EXPECT_EQ(On.Output, Native.Output);
  EXPECT_GE(On.Stats.get("ib_inline_rewrites"), 1u);
  // Targets were evicted out from under live chains (arm unlink) and
  // relinked by the IBL probe once rebuilt.
  EXPECT_GE(On.Stats.get("ib_inline_chain_evictions"), 1u);
  EXPECT_GE(On.Stats.get("ib_inline_arm_relinks"), 1u);
}

TEST(IbInline, ArmReroutesAfterRegionFlush) {
  Program P = skewedDispatchProgram(6000);
  NativeRun Native = runNative(P);

  Machine M;
  ASSERT_TRUE(loadProgram(M, P));
  Runtime RT(M, ibOn(RuntimeConfig::linkIndirect()));

  // Run until the hot site has been rewritten, then flush two of the
  // warm targets while suspended. h2 and h3 are used (not h0) because
  // h0's bytes adjoin the dispatch block, whose synthetic-instruction app
  // range conservatively reaches past the site: flushing h0 would take
  // the chain owner with it. The chain holds h0 plus three of the four
  // 1/16 targets, so at least one of h2/h3 always owns an arm.
  RunResult R;
  do {
    R = RT.runFor(2000);
    ASSERT_EQ(M.status(), RunStatus::Running) << R.FaultReason;
  } while (RT.stats().get("ib_inline_rewrites") == 0 &&
           M.instructionsExecuted() < 2000000);
  ASSERT_GE(RT.stats().get("ib_inline_rewrites"), 1u);

  AppPc H2 = P.symbol("h2");
  AppPc H3 = P.symbol("h3");
  ASSERT_NE(H2, 0u);
  ASSERT_NE(H3, 0u);
  RT.flushRegion(H2, 4);
  RT.flushRegion(H3, 4);
  uint64_t Unlinks = RT.stats().get("ib_inline_chain_evictions");
  EXPECT_GE(Unlinks, 1u);

  R = RT.run();
  ASSERT_EQ(R.Status, RunStatus::Exited) << R.FaultReason;
  EXPECT_EQ(M.output(), Native.Output);
  // The flushed targets were rebuilt on their next arrivals and the arms
  // patched direct again by the IBL-hit probe.
  EXPECT_GE(RT.stats().get("ib_inline_arm_relinks"), 1u);
}

TEST(IbInline, ArmReroutesAfterSmcInvalidation) {
  Program P = smcDispatchProgram(2500);
  NativeRun Native = runNative(P);

  CachedRun On = runUnder(P, ibOn(RuntimeConfig::linkIndirect()));
  EXPECT_EQ(On.Output, Native.Output);
  EXPECT_GE(On.Stats.get("ib_inline_rewrites"), 1u);
  EXPECT_GE(On.Stats.get("smc_invalidations"), 1u);
  EXPECT_GE(On.Stats.get("ib_inline_chain_evictions"), 1u);
  EXPECT_GE(On.Stats.get("ib_inline_arm_relinks"), 1u);
}

TEST(IbInline, ThreadPrivateModeReroutesUnderPressure) {
  Program P = threadedDispatchProgram(3, 800, 60);
  Machine Native;
  ASSERT_TRUE(loadProgram(Native, P));
  RunResult NR = runThreadedNative(Native);
  ASSERT_EQ(NR.Status, RunStatus::Exited);

  Machine M;
  ASSERT_TRUE(loadProgram(M, P));
  RuntimeConfig Cfg = ibOn(RuntimeConfig::linkIndirect());
  Cfg.BbCacheSize = 2048;
  Cfg.MaxThreads = 4;
  ThreadedRunner Runner(M, Cfg);
  RunResult R = Runner.run();
  ASSERT_EQ(R.Status, RunStatus::Exited) << R.FaultReason;
  EXPECT_EQ(M.output(), Native.output());

  uint64_t Rewrites = 0, Evictions = 0, Relinks = 0;
  for (unsigned Tid = 0; Tid != 8; ++Tid)
    if (Runtime *RT = Runner.runtimeFor(Tid)) {
      Rewrites += RT->stats().get("ib_inline_rewrites");
      Evictions += RT->stats().get("ib_inline_chain_evictions");
      Relinks += RT->stats().get("ib_inline_arm_relinks");
    }
  EXPECT_GE(Rewrites, 1u);
  EXPECT_GE(Evictions, 1u);
  EXPECT_GE(Relinks, 1u);
}

TEST(IbInline, SharedModeReroutesUnderPressure) {
  Program P = threadedDispatchProgram(3, 800, 60);
  Machine Native;
  ASSERT_TRUE(loadProgram(Native, P));
  RunResult NR = runThreadedNative(Native);
  ASSERT_EQ(NR.Status, RunStatus::Exited);

  Machine M;
  ASSERT_TRUE(loadProgram(M, P));
  RuntimeConfig Cfg = ibOn(RuntimeConfig::linkIndirect());
  Cfg.Sharing = CacheSharing::Shared;
  Cfg.BbCacheSize = 4096;
  ThreadedRunner Runner(M, Cfg);
  RunResult R = Runner.run();
  ASSERT_EQ(R.Status, RunStatus::Exited) << R.FaultReason;
  EXPECT_EQ(M.output(), Native.output());

  Runtime *RT = Runner.runtimeFor(0);
  ASSERT_NE(RT, nullptr);
  EXPECT_GE(RT->stats().get("ib_inline_rewrites"), 1u);
  EXPECT_GE(RT->stats().get("ib_inline_chain_evictions"), 1u);
  EXPECT_GE(RT->stats().get("ib_inline_arm_relinks"), 1u);
}

//===----------------------------------------------------------------------===//
// savef/restf elision under rewriting
//===----------------------------------------------------------------------===//

/// Instruments every block with a flags-clobbering counter bump bracketed
/// by savef/restf — the conservative pattern the rewrite's liveness pass
/// is allowed to clean up exactly when the flags are provably dead.
class FlagClobberClient : public Client {
public:
  void onBasicBlock(Runtime &RT, AppPc, InstrList &IL) override {
    // The API mirror of RuntimeConfig::IbInline; a client that inlines
    // dispatch itself would branch on this.
    EXPECT_TRUE(dr_ib_inlining_enabled(&RT));
    Arena &A = IL.arena();
    uint32_t Flags = RT.slots().ScratchSlots + 0;
    uint32_t Counter = RT.slots().ScratchSlots + 4;
    Operand Ecx = Operand::reg(REG_ECX);
    Operand Spill = Operand::memAbs(RT.slots().SpillSlots + 12, 4);
    Instr *Seq[7] = {
        Instr::createSynth(A, OP_savef, {Operand::memAbs(Flags, 4)}),
        Instr::createSynth(A, OP_mov, {Spill, Ecx}),
        Instr::createSynth(A, OP_mov, {Ecx, Operand::memAbs(Counter, 4)}),
        Instr::createSynth(A, OP_add, {Ecx, Operand::imm(1, 4)}),
        Instr::createSynth(A, OP_mov, {Operand::memAbs(Counter, 4), Ecx}),
        Instr::createSynth(A, OP_mov, {Ecx, Spill}),
        Instr::createSynth(A, OP_restf, {Operand::memAbs(Flags, 4)}),
    };
    Instr *First = IL.first();
    for (Instr *I : Seq) {
      ASSERT_NE(I, nullptr);
      if (First)
        IL.insertBefore(First, I);
      else
        IL.append(I);
    }
  }
};

TEST(IbInline, SavefRestfElisionIsFlagSafe) {
  // Flags are genuinely live across block boundaries here: `jz` ends a
  // block and the following `jb` (a new block's first instruction) still
  // reads the same cmp's carry — the instrumentation's flag save/restore
  // is load-bearing, and the rewrite must keep it.
  Program P = assembleOrDie(R"(
    .entry main
    table: .word h0 h0 h0 h1
    main:
      mov esi, 0
      mov edi, 2000
    loop:
      mov eax, edi
      and eax, 3
      shl eax, 2
      jmp [table+eax]
    h0:
      add esi, 2
      jmp check
    h1:
      add esi, 9
      jmp check
    check:
      cmp esi, 1000000
      jz done
      jb small
      sub esi, 999983
    small:
      dec edi
      jnz loop
    done:
      mov ebx, esi
      mov eax, 2
      int 0x80
      mov ebx, 0
      mov eax, 1
      int 0x80
  )");
  NativeRun Native = runNative(P);

  FlagClobberClient C;
  RuntimeConfig Cfg = ibOn(RuntimeConfig::linkIndirect());
  Cfg.IbInlineThreshold = 32;
  CachedRun On = runUnder(P, Cfg, &C);
  EXPECT_EQ(On.Output, Native.Output);
  EXPECT_GE(On.Stats.get("ib_inline_rewrites"), 1u);
}

TEST(IbInline, SavefRestfPairsElideWhenFlagsDead) {
  // In the dispatch block the instrumented savef/restf is followed by an
  // `imul/add/and` run that rewrites every flag before any branch reads
  // them — the rewrite's liveness pass must delete the pair.
  Program P = skewedDispatchProgram(3000);
  NativeRun Native = runNative(P);

  FlagClobberClient C;
  CachedRun On = runUnder(P, ibOn(RuntimeConfig::linkIndirect()), &C);
  EXPECT_EQ(On.Output, Native.Output);
  EXPECT_GE(On.Stats.get("ib_inline_rewrites"), 1u);
  EXPECT_GE(On.Stats.get("ib_inline_flag_pairs_elided"), 1u);
}

//===----------------------------------------------------------------------===//
// On-mode cycle golden
//===----------------------------------------------------------------------===//

TEST(IbInline, OnModeCycleGolden) {
  // Companion to stats_parity_test's feature-off goldens: pins the
  // on-mode cost model so chain costs cannot drift silently. Update only
  // for intentional cost-model or codegen changes.
  Program P = skewedDispatchProgram(3000);
  CachedRun On = runUnder(P, ibOn(RuntimeConfig::linkIndirect()));
  CachedRun Off = runUnder(P, RuntimeConfig::linkIndirect());
  EXPECT_EQ(On.Output, Off.Output);
  EXPECT_EQ(On.Stats.get("ib_inline_rewrites"), 1u);

  const uint64_t GoldenOnCycles = 155626;
  const uint64_t GoldenOffCycles = 168648;
  EXPECT_EQ(On.Cycles, GoldenOnCycles);
  EXPECT_EQ(Off.Cycles, GoldenOffCycles);
  EXPECT_EQ(On.Stats.get("ib_inline_hits"), 2757u);
  EXPECT_EQ(On.Stats.get("ib_inline_misses"), 179u);
}

} // namespace
