//===- tests/vm_test.cpp - Simulated machine tests ---------------------------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "ir/Instr.h"
#include "support/Arena.h"
#include "vm/Syscall.h"

#include <cstring>
#include <new>

using namespace rio;
using namespace rio::test;

namespace {

TEST(VmBasic, ExitCode) {
  NativeRun R = runSource(R"(
    main:
      mov ebx, 42
      mov eax, 1
      int 0x80
  )");
  EXPECT_EQ(R.ExitCode, 42);
  EXPECT_TRUE(R.Output.empty());
}

TEST(VmBasic, PrintInt) {
  NativeRun R = runSource(R"(
    main:
      mov ebx, -123
      mov eax, 2
      int 0x80
      mov ebx, 7
      mov eax, 2
      int 0x80
      mov ebx, 0
      mov eax, 1
      int 0x80
  )");
  EXPECT_EQ(R.Output, "-123\n7\n");
}

TEST(VmBasic, WriteSyscall) {
  NativeRun R = runSource(R"(
    msg: .asciz "hello\n"
    main:
      mov ebx, 1
      mov ecx, msg
      mov edx, 6
      mov eax, 4
      int 0x80
      mov ebx, 0
      mov eax, 1
      int 0x80
  )");
  EXPECT_EQ(R.Output, "hello\n");
}

TEST(VmBasic, HltExitsCleanly) {
  NativeRun R = runSource(R"(
    main:
      hlt
  )");
  EXPECT_EQ(R.ExitCode, 0);
}

TEST(VmArith, AddSubFlags) {
  // 0xFFFFFFFF + 1 = 0 with CF=1 ZF=1; then jb taken.
  NativeRun R = runSource(R"(
    main:
      mov eax, 0xFFFFFFFF
      add eax, 1
      jnb bad
      jnz bad
      mov ebx, 1
      jmp done
    bad:
      mov ebx, 0
    done:
      mov eax, 1
      int 0x80
  )");
  EXPECT_EQ(R.ExitCode, 1);
}

TEST(VmArith, SignedOverflow) {
  // INT_MAX + 1 overflows: OF set, jo taken.
  NativeRun R = runSource(R"(
    main:
      mov eax, 0x7FFFFFFF
      add eax, 1
      jo good
      mov ebx, 0
      jmp done
    good:
      mov ebx, 1
    done:
      mov eax, 1
      int 0x80
  )");
  EXPECT_EQ(R.ExitCode, 1);
}

TEST(VmArith, IncPreservesCarry) {
  // Set CF via cmp (0 < 1), then inc; CF must survive for the jb.
  NativeRun R = runSource(R"(
    main:
      mov ecx, 0
      cmp ecx, 1
      inc ecx
      jb carry_alive
      mov ebx, 0
      jmp done
    carry_alive:
      mov ebx, 1
    done:
      mov eax, 1
      int 0x80
  )");
  EXPECT_EQ(R.ExitCode, 1);
}

TEST(VmArith, AddClearsCarryWhereIncWouldNot) {
  // Same as above but with add 1: CF is rewritten (to 0 here).
  NativeRun R = runSource(R"(
    main:
      mov ecx, 0
      cmp ecx, 1
      add ecx, 1
      jb bad
      mov ebx, 1
      jmp done
    bad:
      mov ebx, 0
    done:
      mov eax, 1
      int 0x80
  )");
  EXPECT_EQ(R.ExitCode, 1);
}

TEST(VmArith, MulDivCdq) {
  NativeRun R = runSource(R"(
    main:
      mov eax, 100000
      mov ecx, 30000
      mul ecx             ; edx:eax = 3,000,000,000
      mov ebx, edx        ; high word -> 0 (3e9 < 2^32)
      mov eax, 2
      int 0x80            ; print 0? no: print ebx... print_int prints ebx
      mov eax, -7
      cdq
      mov ecx, 2
      idiv ecx            ; eax = -3, edx = -1
      mov ebx, eax
      mov eax, 2
      int 0x80
      mov ebx, edx
      mov eax, 2
      int 0x80
      mov ebx, 0
      mov eax, 1
      int 0x80
  )");
  EXPECT_EQ(R.Output, "0\n-3\n-1\n");
}

TEST(VmArith, DivideByZeroFaults) {
  Program P = assembleOrDie(R"(
    main:
      mov eax, 5
      cdq
      mov ecx, 0
      idiv ecx
      hlt
  )");
  NativeRun R = runNative(P);
  EXPECT_EQ(R.Status, RunStatus::Faulted);
  EXPECT_NE(R.FaultReason.find("divide"), std::string::npos);
}

TEST(VmArith, Shifts) {
  NativeRun R = runSource(R"(
    main:
      mov eax, 1
      shl eax, 4          ; 16
      mov ebx, eax
      mov eax, 2
      int 0x80
      mov eax, -32
      sar eax, 2          ; -8
      mov ebx, eax
      mov eax, 2
      int 0x80
      mov eax, 0x80000000
      shr eax, 31         ; 1
      mov ebx, eax
      mov eax, 2
      int 0x80
      mov ecx, 3
      mov eax, 1
      shl eax, cl         ; 8
      mov ebx, eax
      mov eax, 2
      int 0x80
      mov ebx, 0
      mov eax, 1
      int 0x80
  )");
  EXPECT_EQ(R.Output, "16\n-8\n1\n8\n");
}

TEST(VmMemory, LoadsStoresAndAddressing) {
  NativeRun R = runSource(R"(
    arr: .word 10 20 30 40
    b:   .byte 0xFF 0x7F
    main:
      mov esi, arr
      mov eax, [esi+4]        ; 20
      mov ebx, eax
      mov eax, 2
      int 0x80
      mov ecx, 3
      mov eax, [arr+ecx*4]    ; 40
      mov ebx, eax
      mov eax, 2
      int 0x80
      movzxb eax, [b]         ; 255
      mov ebx, eax
      mov eax, 2
      int 0x80
      movsxb eax, [b]         ; -1
      mov [arr], eax          ; arr[0] = -1
      mov ebx, eax
      mov eax, 2
      int 0x80
      mov ebx, [arr]
      mov eax, 2
      int 0x80
      mov ebx, 0
      mov eax, 1
      int 0x80
  )");
  EXPECT_EQ(R.Output, "20\n40\n255\n-1\n-1\n");
}

TEST(VmMemory, OutOfBoundsFaults) {
  Program P = assembleOrDie(R"(
    main:
      mov eax, [0xFFFFFFF0]
      hlt
  )");
  NativeRun R = runNative(P);
  EXPECT_EQ(R.Status, RunStatus::Faulted);
}

TEST(VmStack, PushPopCallRet) {
  NativeRun R = runSource(R"(
    main:
      mov eax, 5
      call double_it
      mov ebx, eax
      mov eax, 2
      int 0x80          ; 10
      push 33
      pop ebx
      mov eax, 2
      int 0x80          ; 33
      mov ebx, 0
      mov eax, 1
      int 0x80
    double_it:
      add eax, eax
      ret
  )");
  EXPECT_EQ(R.Output, "10\n33\n");
}

TEST(VmStack, RetImmPopsArgs) {
  NativeRun R = runSource(R"(
    main:
      mov edi, esp
      push 7
      push 8
      call take_two
      cmp esp, edi          ; callee popped its args
      jnz bad
      mov ebx, eax
      mov eax, 2
      int 0x80              ; 15
      mov ebx, 0
      mov eax, 1
      int 0x80
    bad:
      mov ebx, 1
      mov eax, 1
      int 0x80
    take_two:
      mov eax, [esp+4]      ; 8
      add eax, [esp+8]      ; +7
      ret 8
  )");
  EXPECT_EQ(R.Output, "15\n");
  EXPECT_EQ(R.ExitCode, 0);
}

TEST(VmIndirect, JumpTableAndIndirectCall) {
  NativeRun R = runSource(R"(
    table: .word h0 h1 h2
    main:
      mov esi, 0
    loop:
      mov eax, esi
      call [table+eax*4]
      mov ebx, eax
      mov eax, 2
      int 0x80
      inc esi
      cmp esi, 3
      jnz loop
      mov ebx, 0
      mov eax, 1
      int 0x80
    h0:
      mov eax, 100
      ret
    h1:
      mov eax, 200
      ret
    h2:
      mov eax, 300
      ret
  )");
  EXPECT_EQ(R.Output, "100\n200\n300\n");
}

TEST(VmFp, ScalarDoubleArithmetic) {
  NativeRun R = runSource(R"(
    vals: .f64 1.5 2.25
    main:
      movsd xmm0, [vals]
      movsd xmm1, [vals+8]
      addsd xmm0, xmm1          ; 3.75
      mulsd xmm0, xmm1          ; 8.4375
      mov eax, 4
      cvtsi2sd xmm2, eax        ; 4.0
      mulsd xmm0, xmm2          ; 33.75
      cvttsd2si ebx, xmm0       ; 33
      mov eax, 2
      int 0x80
      mov ebx, 0
      mov eax, 1
      int 0x80
  )");
  EXPECT_EQ(R.Output, "33\n");
}

TEST(VmFp, UcomisdComparison) {
  NativeRun R = runSource(R"(
    vals: .f64 1.0 2.0
    main:
      movsd xmm0, [vals]
      movsd xmm1, [vals+8]
      ucomisd xmm0, xmm1
      jb less                   ; 1.0 < 2.0: CF set
      mov ebx, 0
      jmp done
    less:
      mov ebx, 1
    done:
      mov eax, 1
      int 0x80
  )");
  EXPECT_EQ(R.ExitCode, 1);
}

TEST(VmFlags, SavefRestfRoundTrip) {
  NativeRun R = runSource(R"(
    slot: .word 0
    main:
      mov eax, 0xFFFFFFFF
      add eax, 1            ; CF=1 ZF=1
      savef [slot]
      mov eax, 5
      add eax, 5            ; clobbers flags (CF=0 ZF=0)
      restf [slot]
      jnb bad               ; CF must be restored to 1
      jnz bad
      mov ebx, 1
      jmp done
    bad:
      mov ebx, 0
    done:
      mov eax, 1
      int 0x80
  )");
  EXPECT_EQ(R.ExitCode, 1);
}

TEST(VmCost, LoopCostScalesLinearly) {
  auto TimeFor = [](int N) {
    Program P = assembleOrDie(
        "main:\n mov ecx, " + std::to_string(N) + "\nloop:\n dec ecx\n jnz loop\n hlt\n");
    return runNative(P).Cycles;
  };
  uint64_t C1 = TimeFor(1000);
  uint64_t C2 = TimeFor(2000);
  // Roughly double (predictor warmup makes it slightly sublinear).
  EXPECT_GT(C2, C1 + (C1 / 2));
  EXPECT_LT(C2, C1 * 5 / 2);
}

TEST(VmCost, MispredictionCostsShow) {
  // A data-dependent unpredictable branch pattern costs more than a
  // perfectly biased one with identical instruction counts.
  auto Run = [](const char *Sel) {
    std::string Src = R"(
    main:
      mov esi, 12345        ; lcg state
      mov edi, 0            ; counter
      mov ecx, 20000
    loop:
      imul esi, esi, 1103515245
      add esi, 12345
      mov eax, esi
      shr eax, )";
    Src += Sel;
    Src += R"(
      test eax, 1
      jz skip
      inc edi
    skip:
      dec ecx
      jnz loop
      hlt
  )";
    return runNative(assembleOrDie(Src)).Cycles;
  };
  uint64_t Random = Run("16");  // low-entropy-free bit: unpredictable
  uint64_t Biased = Run("31");  // sign bit of LCG: also varies... use 0
  (void)Biased;
  uint64_t AlwaysZero = Run("1");
  (void)AlwaysZero;
  // The unpredictable variant must be measurably slower than at least one
  // of the biased ones.
  EXPECT_GT(Random, std::min(Biased, AlwaysZero));
}

TEST(VmCost, P3vsP4IncCost) {
  Program P = assembleOrDie(R"(
    main:
      mov ecx, 10000
    loop:
      inc eax
      inc eax
      inc eax
      inc eax
      dec ecx
      jnz loop
      hlt
  )");
  MachineConfig P4;
  P4.Cost = CostModel::pentiumIV();
  MachineConfig P3;
  P3.Cost = CostModel::pentiumIII();
  uint64_t CyclesP4 = runNative(P, P4).Cycles;
  uint64_t CyclesP3 = runNative(P, P3).Cycles;
  EXPECT_GT(CyclesP4, CyclesP3) << "inc must be slower on the P4 model";
}

TEST(VmDeterminism, SameProgramSameCycles) {
  Program P = assembleOrDie(R"(
    main:
      mov ecx, 5000
      mov eax, 0
    loop:
      add eax, ecx
      dec ecx
      jnz loop
      mov ebx, eax
      mov eax, 1
      int 0x80
  )");
  NativeRun A = runNative(P);
  NativeRun B = runNative(P);
  EXPECT_EQ(A.Cycles, B.Cycles);
  EXPECT_EQ(A.Instructions, B.Instructions);
  EXPECT_EQ(A.ExitCode, B.ExitCode);
  EXPECT_EQ(A.ExitCode, int(5000 * 5001 / 2));
}

} // namespace

namespace {

TEST(Predictors, TwoBitCounterHysteresis) {
  BranchPredictors P;
  AppPc Pc = 0x1000;
  // Initial state is weakly not-taken: the first taken branch mispredicts.
  EXPECT_FALSE(P.predictCond(Pc, true));
  // One taken -> strongly-enough taken to predict the next correctly.
  EXPECT_TRUE(P.predictCond(Pc, true));
  EXPECT_TRUE(P.predictCond(Pc, true));
  // A single reversal in a taken stream mispredicts once...
  EXPECT_FALSE(P.predictCond(Pc, false));
  // ...but hysteresis keeps predicting taken right after.
  EXPECT_TRUE(P.predictCond(Pc, true));
}

TEST(Predictors, BtbTracksLastTarget) {
  BranchPredictors P;
  AppPc Site = 0x2000;
  EXPECT_FALSE(P.predictIndirect(Site, 0x3000)); // cold
  EXPECT_TRUE(P.predictIndirect(Site, 0x3000));  // repeated target
  EXPECT_FALSE(P.predictIndirect(Site, 0x4000)); // changed target
  EXPECT_TRUE(P.predictIndirect(Site, 0x4000));
}

TEST(Predictors, ReturnStackMatchesCallDepth) {
  BranchPredictors P;
  P.pushReturn(0x1111);
  P.pushReturn(0x2222);
  P.pushReturn(0x3333);
  EXPECT_TRUE(P.popReturn(0x3333));
  EXPECT_TRUE(P.popReturn(0x2222));
  EXPECT_FALSE(P.popReturn(0x9999)); // wrong return address
  EXPECT_FALSE(P.popReturn(0x1111)); // stack already consumed
}

TEST(Predictors, ResetClearsEveryTable) {
  // The persistent cache image serializes all three tables verbatim, so
  // no word may keep whatever bytes the storage held before construction.
  alignas(BranchPredictors) unsigned char Storage[sizeof(BranchPredictors)];
  std::memset(Storage, 0xAB, sizeof(Storage));
  BranchPredictors *P = new (Storage) BranchPredictors();
  for (unsigned I = 0; I != BranchPredictors::CondEntries; ++I)
    EXPECT_EQ(P->condTable()[I], 1u);
  for (unsigned I = 0; I != BranchPredictors::BtbEntries; ++I)
    EXPECT_EQ(P->btb()[I], 0u);
  for (unsigned I = 0; I != BranchPredictors::RasDepth; ++I)
    EXPECT_EQ(P->ras()[I], 0u) << "ras " << I;
  EXPECT_EQ(P->rasTop(), 0u);
  P->~BranchPredictors();
}

TEST(Predictors, RasOverflowWrapsGracefully) {
  BranchPredictors P;
  for (unsigned I = 0; I != 100; ++I) // deeper than the 64-entry stack
    P.pushReturn(0x1000 + I * 4);
  // The newest 64 still predict correctly.
  for (unsigned I = 99;; --I) {
    bool Hit = P.popReturn(0x1000 + I * 4);
    if (I >= 36) {
      EXPECT_TRUE(Hit) << I;
    }
    if (I == 36)
      break;
  }
}

//===----------------------------------------------------------------------===//
// Decode cache (direct-mapped, pc-tagged)
//===----------------------------------------------------------------------===//

/// Encodes \p I at \p Pc in \p M's memory; returns the encoded length.
unsigned placeInstr(Machine &M, uint32_t Pc, Instr *I) {
  uint8_t Buf[MaxInstrLength];
  int Len = I->encode(Pc, Buf, false);
  EXPECT_GT(Len, 0);
  EXPECT_TRUE(M.mem().writeBlock(Pc, Buf, unsigned(Len)));
  return unsigned(Len);
}

TEST(VmDecodeCache, AliasingPcsNeverServeWrongDecode) {
  Machine M;
  Arena A(1024);
  // Two pcs exactly DecodeCacheLines apart map to the same cache line.
  uint32_t Pc1 = 0x100;
  uint32_t Pc2 = Pc1 + Machine::DecodeCacheLines;
  placeInstr(M, Pc1, Instr::createSynth(A, OP_mov, {Operand::reg(REG_EAX),
                                                    Operand::imm(111, 4)}));
  placeInstr(M, Pc2, Instr::createSynth(A, OP_mov, {Operand::reg(REG_EBX),
                                                    Operand::imm(222, 4)}));

  const DecodeLine *D1 = M.fetchDecode(Pc1);
  ASSERT_NE(D1, nullptr);
  EXPECT_EQ(D1->opcode(), OP_mov);
  EXPECT_EQ(D1->H, H_MovRI);
  EXPECT_EQ(D1->Imm, 111u);

  // The aliasing pc evicts Pc1's line but must decode its own bytes.
  const DecodeLine *D2 = M.fetchDecode(Pc2);
  ASSERT_NE(D2, nullptr);
  EXPECT_EQ(D2->Tag, ~Pc2);
  EXPECT_EQ(D2->Imm, 222u);
  EXPECT_EQ(D2->Reg, REG_EBX - REG_EAX);

  // Ping-pong: refilling after eviction still yields the right decode.
  D1 = M.fetchDecode(Pc1);
  ASSERT_NE(D1, nullptr);
  EXPECT_EQ(D1->Tag, ~Pc1);
  EXPECT_EQ(D1->Imm, 111u);
  EXPECT_EQ(D1->Reg, REG_EAX - REG_EAX);
}

TEST(VmDecodeCache, RangeInvalidationDropsStaleDecode) {
  Machine M;
  Arena A(1024);
  uint32_t Pc = 0x200;
  unsigned Len = placeInstr(
      M, Pc,
      Instr::createSynth(A, OP_mov,
                         {Operand::reg(REG_EAX), Operand::imm(1, 4)}));
  const DecodeLine *D = M.fetchDecode(Pc);
  ASSERT_NE(D, nullptr);
  EXPECT_EQ(D->Imm, 1u);
  EXPECT_EQ(D->Length, Len);

  // Overwrite the bytes and invalidate: the next fetch must re-decode.
  placeInstr(M, Pc, Instr::createSynth(A, OP_mov, {Operand::reg(REG_EAX),
                                                   Operand::imm(2, 4)}));
  M.invalidateDecodeRange(Pc, Pc + Len);
  D = M.fetchDecode(Pc);
  ASSERT_NE(D, nullptr);
  EXPECT_EQ(D->Imm, 2u);
}

TEST(VmDecodeCache, InvalidationOfOneLineSparesAliasedOther) {
  Machine M;
  Arena A(1024);
  // Same decode-cache line, far apart in memory: an invalidation aimed at
  // Pc1's range must spare Pc2's decode, filled afterwards into the shared
  // line, and Pc1 must re-decode fresh bytes on its next fetch.
  uint32_t Pc1 = 0x300;
  uint32_t Pc2 = Pc1 + Machine::DecodeCacheLines;
  unsigned Len1 = placeInstr(
      M, Pc1,
      Instr::createSynth(A, OP_mov,
                         {Operand::reg(REG_EAX), Operand::imm(10, 4)}));
  placeInstr(M, Pc2, Instr::createSynth(A, OP_mov, {Operand::reg(REG_ECX),
                                                    Operand::imm(20, 4)}));

  ASSERT_NE(M.fetchDecode(Pc1), nullptr);
  placeInstr(M, Pc1, Instr::createSynth(A, OP_mov, {Operand::reg(REG_EAX),
                                                    Operand::imm(11, 4)}));
  M.invalidateDecodeRange(Pc1, Pc1 + Len1);

  const DecodeLine *D2 = M.fetchDecode(Pc2);
  ASSERT_NE(D2, nullptr);
  EXPECT_EQ(D2->Imm, 20u);
  EXPECT_EQ(D2->Reg, REG_ECX - REG_EAX);

  const DecodeLine *D1 = M.fetchDecode(Pc1);
  ASSERT_NE(D1, nullptr);
  EXPECT_EQ(D1->Imm, 11u);
}

TEST(VmDecodeCache, InvalidationDropsExactlyTheOverlappingDecodes) {
  Machine M;
  Arena A(1024);
  // Bytes patched behind the machine's back show whether a decode was
  // dropped (fresh bytes) or kept (the cached ones).
  auto Patch = [&](uint32_t Pc, uint8_t Imm) {
    ASSERT_TRUE(M.mem().writeBlock(Pc + 1, &Imm, 1)); // mov r32, imm32
  };
  uint32_t Pc1 = 0x300;
  uint32_t Pc2 = Pc1 + Machine::DecodeCacheLines;
  uint32_t Pc3 = 0x700;
  unsigned Len1 = placeInstr(
      M, Pc1,
      Instr::createSynth(A, OP_mov,
                         {Operand::reg(REG_EAX), Operand::imm(10, 4)}));
  placeInstr(M, Pc2, Instr::createSynth(A, OP_mov, {Operand::reg(REG_ECX),
                                                    Operand::imm(20, 4)}));
  unsigned Len3 = placeInstr(
      M, Pc3,
      Instr::createSynth(A, OP_mov,
                         {Operand::reg(REG_EDX), Operand::imm(30, 4)}));
  ASSERT_NE(M.fetchDecode(Pc2), nullptr);
  ASSERT_NE(M.fetchDecode(Pc3), nullptr);
  Patch(Pc2, 21);
  Patch(Pc3, 31);

  // Pc2 shares Pc1's cache line but not its bytes: kept.
  M.invalidateDecodeRange(Pc1, Pc1 + Len1);
  EXPECT_EQ(M.fetchDecode(Pc2)->Imm, 20u);
  // A range covering only Pc3's last byte still drops it.
  M.invalidateDecodeRange(Pc3 + Len3 - 1, Pc3 + Len3);
  EXPECT_EQ(M.fetchDecode(Pc3)->Imm, 31u);
  // A range wider than the cache drops every decode inside it.
  M.invalidateDecodeRange(0, uint32_t(M.mem().size()));
  EXPECT_EQ(M.fetchDecode(Pc2)->Imm, 21u);
}

TEST(VmDecodeCache, LinesArePreResolved) {
  Machine M;
  Arena A(1024);
  // A scaled-index memory operand, a high byte register and a branch
  // target, each resolved into the line's own fields.
  uint32_t Pc = 0x400;
  unsigned Len = placeInstr(
      M, Pc,
      Instr::createSynth(A, OP_add,
                         {Operand::reg(REG_EDX),
                          Operand::mem(REG_EBX, -12, 4, REG_ESI, 8)}));
  const DecodeLine *D = M.fetchDecode(Pc);
  ASSERT_NE(D, nullptr);
  EXPECT_EQ(D->H, H_AddRM);
  EXPECT_EQ(D->Reg, REG_EDX - REG_EAX);
  EXPECT_EQ(D->Base, REG_EBX - REG_EAX);
  EXPECT_EQ(D->Index, REG_ESI - REG_EAX);
  EXPECT_EQ(D->ScaleShift, 3);
  EXPECT_EQ(D->Disp, -12);
  EXPECT_FALSE(D->isCti());
  EXPECT_EQ(D->Cost, M.cost().LoadCostInt + opcodeInfo(OP_add).BaseCycles);

  Pc += Len;
  Len = placeInstr(M, Pc,
                   Instr::createSynth(A, OP_mov_b,
                                      {Operand::reg(REG_BH),
                                       Operand::memAbs(0x1234, 1)}));
  D = M.fetchDecode(Pc);
  ASSERT_NE(D, nullptr);
  EXPECT_EQ(D->H, H_MovbRM);
  EXPECT_EQ(D->Reg, (REG_EBX - REG_EAX) | DecodeLine::ByteHigh);
  EXPECT_EQ(D->Base, DecodeLine::NoReg);
  EXPECT_EQ(D->Index, DecodeLine::NoReg);
  EXPECT_EQ(D->Disp, 0x1234);

  Pc += Len;
  placeInstr(M, Pc, Instr::createSynth(A, OP_jnz, {Operand::pc(0x40)}));
  D = M.fetchDecode(Pc);
  ASSERT_NE(D, nullptr);
  EXPECT_EQ(D->H, H_Jnz);
  EXPECT_EQ(D->Imm, 0x40u);
  EXPECT_TRUE(D->isCti());
}

TEST(VmDecodeCache, StoresBesideDecodedBytesDoNotInvalidate) {
  Machine M;
  Arena A(1024);
  // Code and data share one write-watch line: a store to the data must
  // not orphan the decode; a store into the instruction must.
  uint32_t Pc = 0x500;
  unsigned Len1 = placeInstr(
      M, Pc,
      Instr::createSynth(A, OP_mov,
                         {Operand::memAbs(Pc + 0x40), Operand::imm(7, 4)}));
  uint32_t At = Pc + Len1;
  At += placeInstr(M, At, Instr::createSynth(A, OP_nop, {}));
  // Rewrites the first instruction's disp32 (after its opcode and ModRM).
  At += placeInstr(M, At, Instr::createSynth(A, OP_mov,
                                             {Operand::memAbs(Pc + 2),
                                              Operand::imm(0x1234, 4)}));
  placeInstr(M, At, Instr::createSynth(A, OP_nop, {}));

  M.cpu().Pc = Pc;
  ASSERT_EQ(M.step().Kind, StepKind::Ok); // the data store
  ASSERT_EQ(M.step().Kind, StepKind::Ok); // nop: would drain an invalidation
  uint32_t Data = 0;
  ASSERT_TRUE(M.mem().read32(Pc + 0x40, Data));
  EXPECT_EQ(Data, 7u);
  // Patch the immediate behind the machine's back: a decode that survived
  // the data store still serves the old one.
  const uint8_t NewImm[4] = {9, 0, 0, 0};
  ASSERT_TRUE(M.mem().writeBlock(Pc + Len1 - 4, NewImm, 4));
  const DecodeLine *D = M.fetchDecode(Pc);
  ASSERT_NE(D, nullptr);
  EXPECT_EQ(D->Imm, 7u);

  ASSERT_EQ(M.step().Kind, StepKind::Ok); // the store into the code
  ASSERT_EQ(M.step().Kind, StepKind::Ok); // nop: drains the invalidation
  D = M.fetchDecode(Pc);
  ASSERT_NE(D, nullptr);
  EXPECT_EQ(uint32_t(D->Disp), 0x1234u);
  EXPECT_EQ(D->Imm, 9u);
}

TEST(VmDecodeCache, StoreIntoLineSpillOverInvalidates) {
  Machine M;
  Arena A(1024);
  // An instruction that starts 2 bytes before a write-watch line boundary
  // spills into the next line; a store to the spilled bytes alone must
  // still orphan its decode.
  uint32_t Pc = 2 * Machine::WriteWatchLine - 2;
  unsigned Len = placeInstr(
      M, Pc,
      Instr::createSynth(A, OP_mov,
                         {Operand::reg(REG_EAX), Operand::imm(5, 4)}));
  ASSERT_GT(Pc + Len, 2 * Machine::WriteWatchLine);
  uint32_t Store = 0x1000;
  unsigned StoreLen = placeInstr(
      M, Store,
      Instr::createSynth(A, OP_mov_b,
                         {Operand::memAbs(Pc + Len - 1, 1),
                          Operand::imm(0x66, 1)}));
  placeInstr(M, Store + StoreLen, Instr::createSynth(A, OP_nop, {}));
  ASSERT_NE(M.fetchDecode(Pc), nullptr);
  M.cpu().Pc = Store;
  ASSERT_EQ(M.step().Kind, StepKind::Ok);
  ASSERT_EQ(M.step().Kind, StepKind::Ok); // drains the invalidation
  const DecodeLine *D = M.fetchDecode(Pc);
  ASSERT_NE(D, nullptr);
  EXPECT_EQ(D->Imm, 0x66000005u);
}

TEST(VmDecodeCache, StoreEndingOnFirstDecodedByteInvalidates) {
  Machine M;
  Arena A(1024);
  // The only decode in its line starts at Pc; a 4-byte store whose last
  // byte is the opcode byte overlaps the line's decoded extent by one.
  uint32_t Pc = 0x608;
  placeInstr(M, Pc,
             Instr::createSynth(A, OP_mov,
                                {Operand::reg(REG_EAX), Operand::imm(3, 4)}));
  ASSERT_EQ(M.fetchDecode(Pc)->Reg, REG_EAX - REG_EAX);
  uint32_t Store = 0x1000;
  // mov dword [Pc-3], 0xB9000000: the top byte turns `mov eax` (B8) into
  // `mov ecx` (B9).
  unsigned StoreLen = placeInstr(
      M, Store,
      Instr::createSynth(A, OP_mov,
                         {Operand::memAbs(Pc - 3),
                          Operand::imm(0xB9000000, 4)}));
  placeInstr(M, Store + StoreLen, Instr::createSynth(A, OP_nop, {}));
  M.cpu().Pc = Store;
  ASSERT_EQ(M.step().Kind, StepKind::Ok);
  ASSERT_EQ(M.step().Kind, StepKind::Ok); // drains the invalidation
  const DecodeLine *D = M.fetchDecode(Pc);
  ASSERT_NE(D, nullptr);
  EXPECT_EQ(D->Reg, REG_ECX - REG_EAX);
  EXPECT_EQ(D->Imm, 3u);
}

TEST(VmDecodeCache, OutOfRangePcReturnsNull) {
  Machine M;
  EXPECT_EQ(M.fetchDecode(uint32_t(M.mem().size())), nullptr);
  EXPECT_EQ(M.fetchDecode(~0u), nullptr);
}

} // namespace
