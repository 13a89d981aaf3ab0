//===- tests/vm_semantics_test.cpp - ALU/flag semantics vs reference model ----===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Property-based checks of the interpreter's arithmetic and eflags
/// semantics against an independent C++ reference model, over randomized
/// operand values. The strength-reduction client's legality argument rests
/// entirely on these flag semantics (inc/dec vs add/sub CF behaviour), so
/// they get the heaviest scrutiny.
///
/// The interpreter executes compact pre-resolved decode lines, one handler
/// per (opcode, operand shape) (vm/DecodeLine.h). HandlerParity runs random
/// decodable instructions through it and through a generic reference
/// interpreter over the full DecodedInstr, compares the whole outcome, and
/// asserts that every handler was reached.
///
//===----------------------------------------------------------------------===//

#include "isa/Encode.h"
#include "isa/OperandLayout.h"
#include "support/Rng.h"
#include "vm/Machine.h"
#include "vm/Syscall.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

using namespace rio;

namespace {

struct Flags {
  bool CF, PF, AF, ZF, SF, OF;
};

Flags flagsOf(const CpuState &Cpu) {
  return {Cpu.flag(EFLAGS_CF), Cpu.flag(EFLAGS_PF), Cpu.flag(EFLAGS_AF),
          Cpu.flag(EFLAGS_ZF), Cpu.flag(EFLAGS_SF), Cpu.flag(EFLAGS_OF)};
}

bool refParity(uint32_t V) {
  unsigned Bits = 0;
  for (int I = 0; I != 8; ++I)
    Bits += (V >> I) & 1;
  return Bits % 2 == 0;
}

/// Reference two-operand ALU model (independent of the interpreter code).
struct Ref {
  uint32_t Result;
  Flags F;
};

Ref refAdd(uint32_t A, uint32_t B, bool Cin) {
  uint64_t Wide = uint64_t(A) + uint64_t(B) + (Cin ? 1 : 0);
  uint32_t R = uint32_t(Wide);
  int64_t Signed = int64_t(int32_t(A)) + int64_t(int32_t(B)) + (Cin ? 1 : 0);
  Ref Out;
  Out.Result = R;
  Out.F = {Wide > 0xFFFFFFFFull,
           refParity(R),
           (((A & 0xF) + (B & 0xF) + (Cin ? 1 : 0)) & 0x10) != 0,
           R == 0,
           int32_t(R) < 0,
           Signed != int64_t(int32_t(R))};
  return Out;
}

Ref refSub(uint32_t A, uint32_t B, bool Bin) {
  uint32_t R = A - B - (Bin ? 1 : 0);
  int64_t Signed = int64_t(int32_t(A)) - int64_t(int32_t(B)) - (Bin ? 1 : 0);
  Ref Out;
  Out.Result = R;
  Out.F = {uint64_t(A) < uint64_t(B) + (Bin ? 1 : 0),
           refParity(R),
           (((A & 0xF) - (B & 0xF) - (Bin ? 1 : 0)) & 0x10) != 0,
           R == 0,
           int32_t(R) < 0,
           Signed != int64_t(int32_t(R))};
  return Out;
}

Ref refLogic(uint32_t R) {
  return {R, {false, refParity(R), false, R == 0, int32_t(R) < 0, false}};
}

/// Executes a single encoded instruction on a fresh machine with eax = A,
/// ebx = B and the carry flag preset; returns final state.
struct ExecOut {
  uint32_t Eax;
  Flags F;
  bool Ok;
};

MachineConfig tinyConfig() {
  MachineConfig MC;
  MC.AppRegionSize = 64 * 1024; // single-instruction tests need no space
  MC.RuntimeRegionSize = 64 * 1024;
  return MC;
}

ExecOut execOne(Opcode Op, uint32_t A, uint32_t B, bool CarryIn) {
  Machine M(tinyConfig());
  CpuState &Cpu = M.cpu();
  Cpu.writeGpr32(REG_EAX, A);
  Cpu.writeGpr32(REG_EBX, B);
  Cpu.setFlag(EFLAGS_CF, CarryIn);

  Operand Ex[2] = {Operand::reg(REG_EAX), Operand::reg(REG_EBX)};
  unsigned NumEx = 2;
  if (Op == OP_inc || Op == OP_dec || Op == OP_neg || Op == OP_not)
    NumEx = 1;
  Operand Srcs[MaxSrcs], Dsts[MaxDsts];
  unsigned NumSrcs = 0, NumDsts = 0;
  EXPECT_TRUE(
      buildCanonicalOperands(Op, Ex, NumEx, Srcs, NumSrcs, Dsts, NumDsts));
  uint8_t Buf[MaxInstrLength];
  int Len = encodeInstr(Op, 0, Srcs, NumSrcs, Dsts, NumDsts, 0x1000, Buf);
  EXPECT_GT(Len, 0);
  M.mem().writeBlock(0x1000, Buf, unsigned(Len));
  Cpu.Pc = 0x1000;
  StepResult Step = M.step();

  ExecOut Out;
  Out.Ok = Step.Kind == StepKind::Ok;
  Out.Eax = Cpu.readGpr32(REG_EAX);
  Out.F = flagsOf(Cpu);
  return Out;
}

void expectFlags(const Flags &Got, const Flags &Want, const char *What,
                 uint32_t A, uint32_t B) {
  EXPECT_EQ(Got.CF, Want.CF) << What << " CF for " << A << "," << B;
  EXPECT_EQ(Got.PF, Want.PF) << What << " PF for " << A << "," << B;
  EXPECT_EQ(Got.AF, Want.AF) << What << " AF for " << A << "," << B;
  EXPECT_EQ(Got.ZF, Want.ZF) << What << " ZF for " << A << "," << B;
  EXPECT_EQ(Got.SF, Want.SF) << What << " SF for " << A << "," << B;
  EXPECT_EQ(Got.OF, Want.OF) << What << " OF for " << A << "," << B;
}

class AluSemantics : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AluSemantics, MatchesReferenceModel) {
  Rng Rand(GetParam());
  // Boundary values mixed with random ones.
  const uint32_t Interesting[] = {0,          1,          0x7FFFFFFF,
                                  0x80000000, 0xFFFFFFFF, 0xFFFF,
                                  0x10000,    0x7F,       0x80};
  for (int Iter = 0; Iter != 300; ++Iter) {
    uint32_t A = Rand.chance(1, 3)
                     ? Interesting[Rand.nextBelow(std::size(Interesting))]
                     : uint32_t(Rand.next());
    uint32_t B = Rand.chance(1, 3)
                     ? Interesting[Rand.nextBelow(std::size(Interesting))]
                     : uint32_t(Rand.next());
    bool Cin = Rand.chance(1, 2);

    {
      ExecOut Got = execOne(OP_add, A, B, Cin);
      Ref Want = refAdd(A, B, false);
      ASSERT_TRUE(Got.Ok);
      EXPECT_EQ(Got.Eax, Want.Result);
      expectFlags(Got.F, Want.F, "add", A, B);
    }
    {
      ExecOut Got = execOne(OP_adc, A, B, Cin);
      Ref Want = refAdd(A, B, Cin);
      EXPECT_EQ(Got.Eax, Want.Result);
      expectFlags(Got.F, Want.F, "adc", A, B);
    }
    {
      ExecOut Got = execOne(OP_sub, A, B, Cin);
      Ref Want = refSub(A, B, false);
      EXPECT_EQ(Got.Eax, Want.Result);
      expectFlags(Got.F, Want.F, "sub", A, B);
    }
    {
      ExecOut Got = execOne(OP_sbb, A, B, Cin);
      Ref Want = refSub(A, B, Cin);
      EXPECT_EQ(Got.Eax, Want.Result);
      expectFlags(Got.F, Want.F, "sbb", A, B);
    }
    {
      ExecOut Got = execOne(OP_cmp, A, B, Cin);
      Ref Want = refSub(A, B, false);
      EXPECT_EQ(Got.Eax, A) << "cmp must not write its operand";
      expectFlags(Got.F, Want.F, "cmp", A, B);
    }
    {
      ExecOut Got = execOne(OP_and, A, B, Cin);
      Ref Want = refLogic(A & B);
      EXPECT_EQ(Got.Eax, Want.Result);
      expectFlags(Got.F, Want.F, "and", A, B);
    }
    {
      ExecOut Got = execOne(OP_xor, A, B, Cin);
      Ref Want = refLogic(A ^ B);
      EXPECT_EQ(Got.Eax, Want.Result);
      expectFlags(Got.F, Want.F, "xor", A, B);
    }
    {
      // inc: like add 1 for every flag EXCEPT CF, which must be preserved.
      ExecOut Got = execOne(OP_inc, A, B, Cin);
      Ref Want = refAdd(A, 1, false);
      Want.F.CF = Cin; // untouched
      EXPECT_EQ(Got.Eax, Want.Result);
      expectFlags(Got.F, Want.F, "inc", A, B);
    }
    {
      ExecOut Got = execOne(OP_dec, A, B, Cin);
      Ref Want = refSub(A, 1, false);
      Want.F.CF = Cin; // untouched
      EXPECT_EQ(Got.Eax, Want.Result);
      expectFlags(Got.F, Want.F, "dec", A, B);
    }
    {
      // neg: sub from zero; CF set iff operand nonzero.
      ExecOut Got = execOne(OP_neg, A, B, Cin);
      Ref Want = refSub(0, A, false);
      EXPECT_EQ(Got.Eax, Want.Result);
      expectFlags(Got.F, Want.F, "neg", A, B);
    }
    {
      // not: no flags at all.
      ExecOut Got = execOne(OP_not, A, B, Cin);
      EXPECT_EQ(Got.Eax, ~A);
      EXPECT_EQ(Got.F.CF, Cin) << "not must not touch flags";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AluSemantics,
                         ::testing::Values(11, 22, 33, 44));

/// The inc-vs-add CF distinction observed end to end: this is the paper's
/// Section 4.2 legality condition as a hardware-visible property.
TEST(IncAddDistinction, CarryVisibleDifference) {
  for (bool Cin : {false, true}) {
    ExecOut Inc = execOne(OP_inc, 41, 0, Cin);
    ExecOut Add = execOne(OP_add, 41, 0, Cin); // eax += ebx(=0)... not 1!
    (void)Add;
    EXPECT_EQ(Inc.Eax, 42u);
    EXPECT_EQ(Inc.F.CF, Cin) << "inc preserves CF";
  }
  // add 0xFFFFFFFF + 1 sets CF; inc of 0xFFFFFFFF must not.
  ExecOut IncWrap = execOne(OP_inc, 0xFFFFFFFF, 0, false);
  EXPECT_EQ(IncWrap.Eax, 0u);
  EXPECT_FALSE(IncWrap.F.CF);
  EXPECT_TRUE(IncWrap.F.ZF);
  ExecOut AddWrap = execOne(OP_add, 0xFFFFFFFF, 1, false);
  EXPECT_EQ(AddWrap.Eax, 0u);
  EXPECT_TRUE(AddWrap.F.CF) << "add through zero carries";
}

class ShiftSemantics : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ShiftSemantics, MatchesReference) {
  Rng Rand(GetParam());
  for (int Iter = 0; Iter != 200; ++Iter) {
    uint32_t A = uint32_t(Rand.next());
    unsigned Count = unsigned(Rand.nextBelow(32));
    if (Count == 0)
      Count = 1;

    auto Shift = [&](Opcode Op) {
      Machine M(tinyConfig());
      M.cpu().writeGpr32(REG_EAX, A);
      Operand Ex[2] = {Operand::reg(REG_EAX),
                       Operand::imm(int64_t(Count), 1)};
      Operand Srcs[MaxSrcs], Dsts[MaxDsts];
      unsigned NumSrcs = 0, NumDsts = 0;
      buildCanonicalOperands(Op, Ex, 2, Srcs, NumSrcs, Dsts, NumDsts);
      uint8_t Buf[MaxInstrLength];
      int Len = encodeInstr(Op, 0, Srcs, NumSrcs, Dsts, NumDsts, 0x1000, Buf);
      M.mem().writeBlock(0x1000, Buf, unsigned(Len));
      M.cpu().Pc = 0x1000;
      M.step();
      return std::pair(M.cpu().readGpr32(REG_EAX), flagsOf(M.cpu()));
    };

    auto [ShlR, ShlF] = Shift(OP_shl);
    EXPECT_EQ(ShlR, A << Count);
    EXPECT_EQ(ShlF.CF, ((A >> (32 - Count)) & 1) != 0);
    EXPECT_EQ(ShlF.ZF, (A << Count) == 0);

    auto [ShrR, ShrF] = Shift(OP_shr);
    EXPECT_EQ(ShrR, A >> Count);
    EXPECT_EQ(ShrF.CF, ((A >> (Count - 1)) & 1) != 0);

    auto [SarR, SarF] = Shift(OP_sar);
    EXPECT_EQ(SarR, uint32_t(int32_t(A) >> Count));
    EXPECT_EQ(SarF.CF, ((int32_t(A) >> (Count - 1)) & 1) != 0);
    EXPECT_FALSE(SarF.OF);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShiftSemantics, ::testing::Values(7, 8));

TEST(MulDivSemantics, WideResults) {
  Rng Rand(5150);
  for (int Iter = 0; Iter != 200; ++Iter) {
    uint32_t A = uint32_t(Rand.next());
    uint32_t B = uint32_t(Rand.next()) | 1; // nonzero divisor

    // mul: edx:eax = eax * ebx.
    {
      Machine M(tinyConfig());
      M.cpu().writeGpr32(REG_EAX, A);
      M.cpu().writeGpr32(REG_EBX, B);
      Operand Ex[1] = {Operand::reg(REG_EBX)};
      Operand Srcs[MaxSrcs], Dsts[MaxDsts];
      unsigned NumSrcs = 0, NumDsts = 0;
      buildCanonicalOperands(OP_mul, Ex, 1, Srcs, NumSrcs, Dsts, NumDsts);
      uint8_t Buf[MaxInstrLength];
      int Len = encodeInstr(OP_mul, 0, Srcs, NumSrcs, Dsts, NumDsts, 0x1000,
                            Buf);
      M.mem().writeBlock(0x1000, Buf, unsigned(Len));
      M.cpu().Pc = 0x1000;
      M.step();
      uint64_t Wide = uint64_t(A) * uint64_t(B);
      EXPECT_EQ(M.cpu().readGpr32(REG_EAX), uint32_t(Wide));
      EXPECT_EQ(M.cpu().readGpr32(REG_EDX), uint32_t(Wide >> 32));
      EXPECT_EQ(M.cpu().flag(EFLAGS_CF), (Wide >> 32) != 0);
    }

    // idiv: edx:eax / ebx with cdq-style sign extension.
    {
      Machine M(tinyConfig());
      int32_t Dividend = int32_t(A);
      int32_t Divisor = int32_t(B);
      M.cpu().writeGpr32(REG_EAX, uint32_t(Dividend));
      M.cpu().writeGpr32(REG_EDX, Dividend < 0 ? 0xFFFFFFFFu : 0u);
      M.cpu().writeGpr32(REG_EBX, uint32_t(Divisor));
      Operand Ex[1] = {Operand::reg(REG_EBX)};
      Operand Srcs[MaxSrcs], Dsts[MaxDsts];
      unsigned NumSrcs = 0, NumDsts = 0;
      buildCanonicalOperands(OP_idiv, Ex, 1, Srcs, NumSrcs, Dsts, NumDsts);
      uint8_t Buf[MaxInstrLength];
      int Len = encodeInstr(OP_idiv, 0, Srcs, NumSrcs, Dsts, NumDsts, 0x1000,
                            Buf);
      M.mem().writeBlock(0x1000, Buf, unsigned(Len));
      M.cpu().Pc = 0x1000;
      M.step();
      ASSERT_EQ(M.status(), RunStatus::Running);
      EXPECT_EQ(int32_t(M.cpu().readGpr32(REG_EAX)), Dividend / Divisor);
      EXPECT_EQ(int32_t(M.cpu().readGpr32(REG_EDX)), Dividend % Divisor);
    }
  }
}

//===----------------------------------------------------------------------===//
// Handler coverage and parity against a generic reference interpreter
//===----------------------------------------------------------------------===//

/// Reference memory: one flat byte array with the machine's bounds rule
/// (no pages, so a straddling access is just an access).
struct RefMemory {
  std::vector<uint8_t> Bytes;

  bool inBounds(uint32_t Addr, uint32_t Len) const {
    return Addr <= Bytes.size() && Len <= Bytes.size() - Addr;
  }
  template <typename T> bool read(uint32_t Addr, T &Value) const {
    if (!inBounds(Addr, sizeof(T)))
      return false;
    std::memcpy(&Value, &Bytes[Addr], sizeof(T));
    return true;
  }
  template <typename T> bool write(uint32_t Addr, T Value) {
    if (!inBounds(Addr, sizeof(T)))
      return false;
    std::memcpy(&Bytes[Addr], &Value, sizeof(T));
    return true;
  }
};

void setArith(CpuState &Cpu, const Flags &F, bool KeepCarry = false) {
  if (!KeepCarry)
    Cpu.setFlag(EFLAGS_CF, F.CF);
  Cpu.setFlag(EFLAGS_PF, F.PF);
  Cpu.setFlag(EFLAGS_AF, F.AF);
  Cpu.setFlag(EFLAGS_ZF, F.ZF);
  Cpu.setFlag(EFLAGS_SF, F.SF);
  Cpu.setFlag(EFLAGS_OF, F.OF);
}

void setPzsRef(CpuState &Cpu, uint32_t R) {
  Cpu.setFlag(EFLAGS_PF, refParity(R));
  Cpu.setFlag(EFLAGS_ZF, R == 0);
  Cpu.setFlag(EFLAGS_SF, int32_t(R) < 0);
}

bool refCond(const CpuState &Cpu, unsigned Cc) {
  bool CF = Cpu.flag(EFLAGS_CF), PF = Cpu.flag(EFLAGS_PF);
  bool ZF = Cpu.flag(EFLAGS_ZF), SF = Cpu.flag(EFLAGS_SF);
  bool OF = Cpu.flag(EFLAGS_OF);
  const bool Base[8] = {OF, CF, ZF, CF || ZF, SF, PF, SF != OF,
                        ZF || SF != OF};
  return Base[Cc >> 1] != bool(Cc & 1);
}

/// An interpreter over the full DecodedInstr that walks the generic
/// operands on every access — the model the pre-resolved handlers must
/// match: architectural state, memory, cycles, output, and the fault
/// reason with whatever partial state the instruction left behind.
struct RefMachine {
  CpuState Cpu;
  RefMemory Mem;
  BranchPredictors Pred;
  CostModel Cost;
  uint32_t RuntimeBase = 0;
  uint64_t Cycles = 0;
  StepKind Kind = StepKind::Ok;
  uint32_t ClientCallId = 0;
  int ExitCode = 0;
  std::string Fault;
  std::string Output;

  uint32_t addr(const Operand &Op) const {
    uint32_t A = uint32_t(Op.getDisp());
    if (Op.getBase() != REG_NULL)
      A += Cpu.readGpr32(Op.getBase());
    if (Op.getIndex() != REG_NULL)
      A += Cpu.readGpr32(Op.getIndex()) * Op.getScale();
    return A;
  }
  bool read32(const Operand &Op, uint32_t &V) {
    if (Op.isReg()) {
      V = isGpr8(Op.getReg()) ? Cpu.readGpr8(Op.getReg())
                              : Cpu.readGpr32(Op.getReg());
      return true;
    }
    if (Op.isImm()) {
      V = uint32_t(Op.getImm());
      return true;
    }
    if (Op.isPc()) {
      V = Op.getPc();
      return true;
    }
    return Mem.read(addr(Op), V);
  }
  bool write32(const Operand &Op, uint32_t V) {
    if (Op.isReg()) {
      Cpu.writeGpr32(Op.getReg(), V);
      return true;
    }
    return Mem.write(addr(Op), V);
  }
  bool read8(const Operand &Op, uint8_t &V) {
    if (Op.isReg()) {
      V = Cpu.readGpr8(Op.getReg());
      return true;
    }
    if (Op.isImm()) {
      V = uint8_t(Op.getImm());
      return true;
    }
    return Mem.read(addr(Op), V);
  }
  bool write8(const Operand &Op, uint8_t V) {
    if (Op.isReg()) {
      Cpu.writeGpr8(Op.getReg(), V);
      return true;
    }
    return Mem.write(addr(Op), V);
  }
  bool readF64(const Operand &Op, double &V) {
    if (Op.isReg()) {
      V = Cpu.readXmm(Op.getReg());
      return true;
    }
    return Mem.read(addr(Op), V);
  }
  bool writeF64(const Operand &Op, double V) {
    if (Op.isReg()) {
      Cpu.writeXmm(Op.getReg(), V);
      return true;
    }
    return Mem.write(addr(Op), V);
  }

  void fail(const std::string &Reason) {
    Fault = Reason;
    Kind = StepKind::Faulted;
  }

  /// Executes \p DI, which lives at Cpu.Pc.
  void step(const DecodedInstr &DI) {
    const AppPc Pc = Cpu.Pc, Next = Pc + DI.Length;
    const bool InApp = Pc < RuntimeBase;
    const Operand *S = DI.Srcs, *D = DI.Dsts;
    Cycles += Cost.cyclesFor(DI);
    bool Ok = true;
    uint32_t A = 0, B = 0;
    switch (DI.Op) {
    case OP_mov:
      Ok = read32(S[0], A) && write32(D[0], A);
      break;
    case OP_mov_b: {
      uint8_t V;
      Ok = read8(S[0], V) && write8(D[0], V);
      break;
    }
    case OP_movzx_b:
    case OP_movsx_b: {
      uint8_t V;
      Ok = read8(S[0], V) &&
           write32(D[0], DI.Op == OP_movzx_b ? uint32_t(V)
                                             : uint32_t(int32_t(int8_t(V))));
      break;
    }
    case OP_movzx_w:
    case OP_movsx_w: {
      uint16_t V;
      Ok = Mem.read(addr(S[0]), V) &&
           write32(D[0], DI.Op == OP_movzx_w ? uint32_t(V)
                                             : uint32_t(int32_t(int16_t(V))));
      break;
    }
    case OP_lea:
      Ok = write32(D[0], addr(S[0]));
      break;
    case OP_xchg:
      Ok = read32(S[0], A) && read32(S[1], B) && write32(D[0], B) &&
           write32(D[1], A);
      break;
    case OP_push: {
      Ok = read32(S[0], A);
      uint32_t Sp = Cpu.readGpr32(REG_ESP) - 4;
      if (Ok && (Ok = Mem.write(Sp, A)))
        Cpu.writeGpr32(REG_ESP, Sp);
      break;
    }
    case OP_pop: {
      uint32_t Sp = Cpu.readGpr32(REG_ESP);
      Ok = Mem.read(Sp, A);
      if (Ok) {
        Cpu.writeGpr32(REG_ESP, Sp + 4);
        Ok = write32(D[0], A);
      }
      break;
    }
    case OP_add:
    case OP_adc:
    case OP_sub:
    case OP_sbb:
    case OP_cmp:
    case OP_and:
    case OP_or:
    case OP_xor:
    case OP_test: {
      Ok = read32(S[1], A) && read32(S[0], B);
      if (!Ok)
        break;
      bool Cin = Cpu.flag(EFLAGS_CF);
      Ref R;
      switch (DI.Op) {
      case OP_add:
        R = refAdd(A, B, false);
        break;
      case OP_adc:
        R = refAdd(A, B, Cin);
        break;
      case OP_sub:
      case OP_cmp:
        R = refSub(A, B, false);
        break;
      case OP_sbb:
        R = refSub(A, B, Cin);
        break;
      case OP_or:
        R = refLogic(A | B);
        break;
      case OP_xor:
        R = refLogic(A ^ B);
        break;
      default:
        R = refLogic(A & B);
        break;
      }
      setArith(Cpu, R.F);
      if (DI.Op != OP_cmp && DI.Op != OP_test)
        Ok = write32(D[0], R.Result);
      break;
    }
    case OP_inc:
    case OP_dec:
    case OP_neg:
    case OP_not: {
      Ok = read32(S[0], A);
      if (!Ok)
        break;
      if (DI.Op == OP_not) {
        Ok = write32(D[0], ~A);
        break;
      }
      Ref R = DI.Op == OP_inc   ? refAdd(A, 1, false)
              : DI.Op == OP_dec ? refSub(A, 1, false)
                                : refSub(0, A, false);
      setArith(Cpu, R.F, /*KeepCarry=*/DI.Op != OP_neg);
      Ok = write32(D[0], R.Result);
      break;
    }
    case OP_imul: {
      Ok = read32(S[0], A) && read32(S[1], B);
      if (!Ok)
        break;
      int64_t Full = int64_t(int32_t(A)) * int64_t(int32_t(B));
      bool Over = Full < std::numeric_limits<int32_t>::min() ||
                  Full > std::numeric_limits<int32_t>::max();
      Cpu.setFlag(EFLAGS_CF, Over);
      Cpu.setFlag(EFLAGS_OF, Over);
      Cpu.setFlag(EFLAGS_AF, false);
      setPzsRef(Cpu, uint32_t(Full));
      Ok = write32(D[0], uint32_t(Full));
      break;
    }
    case OP_mul: {
      Ok = read32(S[0], A);
      if (!Ok)
        break;
      uint64_t Full = uint64_t(Cpu.readGpr32(REG_EAX)) * A;
      Cpu.writeGpr32(REG_EAX, uint32_t(Full));
      Cpu.writeGpr32(REG_EDX, uint32_t(Full >> 32));
      Cpu.setFlag(EFLAGS_CF, (Full >> 32) != 0);
      Cpu.setFlag(EFLAGS_OF, (Full >> 32) != 0);
      Cpu.setFlag(EFLAGS_AF, false);
      setPzsRef(Cpu, uint32_t(Full));
      break;
    }
    case OP_idiv: {
      Ok = read32(S[0], A);
      if (!Ok)
        break;
      int64_t Dividend = int64_t((uint64_t(Cpu.readGpr32(REG_EDX)) << 32) |
                                 Cpu.readGpr32(REG_EAX));
      if (A == 0)
        return fail("integer divide by zero");
      // The one quotient too wide even for int64_t overflows int32 too.
      if (Dividend == std::numeric_limits<int64_t>::min() && A == ~0u)
        return fail("integer divide overflow");
      int64_t Quot = Dividend / int32_t(A);
      if (Quot != int64_t(int32_t(Quot)))
        return fail("integer divide overflow");
      Cpu.writeGpr32(REG_EAX, uint32_t(Quot));
      Cpu.writeGpr32(REG_EDX, uint32_t(Dividend % int32_t(A)));
      break;
    }
    case OP_cdq:
      Cpu.writeGpr32(REG_EDX, int32_t(Cpu.readGpr32(REG_EAX)) < 0 ? ~0u : 0);
      break;
    case OP_shl:
    case OP_shr:
    case OP_sar: {
      Ok = read32(S[0], B) && read32(S[1], A);
      unsigned Count = B & 31;
      if (!Ok || Count == 0)
        break;
      uint32_t R;
      bool Out;
      if (DI.Op == OP_shl) {
        R = uint32_t(uint64_t(A) << Count);
        Out = (uint64_t(A) << Count) >> 32 & 1;
        Cpu.setFlag(EFLAGS_OF, Count == 1 && (int32_t(R) < 0) != Out);
      } else if (DI.Op == OP_shr) {
        R = A >> Count;
        Out = (A >> (Count - 1)) & 1;
        Cpu.setFlag(EFLAGS_OF, Count == 1 && int32_t(A) < 0);
      } else {
        R = uint32_t(int32_t(A) >> Count);
        Out = (int32_t(A) >> (Count - 1)) & 1;
        Cpu.setFlag(EFLAGS_OF, false);
      }
      Cpu.setFlag(EFLAGS_CF, Out);
      Cpu.setFlag(EFLAGS_AF, false);
      setPzsRef(Cpu, R);
      Ok = write32(D[0], R);
      break;
    }
    case OP_jmp:
    case OP_jmp_ind:
    case OP_call:
    case OP_call_ind: {
      if (!read32(S[0], A))
        return fail("memory access out of bounds at pc " + std::to_string(Pc));
      bool Call = DI.Op == OP_call || DI.Op == OP_call_ind;
      bool Indirect = DI.Op == OP_jmp_ind || DI.Op == OP_call_ind;
      if (Call) {
        uint32_t Sp = Cpu.readGpr32(REG_ESP) - 4;
        if (!Mem.write(Sp, Next))
          return fail("memory access out of bounds at pc " +
                      std::to_string(Pc));
        Cpu.writeGpr32(REG_ESP, Sp);
        if (InApp)
          Pred.pushReturn(Next);
      }
      Cycles += Cost.TakenBranchCost;
      if (Indirect && InApp && !Pred.predictIndirect(Pc, A))
        Cycles += Cost.MispredictPenalty;
      Cpu.Pc = A;
      return;
    }
    case OP_ret:
    case OP_ret_imm: {
      uint32_t Sp = Cpu.readGpr32(REG_ESP);
      if (!Mem.read(Sp, A))
        return fail("memory access out of bounds at pc " + std::to_string(Pc));
      uint32_t Extra = DI.Op == OP_ret_imm ? uint32_t(S[0].getImm()) : 0;
      Cpu.writeGpr32(REG_ESP, Sp + 4 + Extra);
      Cycles += Cost.TakenBranchCost;
      if (InApp && !Pred.popReturn(A))
        Cycles += Cost.MispredictPenalty;
      Cpu.Pc = A;
      return;
    }
    case OP_int: {
      Cpu.Pc = Next;
      uint32_t Nr = Cpu.readGpr32(REG_EAX), Arg1 = Cpu.readGpr32(REG_EBX);
      uint32_t Arg2 = Cpu.readGpr32(REG_ECX), Arg3 = Cpu.readGpr32(REG_EDX);
      if (Nr == RSYS_exit) {
        Kind = StepKind::Exited;
        ExitCode = int(Arg1);
      } else if (Nr == RSYS_print_int) {
        Output += std::to_string(int32_t(Arg1)) + "\n";
      } else if (Nr == RSYS_print_char) {
        Output += char(Arg1);
      } else if (Nr == RSYS_write) {
        if (Arg1 != 1 && Arg1 != 2)
          return fail("write to bad fd");
        if (!Mem.inBounds(Arg2, Arg3))
          return fail("write from unmapped buffer");
        Output.append(reinterpret_cast<const char *>(&Mem.Bytes[0]) + Arg2,
                      Arg3);
        Cpu.writeGpr32(REG_EAX, Arg3);
      } else if (Nr == RSYS_gettid) {
        Cpu.writeGpr32(REG_EAX, 0);
      } else {
        return fail("unknown syscall " + std::to_string(Nr));
      }
      return;
    }
    case OP_hlt:
      Kind = StepKind::Exited;
      return;
    case OP_nop:
      break;
    case OP_movsd: {
      double V;
      Ok = readF64(S[0], V) && writeF64(D[0], V);
      break;
    }
    case OP_addsd:
    case OP_subsd:
    case OP_mulsd:
    case OP_divsd: {
      double X, Y;
      Ok = readF64(S[1], X) && readF64(S[0], Y);
      if (Ok)
        Ok = writeF64(D[0], DI.Op == OP_addsd   ? X + Y
                            : DI.Op == OP_subsd ? X - Y
                            : DI.Op == OP_mulsd ? X * Y
                                                : X / Y);
      break;
    }
    case OP_ucomisd: {
      double X, Y;
      Ok = readF64(S[1], X) && readF64(S[0], Y);
      if (!Ok)
        break;
      bool Unordered = std::isnan(X) || std::isnan(Y);
      Cpu.Eflags &= ~uint32_t(EFLAGS_CF | EFLAGS_PF | EFLAGS_AF | EFLAGS_ZF |
                              EFLAGS_SF | EFLAGS_OF);
      Cpu.setFlag(EFLAGS_ZF, Unordered || X == Y);
      Cpu.setFlag(EFLAGS_PF, Unordered);
      Cpu.setFlag(EFLAGS_CF, Unordered || X < Y);
      break;
    }
    case OP_cvtsi2sd:
      Ok = read32(S[0], A) && writeF64(D[0], double(int32_t(A)));
      break;
    case OP_cvttsd2si: {
      double V;
      Ok = readF64(S[0], V);
      if (Ok)
        Ok = write32(D[0], V > -2147483649.0 && V < 2147483648.0
                               ? uint32_t(int32_t(V))
                               : 0x80000000u); // NaN compares false
      break;
    }
    case OP_clientcall:
      Cpu.Pc = Next;
      Kind = StepKind::ClientCall;
      ClientCallId = uint32_t(S[0].getImm());
      return;
    case OP_savef:
      Ok = Mem.write(addr(D[0]), Cpu.Eflags);
      break;
    case OP_restf:
      Ok = Mem.read(addr(S[0]), Cpu.Eflags);
      break;
    default:
      if (opcodeIsCondBranch(DI.Op) || DI.Op == OP_jecxz) {
        bool Taken = DI.Op == OP_jecxz ? Cpu.readGpr32(REG_ECX) == 0
                                       : refCond(Cpu, condCodeOf(DI.Op));
        if (!Pred.predictCond(Pc, Taken))
          Cycles += Cost.MispredictPenalty;
        if (Taken)
          Cycles += Cost.TakenBranchCost;
        Cpu.Pc = Taken ? S[0].getPc() : Next;
        return;
      }
      return fail("unexpected opcode");
    }
    if (!Ok)
      return fail("memory access out of bounds at pc " + std::to_string(Pc));
    Cpu.Pc = Next;
  }
};

/// First address where the machine's memory differs from \p Ref, or
/// ~0u when they are equal.
uint32_t firstMemoryDifference(const Machine &M, const RefMemory &Ref) {
  uint32_t At = 0, Diff = ~0u;
  M.mem().forEachSpan(0, M.mem().size(), [&](const uint8_t *Run, uint32_t Len) {
    if (Diff == ~0u && std::memcmp(Run, &Ref.Bytes[At], Len) != 0)
      for (uint32_t I = 0; I != Len && Diff == ~0u; ++I)
        if (Run[I] != Ref.Bytes[At + I])
          Diff = At + I;
    At += Len;
  });
  return Diff;
}

bool sameDouble(double X, double Y) {
  return (std::isnan(X) && std::isnan(Y)) ||
         std::memcmp(&X, &Y, sizeof X) == 0;
}

/// Every opcode byte sequence the decoder accepts: one-byte opcodes, the
/// 0F two-byte page, and the F2/66-prefixed scalar-double forms. A random
/// tail (ModRM/SIB/displacement/immediate) completes an instruction.
std::vector<std::vector<uint8_t>> validOpcodePrefixes() {
  std::vector<std::vector<uint8_t>> Candidates, Valid;
  for (unsigned B = 0; B != 256; ++B) {
    Candidates.push_back({uint8_t(B)});
    Candidates.push_back({0x0F, uint8_t(B)});
    Candidates.push_back({0xF2, 0x0F, uint8_t(B)});
    Candidates.push_back({0x66, 0x0F, uint8_t(B)});
  }
  Rng Rand(1);
  for (const std::vector<uint8_t> &Prefix : Candidates) {
    for (int Try = 0; Try != 64; ++Try) {
      std::vector<uint8_t> Bytes = Prefix;
      while (Bytes.size() != MaxInstrLength)
        Bytes.push_back(uint8_t(Rand.next()));
      DecodedInstr DI;
      // Skip the plain prefix bytes themselves (F0/3E/F2/66 + anything).
      if (Prefix.size() == 1 && (Prefix[0] == 0xF0 || Prefix[0] == 0x3E ||
                                 Prefix[0] == 0xF2 || Prefix[0] == 0x66))
        break;
      if (decodeInstr(Bytes.data(), Bytes.size(), 0x1000, DI)) {
        Valid.push_back(Prefix);
        break;
      }
    }
  }
  return Valid;
}

/// One random instruction after \p Prefix; a register ModRM (mod = 3) half
/// the time, so register and memory forms are drawn equally often.
std::vector<uint8_t> randomInstrBytes(Rng &Rand,
                                      const std::vector<uint8_t> &Prefix) {
  std::vector<uint8_t> Bytes = Prefix;
  while (Bytes.size() != MaxInstrLength)
    Bytes.push_back(uint8_t(Rand.next()));
  if (Rand.chance(1, 2))
    Bytes[Prefix.size()] |= 0xC0;
  return Bytes;
}

/// An address of one of the interesting classes: in bounds, straddling
/// the 64 KB page boundary of the tiny machine, straddling the end of
/// memory, or far out of bounds.
uint32_t interestingAddr(Rng &Rand, uint32_t MemSize) {
  switch (Rand.nextBelow(5)) {
  case 0:
  case 1:
    return 0x4000 + uint32_t(Rand.nextBelow(0x8000));
  case 2:
    return CowBlockBytes - 8 + uint32_t(Rand.nextBelow(8));
  case 3:
    return MemSize - 8 + uint32_t(Rand.nextBelow(12));
  default:
    return uint32_t(Rand.next());
  }
}

double interestingDouble(Rng &Rand) {
  static const double Special[] = {0.0,
                                   -0.0,
                                   1.5,
                                   -2147483648.0,
                                   2147483647.0,
                                   2147483648.0,
                                   std::numeric_limits<double>::infinity(),
                                   std::numeric_limits<double>::quiet_NaN()};
  if (Rand.chance(1, 3))
    return Special[Rand.nextBelow(std::size(Special))];
  return double(int64_t(Rand.next())) / double(1 + Rand.nextBelow(1000));
}

class HandlerParity : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HandlerParity, EveryHandlerMatchesReferenceInterpreter) {
  Rng Rand(GetParam());
  const MachineConfig MC = tinyConfig();
  const uint32_t MemSize = MC.AppRegionSize + MC.RuntimeRegionSize;
  std::vector<uint8_t> Image(MemSize);
  for (uint8_t &B : Image)
    B = uint8_t(Rand.next());

  // One machine and one reference serve every case, so the predictors, the
  // cycle clocks and the output evolve side by side across cases too.
  Machine M(MC);
  RefMachine R;
  R.RuntimeBase = MC.AppRegionSize;
  R.Cost = MC.Cost;

  const std::vector<std::vector<uint8_t>> Prefixes = validOpcodePrefixes();
  std::vector<unsigned> Reached(NumHandlers);
  unsigned Cases = 0;
  for (int Iter = 0; Iter != 40000; ++Iter) {
    std::vector<uint8_t> Bytes =
        randomInstrBytes(Rand, Prefixes[Rand.nextBelow(Prefixes.size())]);
    // Code sits in the application region or in the runtime region, where
    // control transfers skip the branch predictors.
    const AppPc Pc = Rand.chance(1, 2) ? 0x1000 : MC.AppRegionSize + 0x1000;
    DecodedInstr DI;
    if (!decodeInstr(Bytes.data(), Bytes.size(), Pc, DI))
      continue;
    CpuState Init;
    for (uint32_t &Reg : Init.Gpr)
      Reg = Rand.chance(1, 4) ? uint32_t(Rand.nextBelow(16))
                              : uint32_t(Rand.next());
    for (double &X : Init.Xmm)
      X = interestingDouble(Rand);
    Init.Eflags = uint32_t(Rand.next()) &
                  (EFLAGS_CF | EFLAGS_PF | EFLAGS_AF | EFLAGS_ZF | EFLAGS_SF |
                   EFLAGS_OF);
    Init.writeGpr32(REG_ESP, interestingAddr(Rand, MemSize));
    // Aim the memory operand at an interesting address through its base.
    for (const Operand &Op : {DI.Srcs[0], DI.Srcs[1], DI.Dsts[0]}) {
      if (!Op.isMem() || Op.getBase() == REG_NULL || Rand.chance(1, 8))
        continue;
      uint32_t Rest = uint32_t(Op.getDisp());
      if (Op.getIndex() != REG_NULL && Op.getIndex() != Op.getBase())
        Rest += Init.readGpr32(Op.getIndex()) * Op.getScale();
      Init.writeGpr32(Op.getBase(), interestingAddr(Rand, MemSize) - Rest);
      break;
    }
    // Threads are exercised elsewhere; the reference has one.
    if (DI.Op == OP_int) {
      const uint32_t Nrs[] = {RSYS_exit, RSYS_print_int, RSYS_print_char,
                              RSYS_write, RSYS_gettid, 99};
      Init.writeGpr32(REG_EAX, Nrs[Rand.nextBelow(std::size(Nrs))]);
      Init.writeGpr32(REG_EBX, uint32_t(Rand.nextBelow(3)));
      Init.writeGpr32(REG_ECX, interestingAddr(Rand, MemSize));
      Init.writeGpr32(REG_EDX, uint32_t(Rand.nextBelow(64)));
    }
    if (DI.Op == OP_idiv && Rand.chance(1, 2))
      Init.writeGpr32(REG_EDX, int32_t(Init.readGpr32(REG_EAX)) < 0 ? ~0u : 0);
    Init.Pc = Pc;

    M.resetForRun(); // running again after an earlier case's fault or exit
    ASSERT_TRUE(M.mem().writeBlock(0, Image.data(), MemSize));
    ASSERT_TRUE(M.mem().writeBlock(Pc, Bytes.data(), DI.Length));
    M.invalidateDecodeRange(Pc, Pc + DI.Length);
    M.cpu() = Init;
    R.Mem.Bytes = Image;
    std::memcpy(&R.Mem.Bytes[Pc], Bytes.data(), DI.Length);
    R.Cpu = Init;
    R.Kind = StepKind::Ok;
    R.ExitCode = 0;
    R.Fault.clear();

    const DecodeLine *Line = M.fetchDecode(Pc);
    ASSERT_NE(Line, nullptr) << "decodable bytes must lower to a line";
    ASSERT_LT(Line->H, NumHandlers);
    ++Reached[Line->H];
    const std::string What = std::string(handlerName(Line->H)) + " case " +
                             std::to_string(Iter);

    StepResult Got = M.step();
    R.step(DI);
    ++Cases;

    EXPECT_EQ(Got.Kind, R.Kind) << What;
    EXPECT_EQ(M.faultReason(), R.Fault) << What;
    if (Got.Kind == StepKind::ClientCall) {
      EXPECT_EQ(Got.ClientCallId, R.ClientCallId) << What;
    }
    if (Got.Kind == StepKind::Exited) {
      EXPECT_EQ(M.exitCode(), R.ExitCode) << What;
    }
    EXPECT_EQ(M.output(), R.Output) << What;
    EXPECT_EQ(M.cycles(), R.Cycles) << What;
    const CpuState &C = M.cpu();
    for (unsigned I = 0; I != 8; ++I) {
      EXPECT_EQ(C.Gpr[I], R.Cpu.Gpr[I]) << What << " gpr " << I;
      EXPECT_TRUE(sameDouble(C.Xmm[I], R.Cpu.Xmm[I])) << What << " xmm " << I;
    }
    EXPECT_EQ(C.Eflags, R.Cpu.Eflags) << What;
    EXPECT_EQ(C.Pc, R.Cpu.Pc) << What;
    EXPECT_EQ(firstMemoryDifference(M, R.Mem), ~0u) << What;
    if (::testing::Test::HasFailure())
      break;
  }

  // The suite must not go vacuous: every handler ran, and more than once.
  EXPECT_GT(Cases, 30000u);
  unsigned Fewest = ~0u;
  for (unsigned H = 0; H != NumHandlers; ++H) {
    EXPECT_GT(Reached[H], 0u) << "handler " << handlerName(Handler(H))
                              << " never reached";
    Fewest = std::min(Fewest, Reached[H]);
  }
  std::printf("%u cases; the rarest handler ran %u times\n", Cases, Fewest);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HandlerParity, ::testing::Values(101));

/// Shapes whose order of effects is easy to get wrong, spelled out.
TEST(HandlerParity, StackPointerAsOperand) {
  const MachineConfig MC = tinyConfig();
  auto Run = [&](Opcode Op, Operand Ex, uint32_t Esp) {
    Machine M(MC);
    Operand Srcs[MaxSrcs], Dsts[MaxDsts];
    unsigned NumSrcs = 0, NumDsts = 0;
    EXPECT_TRUE(
        buildCanonicalOperands(Op, &Ex, 1, Srcs, NumSrcs, Dsts, NumDsts));
    uint8_t Buf[MaxInstrLength];
    int Len = encodeInstr(Op, 0, Srcs, NumSrcs, Dsts, NumDsts, 0x1000, Buf);
    EXPECT_GT(Len, 0);
    M.mem().writeBlock(0x1000, Buf, unsigned(Len));
    M.mem().write32(Esp, 0xAABBCCDD);
    M.cpu().Pc = 0x1000;
    M.cpu().writeGpr32(REG_ESP, Esp);
    EXPECT_EQ(M.step().Kind, StepKind::Ok);
    uint32_t Top = 0;
    M.mem().read32(M.cpu().readGpr32(REG_ESP), Top);
    return std::pair(M.cpu().readGpr32(REG_ESP), Top);
  };
  // push esp stores the value esp had before the push.
  auto [PushSp, PushTop] = Run(OP_push, Operand::reg(REG_ESP), 0x8000);
  EXPECT_EQ(PushSp, 0x7FFCu);
  EXPECT_EQ(PushTop, 0x8000u);
  // pop esp: esp takes the popped value, not the incremented pointer.
  auto [PopSp, PopTop] = Run(OP_pop, Operand::reg(REG_ESP), 0x8000);
  EXPECT_EQ(PopSp, 0xAABBCCDDu);
  (void)PopTop;
  // pop [esp+4] addresses its destination with the incremented esp.
  Machine M(MC);
  Operand Ex = Operand::mem(REG_ESP, 4);
  Operand Srcs[MaxSrcs], Dsts[MaxDsts];
  unsigned NumSrcs = 0, NumDsts = 0;
  buildCanonicalOperands(OP_pop, &Ex, 1, Srcs, NumSrcs, Dsts, NumDsts);
  uint8_t Buf[MaxInstrLength];
  int Len = encodeInstr(OP_pop, 0, Srcs, NumSrcs, Dsts, NumDsts, 0x1000, Buf);
  M.mem().writeBlock(0x1000, Buf, unsigned(Len));
  M.mem().write32(0x8000, 0x11223344);
  M.cpu().Pc = 0x1000;
  M.cpu().writeGpr32(REG_ESP, 0x8000);
  ASSERT_EQ(M.step().Kind, StepKind::Ok);
  uint32_t Slot = 0;
  M.mem().read32(0x8008, Slot);
  EXPECT_EQ(Slot, 0x11223344u);
  EXPECT_EQ(M.cpu().readGpr32(REG_ESP), 0x8004u);
}

TEST(MulDivSemantics, MostNegativeDividendByMinusOneFaults) {
  // edx:eax = -2^63 divided by -1: the one quotient that overflows even the
  // host's 64-bit divide. It must fault in the guest, not trap the host.
  Machine M(tinyConfig());
  M.cpu().writeGpr32(REG_EDX, 0x80000000u);
  M.cpu().writeGpr32(REG_EAX, 0);
  M.cpu().writeGpr32(REG_EBX, ~0u);
  Operand Ex[1] = {Operand::reg(REG_EBX)};
  Operand Srcs[MaxSrcs], Dsts[MaxDsts];
  unsigned NumSrcs = 0, NumDsts = 0;
  buildCanonicalOperands(OP_idiv, Ex, 1, Srcs, NumSrcs, Dsts, NumDsts);
  uint8_t Buf[MaxInstrLength];
  int Len = encodeInstr(OP_idiv, 0, Srcs, NumSrcs, Dsts, NumDsts, 0x1000, Buf);
  M.mem().writeBlock(0x1000, Buf, unsigned(Len));
  M.cpu().Pc = 0x1000;
  EXPECT_EQ(M.step().Kind, StepKind::Faulted);
  EXPECT_EQ(M.faultReason(), "integer divide overflow");
  EXPECT_EQ(M.cpu().readGpr32(REG_EDX), 0x80000000u);
  EXPECT_EQ(M.cpu().readGpr32(REG_EAX), 0u);
}

} // namespace
