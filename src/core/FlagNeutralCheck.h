//===- core/FlagNeutralCheck.h - The lea/jecxz compare builder ---*- C++ -*-===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one builder of the flag-neutral compare of paper Figure 4, shared by
/// every runtime-inserted check: trace-inlined indirect-branch checks
/// (core/TraceBuilder), IbInline target chains (core/IbInline) and
/// speculative trace guards (core/TraceOpt). ecx, spilled to one slot, is
/// the only register it touches, and equality is tested with
/// `lea ecx, [ecx - K]; jecxz L`, so eflags are neither read nor written.
/// The builder appends to one list and knows nothing of its caller; each
/// caller lays out its own miss path, arms or bail-out around the pieces.
///
//===----------------------------------------------------------------------===//

#ifndef RIO_CORE_FLAGNEUTRALCHECK_H
#define RIO_CORE_FLAGNEUTRALCHECK_H

#include "ir/InstrList.h"
#include "support/Compiler.h"

namespace rio {

class FlagNeutralCheck {
public:
  /// Appends to \p Out, spilling ecx to the absolute slot \p SpillAddr;
  /// every instruction but labels carries application address \p Site.
  FlagNeutralCheck(InstrList &Out, uint32_t SpillAddr, AppPc Site)
      : Out(Out), Spill(Operand::memAbs(SpillAddr, 4)), Site(Site) {}

  Instr *emit(Opcode Op, std::initializer_list<Operand> Ops) {
    Instr *I = Instr::createSynth(Out.arena(), Op, Ops);
    assert(I && "failed to create check instruction");
    I->setAppAddr(Site);
    Out.append(I);
    return I;
  }

  void spill() { emit(OP_mov, {Spill, Ecx}); }
  void restore() { emit(OP_mov, {Ecx, Spill}); }
  void load(const Operand &Src) { emit(OP_mov, {Ecx, Src}); }

  /// Loads the target of the indirect CTI \p Cti into ecx and applies its
  /// stack effect: ret pops (plus its immediate), call* pushes the
  /// application return address after the load, as hardware evaluates an
  /// esp-relative operand before the push.
  void loadTarget(Instr &Cti) {
    switch (Cti.getOpcode()) {
    case OP_ret:
    case OP_ret_imm: {
      load(Operand::mem(REG_ESP, 0, 4));
      int32_t Pop = 4;
      if (Cti.getOpcode() == OP_ret_imm)
        Pop += int32_t(Cti.getSrc(0).getImm());
      emit(OP_lea, {Operand::reg(REG_ESP), Operand::mem(REG_ESP, Pop, 4)});
      break;
    }
    case OP_jmp_ind:
      load(Cti.getSrc(0));
      break;
    case OP_call_ind:
      load(Cti.getSrc(0));
      emit(OP_push,
           {Operand::imm(int64_t(Cti.appAddr() + Cti.rawLength()), 4)});
      break;
    default:
      RIO_UNREACHABLE("not an indirect CTI");
    }
  }

  /// `lea ecx, [ecx - K]; jecxz L`. Returns the label L, which the caller
  /// places; the fall-through is the mismatch path, with ecx - K in ecx.
  Instr *test(uint32_t K) {
    emit(OP_lea, {Ecx, Operand::mem(REG_ECX, int32_t(0u - K), 4)});
    Instr *Match = Instr::createLabel(Out.arena());
    emit(OP_jecxz, {Operand::pc(0)})->setBranchTargetLabel(Match);
    return Match;
  }

private:
  InstrList &Out;
  const Operand Spill;
  const Operand Ecx = Operand::reg(REG_ECX);
  const AppPc Site;
};

} // namespace rio

#endif // RIO_CORE_FLAGNEUTRALCHECK_H
