//===- vm/DecodeLine.cpp - Lowering full decodes to compact lines ---------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//

#include "vm/DecodeLine.h"

#include "vm/CostModel.h"

using namespace rio;

const char *rio::handlerName(Handler H) {
  static const char *const Names[] = {
#define RIO_VM_HANDLER_NAME(Name) #Name,
      RIO_VM_HANDLERS(RIO_VM_HANDLER_NAME)
#undef RIO_VM_HANDLER_NAME
  };
  return H < NumHandlers ? Names[H] : "<invalid>";
}

namespace {

/// The CpuState index of a register of any class (see DecodeLine).
uint8_t regIndex(Register Reg) {
  if (isGpr8(Reg))
    return uint8_t((containingGpr(Reg) - REG_EAX) |
                   (isHighByte(Reg) ? DecodeLine::ByteHigh : 0));
  if (isXmm(Reg))
    return uint8_t(Reg - REG_XMM0);
  return uint8_t(Reg - REG_EAX);
}

void setMem(DecodeLine &Out, const Operand &Op) {
  Out.Base = Op.getBase() == REG_NULL ? DecodeLine::NoReg
                                      : uint8_t(Op.getBase() - REG_EAX);
  Out.Index = Op.getIndex() == REG_NULL ? DecodeLine::NoReg
                                        : uint8_t(Op.getIndex() - REG_EAX);
  uint8_t Shift = 0;
  while ((1u << Shift) < Op.getScale())
    ++Shift;
  Out.ScaleShift = Shift;
  Out.Disp = Op.getDisp();
}

constexpr Handler None = NumHandlers;

/// Picks the handler for a destination/source pair by operand shape: RR,
/// RI, RM, MR or MI (None where the opcode has no such form).
Handler lowerPair(DecodeLine &Out, const Operand &Dst, const Operand &Src,
                  Handler RR, Handler RI, Handler RM, Handler MR = None,
                  Handler MI = None) {
  if (Dst.isReg()) {
    Out.Reg = regIndex(Dst.getReg());
    if (Src.isReg()) {
      Out.Reg2 = regIndex(Src.getReg());
      return RR;
    }
    if (Src.isImm()) {
      Out.Imm = uint32_t(Src.getImm());
      return RI;
    }
    if (Src.isMem()) {
      setMem(Out, Src);
      return RM;
    }
    return None;
  }
  if (!Dst.isMem())
    return None;
  setMem(Out, Dst);
  if (Src.isReg()) {
    Out.Reg2 = regIndex(Src.getReg());
    return MR;
  }
  if (Src.isImm()) {
    Out.Imm = uint32_t(Src.getImm());
    return MI;
  }
  return None;
}

/// A single register-or-memory operand: R or M.
Handler lowerRm(DecodeLine &Out, const Operand &Op, Handler R, Handler M) {
  if (Op.isReg()) {
    Out.Reg = regIndex(Op.getReg());
    return R;
  }
  if (Op.isMem()) {
    setMem(Out, Op);
    return M;
  }
  return None;
}

Handler lowerShift(DecodeLine &Out, const DecodedInstr &DI, Handler RI,
                   Handler MI, Handler RC, Handler MC) {
  const Operand &Count = DI.Srcs[0];
  bool ByCl = Count.isReg();
  if (ByCl && Count.getReg() != REG_CL)
    return None;
  if (!ByCl)
    Out.Imm = uint32_t(Count.getImm()) & 31;
  return lowerRm(Out, DI.Dsts[0], ByCl ? RC : RI, ByCl ? MC : MI);
}

// All five shapes, destination first: RR, RI, RM, MR, MI.
#define RIO_ALL_SHAPES(Name)                                                   \
  lowerPair(Out, DI.Dsts[0], DI.Srcs[0], H_##Name##RR, H_##Name##RI,           \
            H_##Name##RM, H_##Name##MR, H_##Name##MI)

Handler selectHandler(const DecodedInstr &DI, DecodeLine &Out) {
  const Operand &S0 = DI.Srcs[0];
  const Operand &D0 = DI.Dsts[0];
  switch (DI.Op) {
  case OP_mov:
    return RIO_ALL_SHAPES(Mov);
  case OP_mov_b:
    return RIO_ALL_SHAPES(Movb);
  case OP_movzx_b:
    return lowerPair(Out, D0, S0, H_MovzxbRR, None, H_MovzxbRM);
  case OP_movsx_b:
    return lowerPair(Out, D0, S0, H_MovsxbRR, None, H_MovsxbRM);
  case OP_movzx_w:
    return lowerPair(Out, D0, S0, None, None, H_MovzxwRM);
  case OP_movsx_w:
    return lowerPair(Out, D0, S0, None, None, H_MovsxwRM);
  case OP_lea:
    return lowerPair(Out, D0, S0, None, None, H_Lea);
  case OP_xchg:
    return lowerPair(Out, D0, DI.Dsts[1], H_XchgRR, None, None, H_XchgMR);
  case OP_push:
    if (S0.isImm()) {
      Out.Imm = uint32_t(S0.getImm());
      return H_PushI;
    }
    return lowerRm(Out, S0, H_PushR, H_PushM);
  case OP_pop:
    return lowerRm(Out, D0, H_PopR, H_PopM);

  case OP_add:
    return RIO_ALL_SHAPES(Add);
  case OP_or:
    return RIO_ALL_SHAPES(Or);
  case OP_adc:
    return RIO_ALL_SHAPES(Adc);
  case OP_sbb:
    return RIO_ALL_SHAPES(Sbb);
  case OP_and:
    return RIO_ALL_SHAPES(And);
  case OP_sub:
    return RIO_ALL_SHAPES(Sub);
  case OP_xor:
    return RIO_ALL_SHAPES(Xor);
  // cmp/test/ucomisd a, b: canonical S = {b, a}.
  case OP_cmp:
    return lowerPair(Out, DI.Srcs[1], S0, H_CmpRR, H_CmpRI, H_CmpRM, H_CmpMR,
                     H_CmpMI);
  case OP_test:
    return lowerPair(Out, DI.Srcs[1], S0, H_TestRR, H_TestRI, None, H_TestMR,
                     H_TestMI);
  case OP_inc:
    return lowerRm(Out, D0, H_IncR, H_IncM);
  case OP_dec:
    return lowerRm(Out, D0, H_DecR, H_DecM);
  case OP_neg:
    return lowerRm(Out, D0, H_NegR, H_NegM);
  case OP_not:
    return lowerRm(Out, D0, H_NotR, H_NotM);
  case OP_imul:
    // imul r, rm: S = {rm, r}; imul r, rm, imm: S = {imm, rm}.
    if (S0.isImm()) {
      Out.Imm = uint32_t(S0.getImm());
      return lowerPair(Out, D0, DI.Srcs[1], H_ImulRRI, None, H_ImulRMI);
    }
    return lowerPair(Out, D0, S0, H_ImulRR, None, H_ImulRM);
  case OP_mul:
    return lowerRm(Out, S0, H_MulR, H_MulM);
  case OP_idiv:
    return lowerRm(Out, S0, H_IdivR, H_IdivM);
  case OP_cdq:
    return H_Cdq;
  case OP_shl:
    return lowerShift(Out, DI, H_ShlRI, H_ShlMI, H_ShlRC, H_ShlMC);
  case OP_shr:
    return lowerShift(Out, DI, H_ShrRI, H_ShrMI, H_ShrRC, H_ShrMC);
  case OP_sar:
    return lowerShift(Out, DI, H_SarRI, H_SarMI, H_SarRC, H_SarMC);

  case OP_jmp:
    Out.Imm = S0.getPc();
    return H_Jmp;
  case OP_jmp_ind:
    return lowerRm(Out, S0, H_JmpIndR, H_JmpIndM);
  case OP_call:
    Out.Imm = S0.getPc();
    return H_Call;
  case OP_call_ind:
    return lowerRm(Out, S0, H_CallIndR, H_CallIndM);
  case OP_ret:
    return H_Ret;
  case OP_ret_imm:
    Out.Imm = uint32_t(S0.getImm());
    return H_RetImm;
  case OP_jecxz:
    Out.Imm = S0.getPc();
    return H_Jecxz;

  case OP_int:
    return H_Int;
  case OP_hlt:
    return H_Hlt;
  case OP_nop:
    return H_Nop;
  case OP_clientcall:
    Out.Imm = uint32_t(S0.getImm());
    return H_ClientCall;
  case OP_savef:
    return lowerRm(Out, D0, None, H_Savef);
  case OP_restf:
    return lowerRm(Out, S0, None, H_Restf);

  case OP_movsd:
    return lowerPair(Out, D0, S0, H_MovsdXX, None, H_MovsdXM, H_MovsdMX);
  case OP_addsd:
    return lowerPair(Out, D0, S0, H_AddsdXX, None, H_AddsdXM);
  case OP_subsd:
    return lowerPair(Out, D0, S0, H_SubsdXX, None, H_SubsdXM);
  case OP_mulsd:
    return lowerPair(Out, D0, S0, H_MulsdXX, None, H_MulsdXM);
  case OP_divsd:
    return lowerPair(Out, D0, S0, H_DivsdXX, None, H_DivsdXM);
  case OP_ucomisd:
    return lowerPair(Out, DI.Srcs[1], S0, H_UcomisdXX, None, H_UcomisdXM);
  case OP_cvtsi2sd:
    return lowerPair(Out, D0, S0, H_Cvtsi2sdXR, None, H_Cvtsi2sdXM);
  case OP_cvttsd2si:
    return lowerPair(Out, D0, S0, H_Cvttsd2siRX, None, H_Cvttsd2siRM);

  default:
    if (opcodeIsCondBranch(DI.Op)) {
      Out.Imm = S0.getPc();
      return Handler(H_Jo + condCodeOf(DI.Op));
    }
    return None;
  }
}

#undef RIO_ALL_SHAPES

static_assert(H_Jnle - H_Jo == OP_jnle - OP_jo,
              "conditional-jump handlers follow condition-code order");

} // namespace

bool rio::lowerDecodeLine(const DecodedInstr &DI, const CostModel &Cost,
                          DecodeLine &Out) {
  Handler H = selectHandler(DI, Out);
  if (H == None)
    return false;
  Out.H = H;
  Out.Length = DI.Length;
  Out.Op = uint8_t(DI.Op);
  Out.Flags = opcodeIsCti(DI.Op) ? DecodeLine::CtiBit : 0;
  Out.Cost = Cost.cyclesFor(DI);
  return true;
}
