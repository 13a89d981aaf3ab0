//===- vm/DecodeLine.h - Compact pre-resolved decode-cache lines ----------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The interpreter's own level of detail (paper Section 3.1: decode only as
/// far as the consumer needs, and keep the result). The decode cache does
/// not keep a full DecodedInstr with generic Operand arrays; it keeps a
/// 28-byte line lowered once, on the miss path, from the full decode:
///
///   - a handler id per (opcode, operand shape), e.g. AddRM = `add r32,
///     [mem]`, so the interpreter switches once and never re-inspects
///     operand kinds;
///   - register operands as indexes into CpuState (GPR 0-7, XMM 0-7; a byte
///     register is its containing GPR's index plus ByteHigh for ah..bh);
///   - at most one memory operand as base/index/scale-shift/displacement;
///   - the immediate or absolute branch target;
///   - the length, the memoized cycle cost and a CTI bit.
///
/// Only shapes the decoder can produce have handlers: lowering is total over
/// decodeInstr's output (tests/vm_semantics_test.cpp asserts every handler
/// is reached and matches a generic reference interpreter).
///
//===----------------------------------------------------------------------===//

#ifndef RIO_VM_DECODELINE_H
#define RIO_VM_DECODELINE_H

#include "isa/Decode.h"

#include <cstdint>

namespace rio {

struct CostModel;

/// Operand shape suffixes: R = 32-bit GPR (or byte register for the _b
/// moves), I = immediate, M = memory, C = the cl shift count, X = xmm.
/// ALU ops list their destination first: AddMR is `add [mem], r32`.
#define RIO_VM_ALU_HANDLERS(X, Name)                                           \
  X(Name##RR) X(Name##RI) X(Name##RM) X(Name##MR) X(Name##MI)
#define RIO_VM_SHIFT_HANDLERS(X, Name)                                         \
  X(Name##RI) X(Name##MI) X(Name##RC) X(Name##MC)
#define RIO_VM_SSE_HANDLERS(X, Name) X(Name##XX) X(Name##XM)

#define RIO_VM_HANDLERS(X)                                                     \
  X(MovRR) X(MovRI) X(MovRM) X(MovMR) X(MovMI)                                 \
  X(MovbRR) X(MovbRI) X(MovbRM) X(MovbMR) X(MovbMI)                            \
  X(MovzxbRR) X(MovzxbRM) X(MovsxbRR) X(MovsxbRM) X(MovzxwRM) X(MovsxwRM)      \
  X(Lea) X(XchgRR) X(XchgMR) X(PushR) X(PushI) X(PushM) X(PopR) X(PopM)        \
  RIO_VM_ALU_HANDLERS(X, Add) RIO_VM_ALU_HANDLERS(X, Or)                       \
  RIO_VM_ALU_HANDLERS(X, Adc) RIO_VM_ALU_HANDLERS(X, Sbb)                      \
  RIO_VM_ALU_HANDLERS(X, And) RIO_VM_ALU_HANDLERS(X, Sub)                      \
  RIO_VM_ALU_HANDLERS(X, Xor) RIO_VM_ALU_HANDLERS(X, Cmp)                      \
  X(TestRR) X(TestRI) X(TestMR) X(TestMI)                                      \
  X(IncR) X(IncM) X(DecR) X(DecM) X(NegR) X(NegM) X(NotR) X(NotM)              \
  X(ImulRR) X(ImulRM) X(ImulRRI) X(ImulRMI) X(MulR) X(MulM) X(IdivR)           \
  X(IdivM) X(Cdq)                                                              \
  RIO_VM_SHIFT_HANDLERS(X, Shl) RIO_VM_SHIFT_HANDLERS(X, Shr)                  \
  RIO_VM_SHIFT_HANDLERS(X, Sar)                                                \
  X(Jmp) X(JmpIndR) X(JmpIndM) X(Call) X(CallIndR) X(CallIndM) X(Ret)          \
  X(RetImm)                                                                    \
  X(Jo) X(Jno) X(Jb) X(Jnb) X(Jz) X(Jnz) X(Jbe) X(Jnbe) X(Js) X(Jns) X(Jp)     \
  X(Jnp) X(Jl) X(Jnl) X(Jle) X(Jnle) X(Jecxz)                                  \
  X(Int) X(Hlt) X(Nop) X(ClientCall) X(Savef) X(Restf)                         \
  X(MovsdXX) X(MovsdXM) X(MovsdMX)                                             \
  RIO_VM_SSE_HANDLERS(X, Addsd) RIO_VM_SSE_HANDLERS(X, Subsd)                  \
  RIO_VM_SSE_HANDLERS(X, Mulsd) RIO_VM_SSE_HANDLERS(X, Divsd)                  \
  RIO_VM_SSE_HANDLERS(X, Ucomisd)                                              \
  X(Cvtsi2sdXR) X(Cvtsi2sdXM) X(Cvttsd2siRX) X(Cvttsd2siRM)

/// Interpreter handler ids; see RIO_VM_HANDLERS.
enum Handler : uint8_t {
#define RIO_VM_HANDLER_ENUM(Name) H_##Name,
  RIO_VM_HANDLERS(RIO_VM_HANDLER_ENUM)
#undef RIO_VM_HANDLER_ENUM
      NumHandlers
};

/// Returns the handler's name, e.g. "AddRM".
const char *handlerName(Handler H);

/// One direct-mapped decode-cache line (see file comment). Tag holds the
/// complement of the cached instruction's pc, so the all-zero line — the
/// CowArray's untouched state — matches no pc the machine can fetch.
struct DecodeLine {
  /// No base/index register in the memory operand.
  static constexpr uint8_t NoReg = 0xFF;
  /// Added to a GPR index to name bits 15:8 (ah, ch, dh, bh); it doubles
  /// as the shift that extracts them.
  static constexpr uint8_t ByteHigh = 8;
  /// Flags bits.
  static constexpr uint8_t CtiBit = 1;

  uint32_t Tag = 0;   ///< ~pc; see above
  uint32_t Cost = 0;  ///< CostModel::cyclesFor, memoized at fill time
  Handler H = H_Nop;
  uint8_t Length = 0;
  uint8_t Op = 0;     ///< the Opcode (a runtime's IBL vetting hook reads it)
  uint8_t Flags = 0;
  uint8_t Reg = 0;    ///< destination (or only) register operand
  uint8_t Reg2 = 0;   ///< source register operand
  uint8_t Base = NoReg;
  uint8_t Index = NoReg;
  uint8_t ScaleShift = 0;
  int32_t Disp = 0;
  uint32_t Imm = 0;   ///< immediate, branch target or shift count

  Opcode opcode() const { return Opcode(Op); }
  bool isCti() const { return Flags & CtiBit; }
};

static_assert(sizeof(DecodeLine) <= 48, "decode lines must stay compact");
static_assert(NUM_OPCODES <= 256, "DecodeLine::Op is one byte");

/// Lowers the full decode \p DI into \p Out's handler and operand fields,
/// Length, Op, Flags and Cost (Tag is the cache's business).
/// Returns false for a shape no handler implements, which decodeInstr never
/// produces.
bool lowerDecodeLine(const DecodedInstr &DI, const CostModel &Cost,
                     DecodeLine &Out);

} // namespace rio

#endif // RIO_VM_DECODELINE_H
