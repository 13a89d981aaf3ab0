//===- vm/Machine.cpp - The simulated machine -------------------------------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//

#include "vm/Machine.h"

#include "vm/Syscall.h"
#include "support/Compiler.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

using namespace rio;

Machine::Machine(const MachineConfig &Config)
    : Config(Config), Mem(Config.AppRegionSize + Config.RuntimeRegionSize) {
  LineState.resize(Mem.size() / WriteWatchLine + 1);
  DecodedSpan.resize(Mem.size() / WriteWatchLine + 1);
  DecodeCache.resize(DecodeCacheLines);
  CurCpu = &Threads[CurThread].Cpu;
}

Machine::Machine(const Machine &Template)
    : Config(Template.Config), Mem(Template.Mem), Threads(Template.Threads),
      CurThread(Template.CurThread), Pred(Template.Pred),
      Status(Template.Status), ExitCode(Template.ExitCode),
      FaultReason(Template.FaultReason), Output(Template.Output),
      Cycles(Template.Cycles), InstrsExecuted(Template.InstrsExecuted),
      LastPc(Template.LastPc), ResetPc(Template.ResetPc),
      ResetSp(Template.ResetSp), DecodeCache(Template.DecodeCache),
      LineState(Template.LineState),
      DecodedSpan(Template.DecodedSpan), CodeWrites(Template.CodeWrites),
      PendingInval(Template.PendingInval) {
  CurCpu = &Threads[CurThread].Cpu;
}

void Machine::resetForRun() {
  Threads.assign(1, Thread());
  CurThread = 0;
  CurCpu = &Threads[0].Cpu;
  CurCpu->Pc = ResetPc;
  CurCpu->writeGpr32(REG_ESP, ResetSp);
  Status = RunStatus::Running;
  ExitCode = 0;
  FaultReason.clear();
}

void Machine::fault(const std::string &Reason) {
  Status = RunStatus::Faulted;
  FaultReason = Reason;
}

const DecodeLine *Machine::fetchDecode(AppPc Pc) {
  if (Pc >= Mem.size())
    return nullptr;
  {
    const DecodeLine &L = DecodeCache[Pc & (DecodeCacheLines - 1)];
    if (L.Tag == ~Pc)
      return &L;
  }
  // All instructions are at most MaxInstrLength bytes, so a bounded window
  // is as good as the old whole-image pointer; readWindow stitches a
  // page-straddling fetch through the scratch buffer.
  uint8_t Scratch[MaxInstrLength];
  uint32_t Win = std::min<uint32_t>(Mem.size() - Pc, MaxInstrLength);
  const uint8_t *Bytes = Mem.readWindow(Pc, Win, Scratch);
  DecodedInstr DI;
  DecodeLine Fresh;
  if (!Bytes || !decodeInstr(Bytes, Win, Pc, DI) ||
      !lowerDecodeLine(DI, Config.Cost, Fresh))
    return nullptr;
  noteDecoded(Pc, DI.Length);
  Fresh.Tag = ~Pc;
  DecodeLine &L = DecodeCache.mut(Pc & (DecodeCacheLines - 1));
  L = Fresh;
  return &L;
}

void Machine::noteDecoded(AppPc Pc, uint32_t Len) {
  // Stores into these bytes must now invalidate. An instruction may run
  // into the next line; both lines record their share of its bytes.
  for (uint32_t Lo = Pc, End = Pc + Len; Lo < End;) {
    uint32_t Line = Lo / WriteWatchLine;
    uint32_t Hi = std::min(End, (Line + 1) * WriteWatchLine) - 1;
    uint32_t First = Lo % WriteWatchLine, Last = Hi % WriteWatchLine;
    uint32_t &State = LineState.mut(Line);
    uint16_t &Span = DecodedSpan.mut(Line);
    if (State & 1) {
      First = std::min<uint32_t>(First, Span & 0xFF);
      Last = std::max<uint32_t>(Last, Span >> 8);
    }
    State |= 1;
    Span = uint16_t(First | (Last << 8));
    Lo = Hi + 1;
  }
}

void Machine::invalidateDecodeRange(uint32_t Lo, uint32_t Hi) {
  Hi = std::min<uint64_t>(Hi, Mem.size());
  if (Lo >= Hi)
    return;
  // Any instruction starting up to MaxInstrLength-1 bytes before Lo may
  // span into the range.
  Lo = Lo >= MaxInstrLength - 1 ? Lo - (MaxInstrLength - 1) : 0;
  auto Drop = [&](uint32_t Line) { DecodeCache.mut(Line).Tag = 0; };
  if (Hi - Lo >= DecodeCacheLines) {
    for (uint32_t Line = 0; Line != DecodeCacheLines; ++Line) {
      uint32_t Pc = ~DecodeCache[Line].Tag;
      if (Pc >= Lo && Pc < Hi)
        Drop(Line);
    }
    return;
  }
  for (uint32_t Pc = Lo; Pc != Hi; ++Pc)
    if (DecodeCache[Pc & (DecodeCacheLines - 1)].Tag == ~Pc)
      Drop(Pc & (DecodeCacheLines - 1));
}

//===----------------------------------------------------------------------===//
// Code-write monitoring
//===----------------------------------------------------------------------===//

void Machine::addWriteWatch(uint32_t Lo, uint32_t Hi) {
  if (Lo >= Hi)
    return;
  Hi = std::min<uint64_t>(Hi, Mem.size());
  for (uint32_t L = Lo / WriteWatchLine; L <= (Hi - 1) / WriteWatchLine; ++L)
    LineState.mut(L) += 2; // watch count lives above the sticky decoded bit
}

void Machine::removeWriteWatch(uint32_t Lo, uint32_t Hi) {
  if (Lo >= Hi)
    return;
  Hi = std::min<uint64_t>(Hi, Mem.size());
  for (uint32_t L = Lo / WriteWatchLine; L <= (Hi - 1) / WriteWatchLine; ++L)
    if (LineState[L] >> 1)
      LineState.mut(L) -= 2;
}

void Machine::noteWriteSlow(uint32_t Addr, uint32_t Len, uint32_t State) {
  // The inline fast path already OR-ed the (at most two) line states; only
  // monitored stores land here.
  if ((State & 1) && overlapsDecodedBytes(Addr, Len))
    PendingInval.push_back({Addr, Addr + Len});
  if (State >> 1)
    CodeWrites.push_back({Addr, Addr + Len});
}

bool Machine::overlapsDecodedBytes(uint32_t Addr, uint32_t Len) const {
  uint32_t Last = Addr + Len - 1;
  for (uint32_t Line = Addr / WriteWatchLine; Line <= Last / WriteWatchLine;
       ++Line) {
    if (!(LineState[Line] & 1))
      continue;
    uint32_t Base = Line * WriteWatchLine;
    uint16_t Span = DecodedSpan[Line];
    if (Addr <= Base + (Span >> 8) && Last >= Base + (Span & 0xFF))
      return true;
  }
  return false;
}

void Machine::drainPendingInvalidations() {
  for (const CodeWriteEvent &Ev : PendingInval)
    invalidateDecodeRange(Ev.Lo, Ev.Hi);
  PendingInval.clear();
}

//===----------------------------------------------------------------------===//
// Flag computation
//===----------------------------------------------------------------------===//

namespace {

/// Parity of the low result byte, precomputed: ParityLut.T[b] is EFLAGS_PF
/// if b has even parity, else 0.
struct ParityLut {
  uint32_t T[256];
  constexpr ParityLut() : T() {
    for (unsigned I = 0; I != 256; ++I) {
      unsigned B = I ^ (I >> 4);
      B ^= B >> 2;
      B ^= B >> 1;
      T[I] = (B & 1) == 0 ? uint32_t(EFLAGS_PF) : 0u;
    }
  }
};
constexpr ParityLut Parity;

constexpr uint32_t ArithFlags = EFLAGS_CF | EFLAGS_PF | EFLAGS_AF |
                                EFLAGS_ZF | EFLAGS_SF | EFLAGS_OF;

/// PF/ZF/SF bits for \p Result. SF is bit 7, so the sign bit shifts into
/// place directly.
RIO_ALWAYS_INLINE uint32_t pzsBits(uint32_t Result) {
  uint32_t Bits = Parity.T[Result & 0xFF];
  if (Result == 0)
    Bits |= EFLAGS_ZF;
  Bits |= (Result >> 24) & EFLAGS_SF;
  return Bits;
}

RIO_ALWAYS_INLINE void setPZS(CpuState &St, uint32_t Result) {
  St.Eflags = (St.Eflags & ~(EFLAGS_PF | EFLAGS_ZF | EFLAGS_SF)) |
              pzsBits(Result);
}

/// add/adc result flags; \p CarryIn is 0 or 1. All six arithmetic flags
/// are merged into Eflags with one read-modify-write.
RIO_ALWAYS_INLINE uint32_t doAdd(CpuState &St, uint32_t A, uint32_t B,
                                 uint32_t CarryIn, bool WriteCarry = true) {
  uint64_t Wide = uint64_t(A) + B + CarryIn;
  uint32_t Result = uint32_t(Wide);
  uint32_t Bits = pzsBits(Result);
  Bits |= ((A ^ B ^ Result) & EFLAGS_AF); // AF is bit 4 of the carry vector
  if (((A ^ Result) & (B ^ Result)) >> 31)
    Bits |= EFLAGS_OF;
  uint32_t Mask = ArithFlags & ~EFLAGS_CF;
  if (WriteCarry) {
    Mask = ArithFlags;
    if (Wide >> 32)
      Bits |= EFLAGS_CF;
  }
  St.Eflags = (St.Eflags & ~Mask) | Bits;
  return Result;
}

/// sub/sbb/cmp result flags.
RIO_ALWAYS_INLINE uint32_t doSub(CpuState &St, uint32_t A, uint32_t B,
                                 uint32_t BorrowIn, bool WriteCarry = true) {
  uint64_t Rhs = uint64_t(B) + BorrowIn;
  uint32_t Result = uint32_t(A - B - BorrowIn);
  uint32_t Bits = pzsBits(Result);
  Bits |= ((A ^ B ^ Result) & EFLAGS_AF);
  if (((A ^ B) & (A ^ Result)) >> 31)
    Bits |= EFLAGS_OF;
  uint32_t Mask = ArithFlags & ~EFLAGS_CF;
  if (WriteCarry) {
    Mask = ArithFlags;
    if (uint64_t(A) < Rhs)
      Bits |= EFLAGS_CF;
  }
  St.Eflags = (St.Eflags & ~Mask) | Bits;
  return Result;
}

RIO_ALWAYS_INLINE void doLogicFlags(CpuState &St, uint32_t Result) {
  St.Eflags = (St.Eflags & ~ArithFlags) | pzsBits(Result);
}

RIO_ALWAYS_INLINE bool condHolds(const CpuState &St, unsigned Cc) {
  bool CF = St.flag(EFLAGS_CF);
  bool PF = St.flag(EFLAGS_PF);
  bool ZF = St.flag(EFLAGS_ZF);
  bool SF = St.flag(EFLAGS_SF);
  bool OF = St.flag(EFLAGS_OF);
  bool Result;
  switch (Cc >> 1) {
  case 0:
    Result = OF;
    break; // o / no
  case 1:
    Result = CF;
    break; // b / nb
  case 2:
    Result = ZF;
    break; // z / nz
  case 3:
    Result = CF || ZF;
    break; // be / nbe
  case 4:
    Result = SF;
    break; // s / ns
  case 5:
    Result = PF;
    break; // p / np
  case 6:
    Result = SF != OF;
    break; // l / nl
  case 7:
    Result = ZF || (SF != OF);
    break; // le / nle
  default:
    RIO_UNREACHABLE("bad condition code");
  }
  return (Cc & 1) ? !Result : Result;
}

} // namespace

//===----------------------------------------------------------------------===//
// Syscalls
//===----------------------------------------------------------------------===//

unsigned Machine::createThread(AppPc Entry, uint32_t StackTop) {
  Thread T;
  T.Cpu.Pc = Entry;
  T.Cpu.writeGpr32(REG_ESP, StackTop & ~15u);
  Threads.push_back(T);
  CurCpu = &Threads[CurThread].Cpu; // push_back may have reallocated
  return unsigned(Threads.size() - 1);
}

Machine::SyscallResult Machine::doSyscall() {
  uint32_t Nr = cpu().readGpr32(REG_EAX);
  uint32_t Arg1 = cpu().readGpr32(REG_EBX);
  uint32_t Arg2 = cpu().readGpr32(REG_ECX);
  uint32_t Arg3 = cpu().readGpr32(REG_EDX);
  switch (Nr) {
  case RSYS_exit:
    Status = RunStatus::Exited;
    ExitCode = int(Arg1);
    return SyscallResult::Ok;
  case RSYS_print_int: {
    char Buf[16];
    int Len = std::snprintf(Buf, sizeof(Buf), "%d\n", int(Arg1));
    Output.append(Buf, size_t(Len));
    return SyscallResult::Ok;
  }
  case RSYS_print_char:
    Output.push_back(char(Arg1));
    return SyscallResult::Ok;
  case RSYS_write: {
    if (Arg1 != 1 && Arg1 != 2) {
      fault("write to bad fd");
      return SyscallResult::Fault;
    }
    if (!Mem.inBounds(Arg2, Arg3)) {
      fault("write from unmapped buffer");
      return SyscallResult::Fault;
    }
    Mem.forEachSpan(Arg2, Arg3, [&](const uint8_t *Run, uint32_t Len) {
      Output.append(reinterpret_cast<const char *>(Run), Len);
    });
    cpu().writeGpr32(REG_EAX, Arg3);
    return SyscallResult::Ok;
  }
  case RSYS_thread_create: {
    if (!Mem.inBounds(Arg2 - 16, 16)) {
      fault("thread_create with bad stack");
      return SyscallResult::Fault;
    }
    unsigned Tid = createThread(Arg1, Arg2);
    cpu().writeGpr32(REG_EAX, Tid);
    return SyscallResult::Spawned;
  }
  case RSYS_thread_exit:
    Threads[CurThread].Alive = false;
    // The whole program ends when the last thread leaves.
    {
      bool AnyAlive = false;
      for (const Thread &T : Threads)
        AnyAlive = AnyAlive || T.Alive;
      if (!AnyAlive) {
        Status = RunStatus::Exited;
        ExitCode = 0;
      }
    }
    return SyscallResult::ThreadExited;
  case RSYS_gettid:
    cpu().writeGpr32(REG_EAX, CurThread);
    return SyscallResult::Ok;
  default:
    fault("unknown syscall " + std::to_string(Nr));
    return SyscallResult::Fault;
  }
}

//===----------------------------------------------------------------------===//
// Execution
//===----------------------------------------------------------------------===//

StepResult Machine::memFault(AppPc Pc) {
  fault("memory access out of bounds at pc " + std::to_string(Pc));
  StepResult Result;
  Result.Kind = StepKind::Faulted;
  return Result;
}

StepResult Machine::faultStep(const char *Reason) {
  fault(Reason);
  StepResult Result;
  Result.Kind = StepKind::Faulted;
  return Result;
}

namespace {

/// CpuState::Gpr indexes of the registers handlers name implicitly.
constexpr unsigned Eax = REG_EAX - REG_EAX, Ecx = REG_ECX - REG_EAX,
                   Edx = REG_EDX - REG_EAX, Esp = REG_ESP - REG_EAX;

enum class Alu { Add, Or, Adc, Sbb, And, Sub, Xor, Cmp, Test };

/// Two-operand integer ALU op on A (the destination side) and B, with its
/// flags; returns the result (cmp/test callers discard it).
template <Alu K>
RIO_ALWAYS_INLINE uint32_t alu(CpuState &St, uint32_t A, uint32_t B) {
  switch (K) {
  case Alu::Add:
    return doAdd(St, A, B, 0);
  case Alu::Adc:
    return doAdd(St, A, B, St.flag(EFLAGS_CF) ? 1 : 0);
  case Alu::Sub:
  case Alu::Cmp:
    return doSub(St, A, B, 0);
  case Alu::Sbb:
    return doSub(St, A, B, St.flag(EFLAGS_CF) ? 1 : 0);
  case Alu::And:
  case Alu::Test:
    doLogicFlags(St, A & B);
    return A & B;
  case Alu::Or:
    doLogicFlags(St, A | B);
    return A | B;
  case Alu::Xor:
    doLogicFlags(St, A ^ B);
    return A ^ B;
  }
  return 0;
}

constexpr bool aluWrites(Alu K) { return K != Alu::Cmp && K != Alu::Test; }

enum class Shift { Shl, Shr, Sar };

/// Shifts A by Count (1..31), setting the shift flags.
template <Shift K>
RIO_ALWAYS_INLINE uint32_t shift(CpuState &St, uint32_t A, uint32_t Count) {
  uint32_t R;
  bool LastOut;
  if (K == Shift::Shl) {
    LastOut = ((A >> (32 - Count)) & 1) != 0;
    R = A << Count;
    St.setFlag(EFLAGS_OF, Count == 1 && ((R >> 31) != 0) != LastOut);
  } else if (K == Shift::Shr) {
    LastOut = ((A >> (Count - 1)) & 1) != 0;
    R = A >> Count;
    St.setFlag(EFLAGS_OF, Count == 1 && (A >> 31) != 0);
  } else {
    LastOut = ((uint32_t(int32_t(A) >> (Count - 1))) & 1) != 0;
    R = uint32_t(int32_t(A) >> Count);
    St.setFlag(EFLAGS_OF, false);
  }
  St.setFlag(EFLAGS_CF, LastOut);
  St.setFlag(EFLAGS_AF, false);
  setPZS(St, R);
  return R;
}

uint32_t imul(CpuState &St, uint32_t A, uint32_t B) {
  int64_t Full = int64_t(int32_t(A)) * int64_t(int32_t(B));
  uint32_t R = uint32_t(Full);
  bool Overflow = Full != int64_t(int32_t(R));
  St.setFlag(EFLAGS_CF, Overflow);
  St.setFlag(EFLAGS_OF, Overflow);
  St.setFlag(EFLAGS_AF, false);
  setPZS(St, R);
  return R;
}

void mul(CpuState &St, uint32_t Src) {
  uint64_t Full = uint64_t(St.Gpr[Eax]) * Src;
  uint32_t Lo = uint32_t(Full), Hi = uint32_t(Full >> 32);
  St.Gpr[Eax] = Lo;
  St.Gpr[Edx] = Hi;
  St.setFlag(EFLAGS_CF, Hi != 0);
  St.setFlag(EFLAGS_OF, Hi != 0);
  St.setFlag(EFLAGS_AF, false);
  setPZS(St, Lo);
}

/// edx:eax / Src into eax (quotient) and edx (remainder). Returns null, or
/// the reason for the divide fault (the registers are then untouched).
const char *idiv(CpuState &St, uint32_t Src) {
  int64_t Dividend = int64_t((uint64_t(St.Gpr[Edx]) << 32) | St.Gpr[Eax]);
  int32_t Divisor = int32_t(Src);
  if (Divisor == 0)
    return "integer divide by zero";
  // INT64_MIN / -1 traps on the host; its quotient overflows int32 anyway.
  if (Divisor == -1 && Dividend == std::numeric_limits<int64_t>::min())
    return "integer divide overflow";
  int64_t Quot = Dividend / Divisor;
  if (Quot > std::numeric_limits<int32_t>::max() ||
      Quot < std::numeric_limits<int32_t>::min())
    return "integer divide overflow";
  St.Gpr[Eax] = uint32_t(int32_t(Quot));
  St.Gpr[Edx] = uint32_t(int32_t(Dividend % Divisor));
  return nullptr;
}

enum class Sse { Add, Sub, Mul, Div };

template <Sse K> RIO_ALWAYS_INLINE double sse(double A, double B) {
  return K == Sse::Add ? A + B : K == Sse::Sub ? A - B
                             : K == Sse::Mul ? A * B
                                             : A / B;
}

void ucomisd(CpuState &St, double A, double B) {
  bool Unordered = std::isnan(A) || std::isnan(B);
  St.setFlag(EFLAGS_ZF, Unordered || A == B);
  St.setFlag(EFLAGS_PF, Unordered);
  St.setFlag(EFLAGS_CF, Unordered || A < B);
  St.setFlag(EFLAGS_OF, false);
  St.setFlag(EFLAGS_AF, false);
  St.setFlag(EFLAGS_SF, false);
}

uint32_t cvttsd2si(double V) {
  // Out of range or NaN: x86's "integer indefinite".
  if (std::isnan(V) || V >= 2147483648.0 || V < -2147483648.0)
    return uint32_t(std::numeric_limits<int32_t>::min());
  return uint32_t(int32_t(V));
}

/// The line's memory operand, addressed with the current registers.
RIO_ALWAYS_INLINE uint32_t effAddr(const uint32_t *Gpr, const DecodeLine &L) {
  uint32_t A = uint32_t(L.Disp);
  if (L.Base != DecodeLine::NoReg)
    A += Gpr[L.Base];
  if (L.Index != DecodeLine::NoReg)
    A += Gpr[L.Index] << L.ScaleShift;
  return A;
}

// Byte registers: GPR index plus ByteHigh (= the shift) for ah..bh.
RIO_ALWAYS_INLINE uint8_t getByte(const uint32_t *Gpr, uint8_t R) {
  return uint8_t(Gpr[R & 7] >> (R & DecodeLine::ByteHigh));
}
RIO_ALWAYS_INLINE void setByte(uint32_t *Gpr, uint8_t R, uint8_t V) {
  uint32_t Sh = R & DecodeLine::ByteHigh;
  Gpr[R & 7] = (Gpr[R & 7] & ~(0xFFu << Sh)) | (uint32_t(V) << Sh);
}


} // namespace

bool Machine::store32(uint32_t Addr, uint32_t Value) {
  if (!Mem.write32(Addr, Value))
    return false;
  noteWrite(Addr, 4);
  return true;
}

bool Machine::push32(uint32_t Value) {
  uint32_t Sp = CurCpu->Gpr[Esp] - 4;
  if (!store32(Sp, Value))
    return false;
  CurCpu->Gpr[Esp] = Sp;
  return true;
}

StepResult Machine::execute(const DecodeLine &L) {
  StepResult Result;
  const CostModel &CM = Config.Cost;
  CpuState &C = *CurCpu;
  uint32_t *const Gpr = C.Gpr;
  const AppPc Pc = C.Pc;
  bool Ok = true;
  // Operands of the shared control-transfer tails below the switch.
  bool Taken = false;
  uint32_t Target = 0, Extra = 0;

#define RIO_ALU_CASES_NO_RM(Name, K)                                           \
  case H_##Name##RR: {                                                         \
    uint32_t R = alu<K>(C, Gpr[L.Reg], Gpr[L.Reg2]);                           \
    if (aluWrites(K))                                                          \
      Gpr[L.Reg] = R;                                                          \
    break;                                                                     \
  }                                                                            \
  case H_##Name##RI: {                                                         \
    uint32_t R = alu<K>(C, Gpr[L.Reg], L.Imm);                                 \
    if (aluWrites(K))                                                          \
      Gpr[L.Reg] = R;                                                          \
    break;                                                                     \
  }                                                                            \
  case H_##Name##MR:                                                           \
  case H_##Name##MI: {                                                         \
    uint32_t B = L.H == H_##Name##MR ? Gpr[L.Reg2] : L.Imm;                    \
    uint32_t Addr = effAddr(Gpr, L), A;                                        \
    Ok = Mem.read32(Addr, A);                                                  \
    if (Ok) {                                                                  \
      uint32_t R = alu<K>(C, A, B);                                            \
      if (aluWrites(K))                                                        \
        Ok = store32(Addr, R);                                                 \
    }                                                                          \
    break;                                                                     \
  }
#define RIO_ALU_CASES(Name, K)                                                 \
  RIO_ALU_CASES_NO_RM(Name, K)                                                 \
  case H_##Name##RM: {                                                         \
    uint32_t B;                                                                \
    Ok = Mem.read32(effAddr(Gpr, L), B);                                       \
    if (Ok) {                                                                  \
      uint32_t R = alu<K>(C, Gpr[L.Reg], B);                                   \
      if (aluWrites(K))                                                        \
        Gpr[L.Reg] = R;                                                        \
    }                                                                          \
    break;                                                                     \
  }
// A zero count changes neither the result nor the flags; the memory form
// still reads (and may fault on) its operand.
#define RIO_SHIFT_CASES(Name, K)                                               \
  case H_##Name##RI:                                                           \
  case H_##Name##RC: {                                                         \
    uint32_t Count = L.H == H_##Name##RI ? L.Imm : Gpr[Ecx] & 31;              \
    if (Count)                                                                 \
      Gpr[L.Reg] = shift<K>(C, Gpr[L.Reg], Count);                             \
    break;                                                                     \
  }                                                                            \
  case H_##Name##MI:                                                           \
  case H_##Name##MC: {                                                         \
    uint32_t Count = L.H == H_##Name##MI ? L.Imm : Gpr[Ecx] & 31;              \
    uint32_t Addr = effAddr(Gpr, L), A;                                        \
    Ok = Mem.read32(Addr, A);                                                  \
    if (Ok && Count)                                                           \
      Ok = store32(Addr, shift<K>(C, A, Count));                               \
    break;                                                                     \
  }
#define RIO_UNARY_CASES(Name, Expr)                                            \
  case H_##Name##R: {                                                          \
    uint32_t A = Gpr[L.Reg];                                                   \
    Gpr[L.Reg] = (Expr);                                                       \
    break;                                                                     \
  }                                                                            \
  case H_##Name##M: {                                                          \
    uint32_t Addr = effAddr(Gpr, L), A;                                        \
    Ok = Mem.read32(Addr, A) && store32(Addr, (Expr));                         \
    break;                                                                     \
  }
#define RIO_SSE_CASES(Name, K)                                                 \
  case H_##Name##XX:                                                           \
    C.Xmm[L.Reg] = sse<K>(C.Xmm[L.Reg], C.Xmm[L.Reg2]);                        \
    break;                                                                     \
  case H_##Name##XM: {                                                         \
    double B;                                                                  \
    Ok = Mem.readF64(effAddr(Gpr, L), B);                                      \
    if (Ok)                                                                    \
      C.Xmm[L.Reg] = sse<K>(C.Xmm[L.Reg], B);                                  \
    break;                                                                     \
  }
#define RIO_JCC_CASE(Name)                                                     \
  case H_##Name:                                                               \
    Taken = condHolds(C, H_##Name - H_Jo);                                     \
    goto CondBranch;

  switch (L.H) {
  //===--- data movement -------------------------------------------------===
  case H_MovRR:
    Gpr[L.Reg] = Gpr[L.Reg2];
    break;
  case H_MovRI:
    Gpr[L.Reg] = L.Imm;
    break;
  case H_MovRM: {
    uint32_t V;
    Ok = Mem.read32(effAddr(Gpr, L), V);
    if (Ok)
      Gpr[L.Reg] = V;
    break;
  }
  case H_MovMR:
    Ok = store32(effAddr(Gpr, L), Gpr[L.Reg2]);
    break;
  case H_MovMI:
    Ok = store32(effAddr(Gpr, L), L.Imm);
    break;
  case H_MovbRR:
    setByte(Gpr, L.Reg, getByte(Gpr, L.Reg2));
    break;
  case H_MovbRI:
    setByte(Gpr, L.Reg, uint8_t(L.Imm));
    break;
  case H_MovbRM: {
    uint8_t V;
    Ok = Mem.read8(effAddr(Gpr, L), V);
    if (Ok)
      setByte(Gpr, L.Reg, V);
    break;
  }
  case H_MovbMR:
  case H_MovbMI: {
    uint32_t Addr = effAddr(Gpr, L);
    uint8_t V = L.H == H_MovbMR ? getByte(Gpr, L.Reg2) : uint8_t(L.Imm);
    Ok = Mem.write8(Addr, V);
    if (Ok)
      noteWrite(Addr, 1);
    break;
  }
  case H_MovzxbRR:
    Gpr[L.Reg] = getByte(Gpr, L.Reg2);
    break;
  case H_MovsxbRR:
    Gpr[L.Reg] = uint32_t(int32_t(int8_t(getByte(Gpr, L.Reg2))));
    break;
  case H_MovzxbRM:
  case H_MovsxbRM: {
    uint8_t V;
    Ok = Mem.read8(effAddr(Gpr, L), V);
    if (Ok)
      Gpr[L.Reg] =
          L.H == H_MovzxbRM ? uint32_t(V) : uint32_t(int32_t(int8_t(V)));
    break;
  }
  case H_MovzxwRM:
  case H_MovsxwRM: {
    uint16_t V;
    Ok = Mem.read16(effAddr(Gpr, L), V);
    if (Ok)
      Gpr[L.Reg] =
          L.H == H_MovzxwRM ? uint32_t(V) : uint32_t(int32_t(int16_t(V)));
    break;
  }
  case H_Lea:
    Gpr[L.Reg] = effAddr(Gpr, L);
    break;
  case H_XchgRR: {
    uint32_t A = Gpr[L.Reg], B = Gpr[L.Reg2];
    Gpr[L.Reg] = B;
    Gpr[L.Reg2] = A;
    break;
  }
  case H_XchgMR: {
    uint32_t Addr = effAddr(Gpr, L), A;
    Ok = Mem.read32(Addr, A) && store32(Addr, Gpr[L.Reg2]);
    if (Ok)
      Gpr[L.Reg2] = A;
    break;
  }
  case H_PushR:
    Ok = push32(Gpr[L.Reg]);
    break;
  case H_PushI:
    Ok = push32(L.Imm);
    break;
  case H_PushM: {
    uint32_t V;
    Ok = Mem.read32(effAddr(Gpr, L), V) && push32(V);
    break;
  }
  case H_PopR:
  case H_PopM: {
    uint32_t Sp = Gpr[Esp], V;
    Ok = Mem.read32(Sp, V);
    if (!Ok)
      break;
    // Order matters for `pop esp` and `pop [esp+d]`: esp moves first, then
    // the destination (addressed with the new esp) takes the value.
    Gpr[Esp] = Sp + 4;
    if (L.H == H_PopR)
      Gpr[L.Reg] = V;
    else
      Ok = store32(effAddr(Gpr, L), V);
    break;
  }

  //===--- integer ALU ---------------------------------------------------===
  RIO_ALU_CASES(Add, Alu::Add)
  RIO_ALU_CASES(Or, Alu::Or)
  RIO_ALU_CASES(Adc, Alu::Adc)
  RIO_ALU_CASES(Sbb, Alu::Sbb)
  RIO_ALU_CASES(And, Alu::And)
  RIO_ALU_CASES(Sub, Alu::Sub)
  RIO_ALU_CASES(Xor, Alu::Xor)
  RIO_ALU_CASES(Cmp, Alu::Cmp)
  RIO_ALU_CASES_NO_RM(Test, Alu::Test)
  // inc/dec leave CF untouched — the hinge of the paper's Section 4.2.
  RIO_UNARY_CASES(Inc, doAdd(C, A, 1, 0, /*WriteCarry=*/false))
  RIO_UNARY_CASES(Dec, doSub(C, A, 1, 0, /*WriteCarry=*/false))
  RIO_UNARY_CASES(Neg, doSub(C, 0, A, 0))
  RIO_UNARY_CASES(Not, ~A)
  // imul r, rm multiplies rm by r; imul r, rm, imm multiplies imm by rm.
  case H_ImulRR:
    Gpr[L.Reg] = imul(C, Gpr[L.Reg2], Gpr[L.Reg]);
    break;
  case H_ImulRRI:
    Gpr[L.Reg] = imul(C, L.Imm, Gpr[L.Reg2]);
    break;
  case H_ImulRM:
  case H_ImulRMI: {
    uint32_t V;
    Ok = Mem.read32(effAddr(Gpr, L), V);
    if (Ok)
      Gpr[L.Reg] = L.H == H_ImulRM ? imul(C, V, Gpr[L.Reg]) : imul(C, L.Imm, V);
    break;
  }
  case H_MulR:
    mul(C, Gpr[L.Reg]);
    break;
  case H_MulM: {
    uint32_t V;
    Ok = Mem.read32(effAddr(Gpr, L), V);
    if (Ok)
      mul(C, V);
    break;
  }
  case H_IdivR:
  case H_IdivM: {
    uint32_t V = Gpr[L.Reg];
    if (L.H == H_IdivM && !Mem.read32(effAddr(Gpr, L), V))
      return memFault(Pc);
    if (const char *Reason = idiv(C, V))
      return faultStep(Reason);
    break;
  }
  case H_Cdq:
    Gpr[Edx] = (Gpr[Eax] & 0x80000000u) ? 0xFFFFFFFFu : 0;
    break;
  RIO_SHIFT_CASES(Shl, Shift::Shl)
  RIO_SHIFT_CASES(Shr, Shift::Shr)
  RIO_SHIFT_CASES(Sar, Shift::Sar)

  //===--- control transfer ----------------------------------------------===
  case H_Jmp:
    Cycles += CM.TakenBranchCost;
    C.Pc = L.Imm;
    return Result;
  RIO_JCC_CASE(Jo)
  RIO_JCC_CASE(Jno)
  RIO_JCC_CASE(Jb)
  RIO_JCC_CASE(Jnb)
  RIO_JCC_CASE(Jz)
  RIO_JCC_CASE(Jnz)
  RIO_JCC_CASE(Jbe)
  RIO_JCC_CASE(Jnbe)
  RIO_JCC_CASE(Js)
  RIO_JCC_CASE(Jns)
  RIO_JCC_CASE(Jp)
  RIO_JCC_CASE(Jnp)
  RIO_JCC_CASE(Jl)
  RIO_JCC_CASE(Jnl)
  RIO_JCC_CASE(Jle)
  RIO_JCC_CASE(Jnle)
  case H_Jecxz:
    Taken = Gpr[Ecx] == 0;
    goto CondBranch;
  case H_JmpIndR:
    Target = Gpr[L.Reg];
    goto IndirectJump;
  case H_JmpIndM:
    if (!Mem.read32(effAddr(Gpr, L), Target))
      return memFault(Pc);
    goto IndirectJump;
  case H_Call:
    if (!push32(Pc + L.Length))
      return memFault(Pc);
    Cycles += CM.TakenBranchCost;
    if (!inRuntimeRegion(Pc))
      Pred.pushReturn(Pc + L.Length);
    C.Pc = L.Imm;
    return Result;
  case H_CallIndR:
    Target = Gpr[L.Reg];
    goto IndirectCall;
  case H_CallIndM:
    if (!Mem.read32(effAddr(Gpr, L), Target))
      return memFault(Pc);
    goto IndirectCall;
  case H_Ret:
    goto Return;
  case H_RetImm:
    Extra = L.Imm;
    goto Return;

  //===--- system --------------------------------------------------------===
  case H_Int: {
    C.Pc = Pc + L.Length; // syscall returns to the following instruction
    // thread_create may reallocate the thread table: C dies here.
    SyscallResult Sys = doSyscall();
    if (Sys == SyscallResult::Fault) {
      Result.Kind = StepKind::Faulted;
      return Result;
    }
    if (Status == RunStatus::Exited) {
      Result.Kind = StepKind::Exited;
      return Result;
    }
    if (Sys == SyscallResult::ThreadExited)
      Result.Kind = StepKind::ThreadExited;
    else if (Sys == SyscallResult::Spawned)
      Result.Kind = StepKind::ThreadSpawned;
    return Result;
  }
  case H_Hlt:
    Status = RunStatus::Exited;
    ExitCode = 0;
    Result.Kind = StepKind::Exited;
    return Result;
  case H_Nop:
    break;

  //===--- scalar double -------------------------------------------------===
  case H_MovsdXX:
    C.Xmm[L.Reg] = C.Xmm[L.Reg2];
    break;
  case H_MovsdXM: {
    double V;
    Ok = Mem.readF64(effAddr(Gpr, L), V);
    if (Ok)
      C.Xmm[L.Reg] = V;
    break;
  }
  case H_MovsdMX: {
    uint32_t Addr = effAddr(Gpr, L);
    Ok = Mem.writeF64(Addr, C.Xmm[L.Reg2]);
    if (Ok)
      noteWrite(Addr, 8);
    break;
  }
  RIO_SSE_CASES(Addsd, Sse::Add)
  RIO_SSE_CASES(Subsd, Sse::Sub)
  RIO_SSE_CASES(Mulsd, Sse::Mul)
  RIO_SSE_CASES(Divsd, Sse::Div)
  case H_UcomisdXX:
    ucomisd(C, C.Xmm[L.Reg], C.Xmm[L.Reg2]);
    break;
  case H_UcomisdXM: {
    double B;
    Ok = Mem.readF64(effAddr(Gpr, L), B);
    if (Ok)
      ucomisd(C, C.Xmm[L.Reg], B);
    break;
  }
  case H_Cvtsi2sdXR:
    C.Xmm[L.Reg] = double(int32_t(Gpr[L.Reg2]));
    break;
  case H_Cvtsi2sdXM: {
    uint32_t V;
    Ok = Mem.read32(effAddr(Gpr, L), V);
    if (Ok)
      C.Xmm[L.Reg] = double(int32_t(V));
    break;
  }
  case H_Cvttsd2siRX:
    Gpr[L.Reg] = cvttsd2si(C.Xmm[L.Reg2]);
    break;
  case H_Cvttsd2siRM: {
    double V;
    Ok = Mem.readF64(effAddr(Gpr, L), V);
    if (Ok)
      Gpr[L.Reg] = cvttsd2si(V);
    break;
  }

  //===--- runtime extensions --------------------------------------------===
  case H_ClientCall:
    C.Pc = Pc + L.Length;
    Result.Kind = StepKind::ClientCall;
    Result.ClientCallId = L.Imm;
    return Result;
  case H_Savef:
    Ok = store32(effAddr(Gpr, L), C.Eflags);
    break;
  case H_Restf: {
    uint32_t V;
    Ok = Mem.read32(effAddr(Gpr, L), V);
    if (Ok)
      C.Eflags = V;
    break;
  }

  case NumHandlers:
    RIO_UNREACHABLE("decode line without a handler");
  }
#undef RIO_ALU_CASES_NO_RM
#undef RIO_ALU_CASES
#undef RIO_SHIFT_CASES
#undef RIO_UNARY_CASES
#undef RIO_SSE_CASES
#undef RIO_JCC_CASE

  if (RIO_UNLIKELY(!Ok))
    return memFault(Pc);
  C.Pc = Pc + L.Length;
  return Result;

CondBranch:
  if (!Pred.predictCond(Pc, Taken))
    Cycles += CM.MispredictPenalty;
  if (Taken) {
    Cycles += CM.TakenBranchCost;
    C.Pc = L.Imm;
  } else {
    C.Pc = Pc + L.Length;
  }
  return Result;

IndirectJump:
  Cycles += CM.TakenBranchCost;
  if (!inRuntimeRegion(Pc) && !Pred.predictIndirect(Pc, Target))
    Cycles += CM.MispredictPenalty;
  C.Pc = Target;
  return Result;

IndirectCall:
  if (!push32(Pc + L.Length))
    return memFault(Pc);
  Cycles += CM.TakenBranchCost;
  if (!inRuntimeRegion(Pc)) {
    Pred.pushReturn(Pc + L.Length);
    if (!Pred.predictIndirect(Pc, Target))
      Cycles += CM.MispredictPenalty;
  }
  C.Pc = Target;
  return Result;

Return: {
  uint32_t Sp = Gpr[Esp];
  if (!Mem.read32(Sp, Target))
    return memFault(Pc);
  Gpr[Esp] = Sp + 4 + Extra;
  Cycles += CM.TakenBranchCost;
  // Natively, `ret` rides the return-address stack. In the code cache the
  // runtime charges BTB-style costs at the IBL instead (the translated
  // return is an indirect jump there — the paper's key penalty).
  if (!inRuntimeRegion(Pc) && !Pred.popReturn(Target))
    Cycles += CM.MispredictPenalty;
  C.Pc = Target;
  return Result;
}
}

StepResult Machine::step() {
  StepResult Result;
  if (RIO_UNLIKELY(!PendingInval.empty()))
    drainPendingInvalidations();
  if (RIO_UNLIKELY(Status != RunStatus::Running)) {
    Result.Kind =
        Status == RunStatus::Exited ? StepKind::Exited : StepKind::Faulted;
    return Result;
  }
  if (RIO_UNLIKELY(InstrsExecuted >= Config.MaxInstructions))
    return faultStep("instruction budget exceeded");
  // Inline decode-cache hit path: one line probe serves the pre-resolved
  // instruction and its memoized cycle cost.
  const AppPc Pc = CurCpu->Pc;
  const DecodeLine *L = nullptr;
  if (RIO_LIKELY(Pc < Mem.size())) {
    L = &DecodeCache[Pc & (DecodeCacheLines - 1)];
    if (RIO_UNLIKELY(L->Tag != ~Pc))
      L = fetchDecode(Pc);
  }
  if (RIO_UNLIKELY(!L))
    return faultStep("undecodable instruction at pc");
  Cycles += L->Cost;
  ++InstrsExecuted;
  LastPc = Pc;
  return execute(*L);
}
