//===- vm/Machine.h - The simulated machine --------------------------------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The simulated IA-32-like machine: flat memory (application region plus a
/// runtime region for the code cache and spill slots), one CPU context,
/// branch predictors, a deterministic cycle counter, and an interpreter for
/// RIO-32. This is the "hardware" substitute for the paper's Pentium 4
/// testbed (DESIGN.md §1).
///
/// The Machine is policy-free: it executes whatever the pc points at and
/// charges microarchitectural costs. The DynamoRIO-style runtime (src/core)
/// drives it — placing code in the runtime region, watching the pc cross
/// region boundaries, and charging runtime overheads via chargeCycles().
///
//===----------------------------------------------------------------------===//

#ifndef RIO_VM_MACHINE_H
#define RIO_VM_MACHINE_H

#include "vm/CostModel.h"
#include "vm/Cpu.h"
#include "vm/DecodeLine.h"
#include "vm/Memory.h"
#include "vm/Predictors.h"

#include "support/Compiler.h"

#include <string>
#include <vector>

namespace rio {

struct MachineConfig {
  uint32_t AppRegionSize = 8u << 20;      ///< app code + data + stack
  uint32_t RuntimeRegionSize = 24u << 20; ///< code cache + runtime slots
  CostModel Cost;
  uint64_t MaxInstructions = 2'000'000'000ull; ///< runaway-execution guard
};

enum class RunStatus { Running, Exited, Faulted };

/// What one step() did.
enum class StepKind {
  Ok,           ///< executed one instruction
  Exited,       ///< program exited (status() == Exited)
  Faulted,      ///< simulated fault (status() == Faulted)
  ClientCall,   ///< executed OP_clientcall; the runtime must service it
  ThreadExited, ///< the *current thread* ended; the program may live on
  ThreadSpawned ///< the instruction also created a new thread
};

struct StepResult {
  StepKind Kind = StepKind::Ok;
  uint32_t ClientCallId = 0;
};

/// The simulated machine. See file comment.
class Machine {
public:
  explicit Machine(const MachineConfig &Config = MachineConfig());

  /// Forks \p Template: memory pages and the host-side derived tables
  /// (decode cache, write-monitor state) are loaned copy-on-write — the
  /// first write to a shared page on either side copies just that page
  /// (observable via mem().cowPageCopies()) — while the architectural
  /// state (threads, predictors, cycle clock) is copied privately. The
  /// fork is an exact replica: resume it, reset it with resetForRun(), or
  /// hand it to Runtime::forkFrom for a warm tenant.
  Machine(const Machine &Template);
  Machine &operator=(const Machine &) = delete;

  MemoryImage &mem() { return Mem; }
  const MemoryImage &mem() const { return Mem; }
  CpuState &cpu() { return *CurCpu; }
  const CpuState &cpu() const { return *CurCpu; }
  BranchPredictors &predictors() { return Pred; }
  /// The cost model. Mutate it only before execution starts: decode-cache
  /// lines memoize per-instruction costs at fill time.
  CostModel &cost() { return Config.Cost; }
  const MachineConfig &config() const { return Config; }

  /// First address of the runtime (code cache) region.
  uint32_t runtimeBase() const { return Config.AppRegionSize; }
  bool inRuntimeRegion(AppPc Pc) const { return Pc >= runtimeBase(); }

  //===--------------------------------------------------------------------===
  // Execution
  //===--------------------------------------------------------------------===

  /// Executes the instruction at cpu().Pc, charging its cycle cost and any
  /// branch-prediction penalties, and advances the pc.
  StepResult step();

  /// Adds runtime-overhead cycles (context switches, IBL, block builds...).
  void chargeCycles(uint64_t N) { Cycles += N; }

  /// Removes cycles that turned out not to be on the application's
  /// critical path (sideline optimization, paper Section 3.4).
  void refundCycles(uint64_t N) { Cycles -= N > Cycles ? Cycles : N; }

  RunStatus status() const { return Status; }
  int exitCode() const { return ExitCode; }
  const std::string &faultReason() const { return FaultReason; }

  /// All bytes the application wrote via the write/print syscalls. The
  /// transparency tests compare this across execution configurations.
  const std::string &output() const { return Output; }

  uint64_t cycles() const { return Cycles; }
  uint64_t instructionsExecuted() const { return InstrsExecuted; }

  /// Application pc of the most recently executed instruction.
  AppPc lastPc() const { return LastPc; }

  /// Snapshots the current pc and stack pointer as the program's entry
  /// state. The loader calls this once after placing the program;
  /// resetForRun() returns to it.
  void recordResetState() {
    ResetPc = CurCpu->Pc;
    ResetSp = CurCpu->readGpr32(REG_ESP);
  }

  /// Re-arms the machine to run the loaded program again from its entry
  /// state: one fresh thread at the recorded pc/stack, status Running.
  /// Memory, the cycle clock, predictors, and captured output are
  /// deliberately kept — callers measuring steady-state cost diff the
  /// clock across runs, and a forked tenant must see exactly the
  /// template's warmed state.
  void resetForRun();

  //===--------------------------------------------------------------------===
  // Decode caching
  //===--------------------------------------------------------------------===

  /// Number of lines in the direct-mapped decode cache. A pc maps to line
  /// `pc & (DecodeCacheLines - 1)`; pcs that far apart alias (and evict
  /// each other on fill — never serving a wrong decode, because each line
  /// is tagged with its exact pc).
  static constexpr uint32_t DecodeCacheLines = 1u << 15;

  /// Decoded-instruction cache lookup (a software stand-in for the
  /// hardware's instruction/uop cache): the compact, pre-resolved line the
  /// interpreter executes (vm/DecodeLine.h). Returns null on undecodable
  /// bytes. The returned pointer is valid until the next fetchDecode call
  /// (an aliasing pc may refill the same line).
  const DecodeLine *fetchDecode(AppPc Pc);

  /// Drops every cached decode whose bytes overlap [Lo, Hi); the runtime
  /// calls this when it patches, deletes or replaces cache code. Probes
  /// the one line each pc that may start such an instruction maps to
  /// (the whole cache for ranges that wide).
  void invalidateDecodeRange(uint32_t Lo, uint32_t Hi);

  //===--------------------------------------------------------------------===
  // Code-write monitoring (cache consistency; self-modifying code)
  //===--------------------------------------------------------------------===

  /// Granularity of write monitoring: one counter per aligned line.
  static constexpr uint32_t WriteWatchLine = 256;

  /// One store that hit a watched line (byte range [Lo, Hi)).
  struct CodeWriteEvent {
    uint32_t Lo;
    uint32_t Hi;
  };

  /// Registers [Lo, Hi) as executable code backing live cache fragments.
  /// Watches are counted per line, so overlapping registrations nest.
  void addWriteWatch(uint32_t Lo, uint32_t Hi);
  void removeWriteWatch(uint32_t Lo, uint32_t Hi);

  /// Append-only log of stores into watched lines. Consumers (one per
  /// runtime — several runtimes may share one machine) keep their own
  /// cursor into it.
  const std::vector<CodeWriteEvent> &codeWriteLog() const {
    return CodeWrites;
  }

  /// Raises a simulated fault (also used by the runtime for internal
  /// errors it wants surfaced as program failures).
  void fault(const std::string &Reason);

  //===--------------------------------------------------------------------===
  // Threads (cooperative; a scheduler such as core/ThreadedRunner rotates)
  //===--------------------------------------------------------------------===

  unsigned numThreads() const { return unsigned(Threads.size()); }
  unsigned currentThread() const { return CurThread; }
  bool threadAlive(unsigned Tid) const { return Threads[Tid].Alive; }

  /// Switches the architectural context to thread \p Tid (must be alive).
  void switchToThread(unsigned Tid) {
    assert(Tid < Threads.size() && Threads[Tid].Alive && "bad thread");
    CurThread = Tid;
    CurCpu = &Threads[Tid].Cpu;
  }

  /// Creates a thread (entry pc + stack top); returns its id. Exposed for
  /// tests and the thread_create syscall.
  unsigned createThread(AppPc Entry, uint32_t StackTop);

private:
  enum class SyscallResult { Ok, Fault, ThreadExited, Spawned };

  /// Runs the pre-resolved line \p L at the current pc (step() has charged
  /// its cost). Inlined into step(): one switch on the handler id.
  RIO_ALWAYS_INLINE StepResult execute(const DecodeLine &L);
  RIO_COLD StepResult memFault(AppPc Pc);
  RIO_COLD StepResult faultStep(const char *Reason);
  /// A store of the interpreter, noted for write monitoring.
  RIO_ALWAYS_INLINE bool store32(uint32_t Addr, uint32_t Value);
  RIO_ALWAYS_INLINE bool push32(uint32_t Value);

  /// Records a store for write monitoring: queues decode invalidation when
  /// the store overlaps bytes a decode was ever cached from (self-modifying
  /// code must not execute stale decodes, natively or under a runtime) and
  /// logs an event when the line is watched. Invalidation is deferred to
  /// the next step() because the currently executing line lives in the
  /// cache.
  ///
  /// The fast path is a single indexed load: LineState packs the sticky
  /// decoded bit and the watch count per line, and is zero for ordinary
  /// data lines (the stack, the heap). Callers guarantee [Addr, Addr+Len)
  /// is in bounds (they note only successful writes) and Len <= 8, so a
  /// store spans at most two lines.
  RIO_ALWAYS_INLINE void noteWrite(uint32_t Addr, uint32_t Len) {
    uint32_t L0 = Addr / WriteWatchLine;
    uint32_t State = LineState[L0]; // CowArray const read: no chunk fault
    uint32_t L1 = (Addr + Len - 1) / WriteWatchLine;
    if (RIO_UNLIKELY(L1 != L0))
      State |= LineState[L1];
    if (RIO_UNLIKELY(State != 0))
      noteWriteSlow(Addr, Len, State);
  }
  void noteWriteSlow(uint32_t Addr, uint32_t Len, uint32_t State);
  bool overlapsDecodedBytes(uint32_t Addr, uint32_t Len) const;
  void noteDecoded(AppPc Pc, uint32_t Len);
  void drainPendingInvalidations();

  SyscallResult doSyscall();

  struct Thread {
    CpuState Cpu;
    bool Alive = true;
  };

  MachineConfig Config;
  MemoryImage Mem;
  std::vector<Thread> Threads{1};
  unsigned CurThread = 0;
  BranchPredictors Pred;

  RunStatus Status = RunStatus::Running;
  int ExitCode = 0;
  std::string FaultReason;
  std::string Output;

  uint64_t Cycles = 0;
  uint64_t InstrsExecuted = 0;
  AppPc LastPc = 0;

  AppPc ResetPc = 0;    ///< program entry state; see recordResetState()
  uint32_t ResetSp = 0;

  // The derived host-side tables live in CowArrays so a forked machine
  // shares them: the decode cache alone is 896KB (32K 28-byte lines), more
  // than a tenant's private footprint.
  CowArray<DecodeLine> DecodeCache; ///< DecodeCacheLines entries

  /// Write-monitor state, one word per WriteWatchLine-sized line:
  /// bit 0 is sticky "a decode was cached from bytes of this line"; bits 1+
  /// count live write watches (registrations nest). Zero means stores to
  /// the line are unmonitored — the common case, and noteWrite's
  /// single-load fast path.
  CowArray<uint32_t> LineState;
  /// Per line with LineState bit 0 set: the sticky extent of bytes decodes
  /// were cached from, as first (low byte) and last (high byte) offset in
  /// the line. A store outside it — data sharing a line with code — queues
  /// no invalidation.
  CowArray<uint16_t> DecodedSpan;
  std::vector<CodeWriteEvent> CodeWrites;
  std::vector<CodeWriteEvent> PendingInval; ///< drained at next step()

  CpuState *CurCpu = nullptr; ///< &Threads[CurThread].Cpu, cached
};

} // namespace rio

#endif // RIO_VM_MACHINE_H
