//===- perfbench/src/Tracing.h - Spans around calls into each layer --------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Host-side spans recorded from outside the runtime: the driver opens one
/// around each call into a layer (Machine construction, Runtime
/// construction, run, CacheCodec save/load, fork, freeze), and TimedClient
/// opens one around every Client hook the runtime calls. Nothing here
/// touches the simulated clock, so a traced job's cycles must equal the
/// untraced job's; the driver checks that.
///
/// Spans of one job live in memory until the job ends, when fold() turns
/// them into per-layer self time and clears them.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACING_H
#define PERFBENCH_TRACING_H

#include "BenchMath.h"

#include "core/Client.h"

#include <array>
#include <atomic>
#include <chrono>
#include <thread>

namespace perfbench {

inline uint64_t nowNs() {
  return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now().time_since_epoch())
                      .count());
}

/// The layers a span can belong to, named as the per-layer metrics are.
enum Layer : uint8_t {
  JobLayer,      ///< the whole job; its self time is the driver's own
  VmMachine,     ///< Machine construction plus loadProgram
  CoreCtor,      ///< Runtime construction
  CoreRun,       ///< Runtime::run / runWithSideline
  ClientHook,    ///< one Client hook (TimedClient)
  PersistSave,   ///< CacheCodec::save
  PersistLoad,   ///< CacheCodec::load
  PersistFork,   ///< Machine copy plus Runtime::forkFrom
  AsmAssemble,   ///< buildWorkload (set-up)
  VmNative,      ///< runNativeProgram (set-up)
  PersistFreeze, ///< Runtime::freezeTemplate (set-up)
  NumLayers
};

using LayerTimes = std::array<uint64_t, NumLayers>;

/// Records nested spans on the thread that created it. Disabled, every
/// call is a single branch.
class SpanRecorder {
public:
  explicit SpanRecorder(bool Enabled) : Enabled(Enabled) {}

  bool enabled() const { return Enabled; }
  bool onOwnerThread() const { return std::this_thread::get_id() == Owner; }

  uint32_t open(Layer L) {
    if (!Enabled)
      return NoParent;
    Span S;
    S.Parent = Stack.empty() ? NoParent : Stack.back();
    S.Layer = L;
    S.StartNs = nowNs();
    Spans.push_back(S);
    Stack.push_back(uint32_t(Spans.size() - 1));
    return Stack.back();
  }

  void close(uint32_t Idx) {
    if (!Enabled || Idx == NoParent)
      return;
    Spans[Idx].EndNs = nowNs();
    Stack.pop_back();
  }

  /// Adds every recorded span's self time to \p Out by layer and forgets
  /// the spans. Call with no span open.
  void fold(LayerTimes &Out) {
    std::vector<uint64_t> Self = selfTimes(Spans);
    for (size_t I = 0; I != Spans.size(); ++I)
      Out[Spans[I].Layer] += Self[I];
    Spans.clear();
  }

  /// RAII span.
  class Scope {
  public:
    Scope(SpanRecorder &R, Layer L) : R(R), Idx(R.open(L)) {}
    ~Scope() { R.close(Idx); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    SpanRecorder &R;
    uint32_t Idx;
  };

private:
  bool Enabled;
  std::thread::id Owner = std::this_thread::get_id();
  std::vector<Span> Spans;
  std::vector<uint32_t> Stack;
};

/// A forwarding Client decorator that times all ten hooks. Hooks on the
/// recorder's thread become ClientHook spans (children of the run span,
/// so the run's self time excludes them). The asynchronous sideline calls
/// onTrace on its worker thread; those calls are off the job's critical
/// path and are only counted and summed, atomically.
class TimedClient final : public rio::Client {
public:
  TimedClient(rio::Client &Inner, SpanRecorder &Rec) : Inner(Inner), Rec(Rec) {}

  void onInit(rio::Runtime &RT) override {
    Hook H(*this);
    Inner.onInit(RT);
  }
  void onExit(rio::Runtime &RT) override {
    Hook H(*this);
    Inner.onExit(RT);
  }
  void onThreadInit(rio::Runtime &RT) override {
    Hook H(*this);
    Inner.onThreadInit(RT);
  }
  void onThreadExit(rio::Runtime &RT) override {
    Hook H(*this);
    Inner.onThreadExit(RT);
  }
  void onBasicBlock(rio::Runtime &RT, rio::AppPc Tag,
                    rio::InstrList &Block) override {
    Hook H(*this);
    Inner.onBasicBlock(RT, Tag, Block);
  }
  void onTrace(rio::Runtime &RT, rio::AppPc Tag,
               rio::InstrList &Trace) override {
    Hook H(*this);
    Inner.onTrace(RT, Tag, Trace);
  }
  void onFragmentDeleted(rio::Runtime &RT, rio::AppPc Tag) override {
    Hook H(*this);
    Inner.onFragmentDeleted(RT, Tag);
  }
  bool onIndirectResolved(rio::Runtime &RT, int BranchOp,
                          rio::AppPc Target) override {
    Hook H(*this);
    return Inner.onIndirectResolved(RT, BranchOp, Target);
  }
  EndTrace onEndTrace(rio::Runtime &RT, rio::AppPc TraceTag,
                      rio::AppPc NextTag) override {
    Hook H(*this);
    return Inner.onEndTrace(RT, TraceTag, NextTag);
  }
  void onSidelinePublish(rio::Runtime &RT, rio::AppPc Tag,
                         rio::InstrList &IL) override {
    Hook H(*this);
    Inner.onSidelinePublish(RT, Tag, IL);
  }
  bool sidelineSafe() const override { return Inner.sidelineSafe(); }
  bool persistSafe() const override { return Inner.persistSafe(); }

  /// Hooks called on the recorder's thread.
  uint64_t appCalls() const { return AppCalls; }
  /// Hooks called on other threads, and their summed wall time.
  uint64_t workerCalls() const { return WorkerCalls.load(); }
  uint64_t workerNs() const { return WorkerNs.load(); }

private:
  class Hook {
  public:
    explicit Hook(TimedClient &C)
        : C(C), OnOwner(C.Rec.onOwnerThread()),
          Idx(OnOwner ? C.Rec.open(ClientHook) : NoParent),
          StartNs(OnOwner ? 0 : nowNs()) {
      if (OnOwner)
        ++C.AppCalls;
    }
    ~Hook() {
      if (OnOwner) {
        C.Rec.close(Idx);
        return;
      }
      C.WorkerCalls.fetch_add(1);
      C.WorkerNs.fetch_add(nowNs() - StartNs);
    }
    Hook(const Hook &) = delete;
    Hook &operator=(const Hook &) = delete;

  private:
    TimedClient &C;
    bool OnOwner;
    uint32_t Idx;
    uint64_t StartNs;
  };

  rio::Client &Inner;
  SpanRecorder &Rec;
  uint64_t AppCalls = 0;
  std::atomic<uint64_t> WorkerCalls{0};
  std::atomic<uint64_t> WorkerNs{0};
};

} // namespace perfbench

#endif // PERFBENCH_TRACING_H
