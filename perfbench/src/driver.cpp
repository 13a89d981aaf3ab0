//===- perfbench/src/driver.cpp - The cross-layer benchmark driver ---------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One process, one job at a time (a closed loop with a single client).
/// A job is one guest program run to completion on a fresh Machine, or on
/// a copy-on-write fork of a warmed template. Each workload is a fixed
/// multiset of jobs; a round runs every job of it once, in an order drawn
/// from --seed, and rounds repeat until --seconds have passed. Because
/// every round holds the same jobs, the simulated figures (cycles and
/// runtime counts) do not depend on the seed, the run length or the host,
/// and the driver checks that every repeat of a job reproduces them.
///
///   perfbench_driver --workload steady|churn|tenants --seed N
///                    --seconds S --trace 0|1
///
/// --trace 0 reports the end-to-end metrics. --trace 1 runs every job twice,
/// untraced and traced (alternating which goes first), checks the two agree
/// on every simulated figure, and reports the per-layer metrics from the
/// traced runs. The last line of standard output is the JSON result.
///
//===----------------------------------------------------------------------===//

#include "BenchMath.h"
#include "Tracing.h"

#include "clients/Clients.h"
#include "core/Runtime.h"
#include "core/Sideline.h"
#include "core/TraceOpt.h"
#include "harness/Experiment.h"
#include "persist/CacheImage.h"
#include "support/Profile.h"
#include "support/Rng.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

using namespace rio;
using namespace rio::persist;
using namespace perfbench;

namespace {

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

enum class Kind : uint8_t {
  Base,     ///< steady: full config, no client
  All4,     ///< steady: full config, the four Figure 5 clients
  Spec,     ///< steady: speculative TraceOpt through the async sideline
  Churn,    ///< churn: all4 + IbInline under small FIFO caches
  Fork,     ///< tenants: fork the warmed template and run
  Load,     ///< tenants: fresh Machine, CacheCodec::load, run
  ColdSave, ///< tenants: fresh Machine, cold run, CacheCodec::save
};

const char *kindName(Kind K) {
  switch (K) {
  case Kind::Base:
    return "base";
  case Kind::All4:
    return "all4";
  case Kind::Spec:
    return "spec";
  case Kind::Churn:
    return "churn";
  case Kind::Fork:
    return "fork";
  case Kind::Load:
    return "load";
  case Kind::ColdSave:
    return "coldsave";
  }
  return "?";
}

struct WorkloadSpec {
  const char *Name;
  std::vector<const char *> Programs;
  std::vector<Kind> Kinds; ///< every program runs once per kind per round
  bool Templates;          ///< set-up warms, freezes and saves templates
};

// Why these: steady is the high-reuse half of the suite, where the
// interpreter and the trace optimizer do the host work; churn is the
// low-reuse, self-modifying and cache-pressure programs, where building,
// client transforms, linking and eviction dominate; tenants is the only
// traffic where a cache is read by many consumers instead of built.
const WorkloadSpec Workloads[] = {
    {"steady",
     {"gzip", "vpr", "mcf", "crafty", "gap", "vortex", "bzip2", "twolf",
      "swim", "mgrid", "applu", "equake", "wupwise", "mesa", "art", "ammp",
      "sixtrack", "apsi"},
     {Kind::Base, Kind::All4, Kind::Spec},
     false},
    {"churn",
     {"gcc", "perlbmk", "parser", "eon", "smc", "cachepressure"},
     {Kind::Churn},
     false},
    {"tenants",
     {"crafty", "vpr", "gap"},
     {Kind::Fork, Kind::Load, Kind::ColdSave},
     true},
};

/// churn's bounded caches: small enough that gcc, perlbmk and
/// cachepressure evict under FIFO.
constexpr uint32_t ChurnBbCache = 8 * 1024;
constexpr uint32_t ChurnTraceCache = 8 * 1024;

RuntimeConfig configFor(Kind K) {
  RuntimeConfig C = RuntimeConfig::full();
  if (K == Kind::Churn) {
    C.IbInline = true;
    C.Eviction = EvictionPolicy::Fifo;
    C.BbCacheSize = ChurnBbCache;
    C.TraceCacheSize = ChurnTraceCache;
  }
  return C;
}

//===----------------------------------------------------------------------===//
// Set-up
//===----------------------------------------------------------------------===//

struct ProgramRef {
  std::string Name;
  Program Prog;
  Outcome Native;
};

/// A warmed, frozen tenant template and its saved cache image.
struct Template {
  std::unique_ptr<Machine> M;
  std::unique_ptr<Runtime> RT;
  std::vector<uint8_t> Image;
  size_t OutputPrefix = 0; ///< output the warm-up runs left on M
  /// Native reference for a tenant: the program's third run on one
  /// machine. Programs may keep state across runs (crafty does), so a
  /// tenant is checked against the same run position, not the first run.
  Outcome TenantNative;
  uint64_t TenantNativeAllRuns = 0; ///< instructions of all three runs
};

struct Setup {
  std::vector<ProgramRef> Programs;
  std::vector<Template> Templates; ///< parallel to Programs, or empty
  /// Wall seconds of each step, in a fixed order: each program's assembly
  /// and native run, then each template's warm-up, freeze and save.
  std::vector<double> StepSeconds;
};

/// Runs \p Prog natively three times on one machine and returns the third
/// run: what a tenant forked after two warm-up runs must reproduce.
/// \p AllRuns gets the instructions of all three.
Outcome nativeThirdRun(const Program &Prog, uint64_t &AllRuns) {
  Machine M;
  Outcome O;
  if (!loadProgram(M, Prog))
    return O;
  for (int Run = 0; Run != 3; ++Run) {
    if (Run)
      M.resetForRun();
    O.Cycles = M.cycles();
    O.Instructions = M.instructionsExecuted();
    size_t Prefix = M.output().size();
    while (M.status() == RunStatus::Running)
      M.step();
    O.Output = M.output().substr(Prefix);
  }
  O.Status = M.status();
  O.ExitCode = M.exitCode();
  O.Cycles = M.cycles() - O.Cycles;
  O.Instructions = M.instructionsExecuted() - O.Instructions;
  AllRuns = M.instructionsExecuted();
  return O;
}

/// Assembles the programs, runs their native references, and for tenants
/// warms each template twice (the second run settles trace heads and IB
/// links, so forks never unshare), freezes it and saves its image.
std::unique_ptr<Setup> runSetup(const WorkloadSpec &W, SpanRecorder &Rec,
                                std::string &Err) {
  auto S = std::make_unique<Setup>();
  for (const char *Name : W.Programs) {
    const Workload *WL = findWorkload(Name);
    if (!WL) {
      Err = std::string("unknown program ") + Name;
      return nullptr;
    }
    ProgramRef P;
    P.Name = Name;
    const uint64_t T0 = nowNs();
    {
      SpanRecorder::Scope Span(Rec, AsmAssemble);
      P.Prog = buildWorkload(*WL);
    }
    {
      SpanRecorder::Scope Span(Rec, VmNative);
      P.Native = runNativeProgram(P.Prog);
    }
    if (P.Native.Status != RunStatus::Exited) {
      Err = P.Name + ": native reference run did not exit";
      return nullptr;
    }
    S->StepSeconds.push_back(double(nowNs() - T0) / 1e9);
    S->Programs.push_back(std::move(P));
  }
  if (!W.Templates)
    return S;
  for (const ProgramRef &P : S->Programs) {
    Template T;
    const uint64_t T0 = nowNs();
    {
      SpanRecorder::Scope Span(Rec, VmNative);
      T.TenantNative = nativeThirdRun(P.Prog, T.TenantNativeAllRuns);
    }
    if (T.TenantNative.Status != RunStatus::Exited) {
      Err = P.Name + ": native tenant reference did not exit";
      return nullptr;
    }
    T.M = std::make_unique<Machine>();
    if (!loadProgram(*T.M, P.Prog)) {
      Err = P.Name + ": program does not fit";
      return nullptr;
    }
    T.RT = std::make_unique<Runtime>(*T.M, configFor(Kind::Fork));
    for (int Run = 0; Run != 2; ++Run) {
      if (T.RT->run().Status != RunStatus::Exited) {
        Err = P.Name + ": template warm-up did not exit";
        return nullptr;
      }
      T.M->resetForRun();
      T.RT->resetThreadForRun();
    }
    bool Frozen;
    {
      SpanRecorder::Scope Span(Rec, PersistFreeze);
      Frozen = T.RT->freezeTemplate(&Err);
    }
    if (!Frozen) {
      Err = P.Name + ": freeze refused: " + Err;
      return nullptr;
    }
    bool Saved;
    {
      SpanRecorder::Scope Span(Rec, PersistSave);
      Saved = CacheCodec::save(*T.RT, T.Image);
    }
    if (!Saved) {
      Err = P.Name + ": template save refused";
      return nullptr;
    }
    T.OutputPrefix = T.M->output().size();
    S->StepSeconds.push_back(double(nowNs() - T0) / 1e9);
    S->Templates.push_back(std::move(T));
  }
  return S;
}

//===----------------------------------------------------------------------===//
// Jobs
//===----------------------------------------------------------------------===//

/// Simulated per-job counts. All repeat exactly; HookCalls exists only in
/// traced runs.
enum Count : unsigned {
  Dispatches,
  ContextSwitches,
  BlocksBuilt,
  TracesBuilt,
  LinksMade,
  IblHits,
  IblLookups,
  IbInlineHits,
  IbInlineMisses,
  CacheEvictions,
  CacheEvictedBytes,
  FragmentsDeleted,
  SmcInvalidations,
  SidelinePublished,
  SidelineOptimized,
  SidelineStaleDrops,
  TraceOptGuards,
  TraceOptDeopts,
  TraceOptGuardFails,
  ForkUnshares,
  CleanCalls,
  CowPageCopies,
  Saves,
  ImageBytes,
  Loads,
  LoadsOk,
  HookCalls,
  NumCounts
};

using Counts = std::array<uint64_t, NumCounts>;

struct Job {
  uint32_t Prog;
  Kind K;
  bool operator<(const Job &O) const {
    return Prog != O.Prog ? Prog < O.Prog : K < O.K;
  }
};

struct JobResult {
  std::string Error; ///< empty when the job passed its oracle
  uint64_t WallNs = 0;
  uint64_t Cycles = 0;        ///< simulated cycles of this job's run
  uint64_t RuntimeCycles = 0; ///< of which the runtime's own
  Counts C{};
  LayerTimes Self{};          ///< span self time (traced runs)
  uint64_t WorkerHookNs = 0;  ///< client hooks on the sideline worker
  uint64_t WorkerHookCalls = 0;
};

/// What a job's run left behind, for the oracle.
struct Observed {
  RunStatus Status = RunStatus::Running;
  int ExitCode = 0;
  std::string Output;
};

void collectStats(Runtime &RT, Machine &M, Counts &C) {
  const StatisticSet &St = RT.stats();
  C[Dispatches] = St.get("dispatches");
  C[ContextSwitches] = St.get("context_switches");
  C[BlocksBuilt] = St.get("basic_blocks_built");
  C[TracesBuilt] = St.get("traces_built");
  C[LinksMade] = St.get("links_made");
  C[IblHits] = St.get("ibl_hits");
  C[IblLookups] = St.get("ibl_lookups");
  C[IbInlineHits] = St.get("ib_inline_hits");
  C[IbInlineMisses] = St.get("ib_inline_misses");
  C[CacheEvictions] = St.get("cache_evictions");
  C[CacheEvictedBytes] = St.get("cache_evicted_bytes");
  C[FragmentsDeleted] = St.get("fragments_deleted");
  C[SmcInvalidations] = St.get("smc_invalidations");
  C[TraceOptDeopts] = St.get("deoptimizations");
  C[TraceOptGuardFails] = St.get("traceopt_guard_failures");
  C[ForkUnshares] = St.get("fork_cache_unshares");
  C[CleanCalls] = St.get("clean_calls");
  C[CowPageCopies] = M.mem().cowPageCopies();
}

/// Wraps \p C in a TimedClient when tracing.
Client *maybeTimed(Client *C, SpanRecorder &Rec,
                   std::optional<TimedClient> &Timed) {
  if (!C || !Rec.enabled())
    return C;
  return &Timed.emplace(*C, Rec);
}

void noteHooks(const std::optional<TimedClient> &Timed, JobResult &R) {
  if (!Timed)
    return;
  R.C[HookCalls] = Timed->appCalls();
  R.WorkerHookCalls = Timed->workerCalls();
  R.WorkerHookNs = Timed->workerNs();
}

/// base, all4, churn, load and coldsave: a fresh Machine and Runtime.
void runFresh(Kind K, const ProgramRef &P, const Template *T,
              SpanRecorder &Rec, JobResult &R, Observed &O) {
  std::unique_ptr<Machine> M;
  {
    SpanRecorder::Scope Span(Rec, VmMachine);
    M = std::make_unique<Machine>();
    if (!loadProgram(*M, P.Prog)) {
      R.Error = "program does not fit";
      return;
    }
  }
  ClientBundle Bundle(K == Kind::All4 || K == Kind::Churn
                          ? ClientKind::AllFour
                          : ClientKind::None);
  std::optional<TimedClient> Timed;
  Client *C = maybeTimed(Bundle.client(), Rec, Timed);
  std::unique_ptr<Runtime> RT;
  {
    SpanRecorder::Scope Span(Rec, CoreCtor);
    RT = std::make_unique<Runtime>(*M, configFor(K), C);
  }
  if (K == Kind::Load) {
    LoadStatus St;
    {
      SpanRecorder::Scope Span(Rec, PersistLoad);
      St = CacheCodec::load(*RT, T->Image.data(), T->Image.size());
    }
    R.C[Loads] = 1;
    R.C[LoadsOk] = St == LoadStatus::Ok;
    if (St != LoadStatus::Ok)
      R.Error = std::string("image load: ") + loadStatusName(St);
  }
  RunResult RR;
  {
    SpanRecorder::Scope Span(Rec, CoreRun);
    RR = RT->run();
  }
  if (K == Kind::ColdSave) {
    std::vector<uint8_t> Image;
    bool Saved;
    {
      SpanRecorder::Scope Span(Rec, PersistSave);
      Saved = CacheCodec::save(*RT, Image);
    }
    R.C[Saves] = 1;
    R.C[ImageBytes] = Image.size();
    if (!Saved)
      R.Error = "save refused";
  }
  O = {RR.Status, RR.ExitCode, M->output()};
  R.Cycles = M->cycles();
  R.RuntimeCycles = RT->cyclesInRuntime();
  collectStats(*RT, *M, R.C);
  noteHooks(Timed, R);
}

/// spec: the speculative trace optimizer behind the async sideline, fed
/// by the sampling profiler, as bench_traceopt runs it.
void runSpec(const ProgramRef &P, SpanRecorder &Rec, JobResult &R,
             Observed &O) {
  TraceOptOptions Opts;
  Opts.Speculate = true;
  TraceOptClient TraceOpt(Opts);
  std::optional<TimedClient> Timed;
  Client *Inner = maybeTimed(&TraceOpt, Rec, Timed);
  SidelineOptimizer Sideline(*Inner, SidelineMode::Async);
  SampleProfile Profiler(200);
  RuntimeConfig Config = configFor(Kind::Spec);
  Config.SidelinePump = &Sideline;
  Config.Profiler = &Profiler;
  std::unique_ptr<Machine> M;
  {
    SpanRecorder::Scope Span(Rec, VmMachine);
    M = std::make_unique<Machine>();
    if (!loadProgram(*M, P.Prog)) {
      R.Error = "program does not fit";
      return;
    }
  }
  std::unique_ptr<Runtime> RT;
  {
    SpanRecorder::Scope Span(Rec, CoreCtor);
    RT = std::make_unique<Runtime>(*M, Config, &Sideline);
  }
  Runtime *RTp = RT.get();
  Profiler.setTraceSampleHook(
      [RTp, &Sideline, &TraceOpt](uint32_t Tag, uint64_t Samples) {
        if (TraceOpt.observe(*RTp, Tag, Samples))
          Sideline.requestReopt(*RTp, Tag);
      });
  RunResult RR;
  {
    SpanRecorder::Scope Span(Rec, CoreRun);
    RR = runWithSideline(*RT, Sideline);
  }
  O = {RR.Status, RR.ExitCode, M->output()};
  R.Cycles = M->cycles();
  R.RuntimeCycles = RT->cyclesInRuntime();
  collectStats(*RT, *M, R.C);
  R.C[SidelinePublished] = Sideline.versionsPublished();
  R.C[SidelineOptimized] = Sideline.tracesOptimized();
  R.C[SidelineStaleDrops] = Sideline.staleDrops();
  R.C[TraceOptGuards] = TraceOpt.guardsEmitted();
  RT.reset(); // before the sideline and profiler it points at
  noteHooks(Timed, R);
}

/// fork: a copy-on-write tenant of the frozen template.
void runFork(const Template &T, SpanRecorder &Rec, JobResult &R,
             Observed &O) {
  std::unique_ptr<Machine> M;
  std::unique_ptr<Runtime> RT;
  std::string Err;
  {
    SpanRecorder::Scope Span(Rec, PersistFork);
    M = std::make_unique<Machine>(*T.M);
    RT = Runtime::forkFrom(*T.RT, *M, &Err);
  }
  if (!RT) {
    R.Error = "fork refused: " + Err;
    return;
  }
  const uint64_t Cycles0 = M->cycles();
  const uint64_t RuntimeCycles0 = RT->cyclesInRuntime();
  RunResult RR;
  {
    SpanRecorder::Scope Span(Rec, CoreRun);
    RR = RT->run();
  }
  O = {RR.Status, RR.ExitCode, M->output().substr(T.OutputPrefix)};
  R.Cycles = M->cycles() - Cycles0;
  R.RuntimeCycles = RT->cyclesInRuntime() - RuntimeCycles0;
  collectStats(*RT, *M, R.C);
}

/// The native run a job must reproduce.
const Outcome &nativeFor(const Job &J, const Setup &S) {
  return J.K == Kind::Fork ? S.Templates[J.Prog].TenantNative
                           : S.Programs[J.Prog].Native;
}

/// Runs one job, timed from its first allocation to its teardown, then
/// checks it against the native reference.
JobResult runJob(const Job &J, const Setup &S, SpanRecorder &Rec) {
  const ProgramRef &P = S.Programs[J.Prog];
  const Template *T = S.Templates.empty() ? nullptr : &S.Templates[J.Prog];
  const Outcome &Native = nativeFor(J, S);
  JobResult R;
  Observed O;
  const uint64_t T0 = nowNs();
  {
    SpanRecorder::Scope Span(Rec, JobLayer);
    if (J.K == Kind::Spec)
      runSpec(P, Rec, R, O);
    else if (J.K == Kind::Fork)
      runFork(*T, Rec, R, O);
    else
      runFresh(J.K, P, T, Rec, R, O);
  }
  R.WallNs = nowNs() - T0;
  Rec.fold(R.Self);

  if (!R.Error.empty())
    return R;
  if (O.Status != RunStatus::Exited)
    R.Error = "run did not exit";
  else if (O.ExitCode != Native.ExitCode)
    R.Error = "exit code " + std::to_string(O.ExitCode) + " != native " +
              std::to_string(Native.ExitCode);
  else if (O.Output != Native.Output)
    R.Error = "output differs from the native run";
  else if (J.K == Kind::Fork && R.C[ForkUnshares] != 0)
    R.Error = "tenant of a steady template unshared the cache";
  return R;
}

//===----------------------------------------------------------------------===//
// Accounting
//===----------------------------------------------------------------------===//

/// Every simulated figure of a job, which must repeat exactly. HookCalls
/// is compared only between traced runs.
bool sameSimulated(const JobResult &A, const JobResult &B, bool WithHooks) {
  if (A.Cycles != B.Cycles || A.RuntimeCycles != B.RuntimeCycles)
    return false;
  for (unsigned I = 0; I != NumCounts; ++I)
    if ((WithHooks || I != HookCalls) && A.C[I] != B.C[I])
      return false;
  return true;
}

/// Timed jobs of one mode (untraced or traced).
struct Totals {
  size_t Jobs = 0;
  size_t Failed = 0;
  uint64_t WallNs = 0;
  double NativeInstructions = 0;
  std::vector<double> JobMs;
  std::vector<double> Slowdowns;
  LayerTimes Self{};
  uint64_t WorkerHookNs = 0;
  uint64_t WorkerHookCalls = 0;
  /// First result of each job: later repeats must reproduce it.
  std::map<Job, JobResult> Reference;
  /// Wall time of every run of each job.
  std::map<Job, std::vector<double>> JobMsByJob;
  /// Native instructions of one run of each job.
  std::map<Job, double> InstructionsByJob;

  /// One round's native instructions over the sum of each job's fastest
  /// run: the best-of-N rule bench_throughput also uses. On a shared host
  /// other tenants slow whole stretches of a run by up to ~2x; a job's
  /// fastest run is what the code costs when nothing contends with it.
  double hostMips() const {
    double Instructions = 0, Ms = 0;
    for (const auto &[J, Runs] : JobMsByJob) {
      Instructions += InstructionsByJob.at(J);
      Ms += *std::min_element(Runs.begin(), Runs.end());
    }
    return Ms > 0 ? Instructions / Ms / 1e3 : 0;
  }

  /// The median over one round's jobs of each job's fastest run, by the
  /// same rule. A median of all runs lands wherever the slow stretches put
  /// it: they run every job ~1.7x slower, and cover anywhere from none to
  /// all of a run, so the median of all runs (or of each job's runs)
  /// spread by 0.4 of itself between runs on churn.
  double jobMsP50() const {
    std::vector<double> Fastest;
    for (const auto &[J, Runs] : JobMsByJob)
      Fastest.push_back(*std::min_element(Runs.begin(), Runs.end()));
    return median(Fastest);
  }
};

void record(const Job &J, JobResult R, const Setup &S, Totals &T,
            const Totals *Untraced) {
  const ProgramRef &P = S.Programs[J.Prog];
  auto [It, Fresh] = T.Reference.try_emplace(J, R);
  if (R.Error.empty() && !Fresh && !sameSimulated(R, It->second, true))
    R.Error = "simulated figures differ from this job's first run";
  if (R.Error.empty() && Untraced) {
    auto U = Untraced->Reference.find(J);
    if (U != Untraced->Reference.end() &&
        !sameSimulated(R, U->second, false))
      R.Error = "traced run differs from the untraced run";
  }
  const Outcome &Native = nativeFor(J, S);
  ++T.Jobs;
  T.WallNs += R.WallNs;
  T.NativeInstructions += double(Native.Instructions);
  T.InstructionsByJob[J] = double(Native.Instructions);
  T.JobMs.push_back(double(R.WallNs) / 1e6);
  T.JobMsByJob[J].push_back(T.JobMs.back());
  T.Slowdowns.push_back(double(R.Cycles) / double(Native.Cycles));
  for (unsigned L = 0; L != NumLayers; ++L)
    T.Self[L] += R.Self[L];
  T.WorkerHookNs += R.WorkerHookNs;
  T.WorkerHookCalls += R.WorkerHookCalls;
  if (!R.Error.empty()) {
    ++T.Failed;
    std::printf("FAIL %s/%s: %s\n", P.Name.c_str(), kindName(J.K),
                R.Error.c_str());
  }
}

/// Per-round counts: the sum over one round's jobs of each job's
/// (repeating) first result.
Counts countsPerRound(const Totals &T, uint64_t &Cycles,
                     uint64_t &RuntimeCycles) {
  Counts Sum{};
  Cycles = RuntimeCycles = 0;
  for (const auto &[J, R] : T.Reference) {
    for (unsigned I = 0; I != NumCounts; ++I)
      Sum[I] += R.C[I];
    Cycles += R.Cycles;
    RuntimeCycles += R.RuntimeCycles;
  }
  return Sum;
}

/// Traffic a workload's description in BENCHMARK.json names. Each claim
/// holds when one round's jobs of kind K (of Program, or of every program
/// when it is null) sum to a non-zero count; a run where one fails is
/// refused, so the description cannot silently stop being true.
struct Claim {
  const char *Workload;
  const char *Program;
  Kind K;
  Count C;
  const char *What;
};

const Claim Claims[] = {
    {"steady", nullptr, Kind::Spec, SidelinePublished, "versions published"},
    {"steady", nullptr, Kind::Spec, TraceOptGuards, "speculation guards"},
    {"churn", "gcc", Kind::Churn, CacheEvictions, "cache evictions"},
    {"churn", "perlbmk", Kind::Churn, CacheEvictions, "cache evictions"},
    {"churn", "cachepressure", Kind::Churn, CacheEvictions, "cache evictions"},
    {"churn", "smc", Kind::Churn, SmcInvalidations, "SMC invalidations"},
    {"tenants", nullptr, Kind::Fork, CowPageCopies, "copy-on-write copies"},
    {"tenants", nullptr, Kind::Load, LoadsOk, "image loads"},
    {"tenants", nullptr, Kind::ColdSave, ImageBytes, "saved image bytes"},
};

/// Prints every claim of \p W with its count; false if any count is 0.
bool checkClaims(const WorkloadSpec &W, const Totals &T, const Setup &S) {
  bool Ok = true;
  for (const Claim &X : Claims) {
    if (std::strcmp(X.Workload, W.Name))
      continue;
    uint64_t Sum = 0;
    for (const auto &[J, R] : T.Reference)
      if (J.K == X.K && (!X.Program || S.Programs[J.Prog].Name == X.Program))
        Sum += R.C[X.C];
    std::printf("%s %s/%s %s: %llu per round\n", Sum ? "traffic" : "FAIL",
                X.Program ? X.Program : "all", kindName(X.K), X.What,
                (unsigned long long)Sum);
    Ok = Ok && Sum != 0;
  }
  return Ok;
}

/// FNV-1a over every job's simulated figures, in job order: equal across
/// seeds, run lengths and the traced/untraced modes.
uint64_t simFingerprint(const Totals &T) {
  uint64_t H = 0xcbf29ce484222325ull;
  auto mix = [&H](uint64_t V) {
    for (int B = 0; B != 8; ++B) {
      H ^= (V >> (8 * B)) & 0xff;
      H *= 0x100000001b3ull;
    }
  };
  for (const auto &[J, R] : T.Reference) {
    mix(J.Prog);
    mix(uint64_t(J.K));
    mix(R.Cycles);
    mix(R.RuntimeCycles);
    for (unsigned I = 0; I != NumCounts; ++I)
      if (I != HookCalls)
        mix(R.C[I]);
  }
  return H;
}

//===----------------------------------------------------------------------===//
// Output
//===----------------------------------------------------------------------===//

class JsonMetrics {
public:
  void add(const char *Name, double Value, const char *Unit) {
    char Buf[256];
    std::snprintf(Buf, sizeof(Buf), "%s\"%s\": {\"value\": %.10g, "
                  "\"unit\": \"%s\"}",
                  Body.empty() ? "" : ", ", Name, Value, Unit);
    Body += Buf;
    std::printf("  %-28s %14.6g %s\n", Name, Value, Unit);
  }
  const std::string &body() const { return Body; }

private:
  std::string Body;
};

/// Peak resident set of this process image in MB: VmHWM from
/// /proc/self/status. Not getrusage's ru_maxrss, which Linux carries over
/// exec and so reports the launching process's peak when that is larger.
double peakRssMb() {
  std::FILE *F = std::fopen("/proc/self/status", "r");
  if (!F)
    return 0;
  char Line[256];
  double Kb = 0;
  while (std::fgets(Line, sizeof(Line), F))
    if (std::sscanf(Line, "VmHWM: %lf kB", &Kb) == 1)
      break;
  std::fclose(F);
  return Kb / 1024.0;
}

void printPerJob(const Totals &T, const Setup &S) {
  std::printf("%-14s %-9s %12s %9s %7s %7s %7s %9s %9s %9s\n", "program",
              "kind", "sim cycles", "slowdown", "blocks", "traces", "evicts",
              "min ms", "p50 ms", "max ms");
  for (const auto &[J, R] : T.Reference) {
    const ProgramRef &P = S.Programs[J.Prog];
    const std::vector<double> &Ms = T.JobMsByJob.at(J);
    std::printf("%-14s %-9s %12llu %9.4f %7llu %7llu %7llu %9.3f %9.3f "
                "%9.3f\n",
                P.Name.c_str(), kindName(J.K), (unsigned long long)R.Cycles,
                double(R.Cycles) / double(nativeFor(J, S).Cycles),
                (unsigned long long)R.C[BlocksBuilt],
                (unsigned long long)R.C[TracesBuilt],
                (unsigned long long)R.C[CacheEvictions],
                *std::min_element(Ms.begin(), Ms.end()), median(Ms),
                *std::max_element(Ms.begin(), Ms.end()));
  }
}

struct Args {
  const WorkloadSpec *W = nullptr;
  uint64_t Seed = 0;
  double Seconds = 0;
  bool Trace = false;
};

bool parseArgs(int Argc, char **Argv, Args &A) {
  bool HaveSeed = false, HaveSeconds = false, HaveTrace = false;
  for (int I = 1; I + 1 < Argc; I += 2) {
    const char *Key = Argv[I], *Val = Argv[I + 1];
    char *End = nullptr;
    if (!std::strcmp(Key, "--workload")) {
      for (const WorkloadSpec &W : Workloads)
        if (!std::strcmp(W.Name, Val))
          A.W = &W;
    } else if (!std::strcmp(Key, "--seed")) {
      A.Seed = std::strtoull(Val, &End, 10);
      HaveSeed = End && *End == '\0' && *Val != '\0';
    } else if (!std::strcmp(Key, "--seconds")) {
      A.Seconds = std::strtod(Val, &End);
      HaveSeconds = End && *End == '\0' && A.Seconds > 0 &&
                    A.Seconds <= 3600;
    } else if (!std::strcmp(Key, "--trace")) {
      HaveTrace = !std::strcmp(Val, "0") || !std::strcmp(Val, "1");
      A.Trace = !std::strcmp(Val, "1");
    } else {
      return false;
    }
  }
  return Argc % 2 == 1 && A.W && HaveSeed && HaveSeconds && HaveTrace;
}

/// Set-ups per run, from which setup_s is taken: one between rounds
/// while they have taken under SetupShare of the run so far, so a workload
/// with a cheap set-up gets many samples, and at least MinSetups.
constexpr size_t MinSetups = 5;
constexpr double SetupShare = 0.2;
/// Fewest timed jobs per mode, so the tail rule always has a percentile.
constexpr size_t MinJobs = 40;

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  if (!parseArgs(Argc, Argv, A)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload steady|churn|tenants "
                 "--seed N --seconds S --trace 0|1\n");
    return 2;
  }
  const WorkloadSpec &W = *A.W;
  std::printf("workload %s, seed %llu, %g s, trace %d\n", W.Name,
              (unsigned long long)A.Seed, A.Seconds, int(A.Trace));

  SpanRecorder Plain(false), Traced(true);
  SpanRecorder &SetupRec = A.Trace ? Traced : Plain;

  // Set-ups. The first runs before any job; the rest are spread between
  // rounds, each freeing and replacing the last, so they sample the same
  // stretch of host time as the jobs. setup_s is the sum over set-up steps
  // of each step's fastest time, as host_mips sums each job's fastest run:
  // on a shared 4-vCPU host, slow stretches of seconds run everything
  // ~1.7x slower, and the median of one run's set-ups spread by a third
  // of itself between runs (the fastest whole set-up, by a quarter).
  std::unique_ptr<Setup> S;
  std::vector<double> SetupS;
  std::vector<double> FastestStep; ///< per step, over all set-ups
  double SetupTotal = 0;
  LayerTimes SetupSelf{};
  auto setUp = [&] {
    S.reset();
    std::string Err;
    uint64_t T0 = nowNs();
    {
      SpanRecorder::Scope Span(SetupRec, JobLayer);
      S = runSetup(W, SetupRec, Err);
    }
    SetupS.push_back(double(nowNs() - T0) / 1e9);
    SetupTotal += SetupS.back();
    SetupRec.fold(SetupSelf);
    if (!S) {
      std::fprintf(stderr, "set-up failed: %s\n", Err.c_str());
      return false;
    }
    FastestStep.resize(S->StepSeconds.size(), 1e300);
    for (size_t I = 0; I != FastestStep.size(); ++I)
      FastestStep[I] = std::min(FastestStep[I], S->StepSeconds[I]);
    return true;
  };
  const uint64_t Start = nowNs();
  const uint64_t Deadline = Start + uint64_t(A.Seconds * 1e9);
  if (!setUp())
    return 1;
  double NativeInstructions = 0;
  for (const ProgramRef &P : S->Programs)
    NativeInstructions += double(P.Native.Instructions);
  for (const Template &T : S->Templates)
    NativeInstructions += double(T.TenantNativeAllRuns);

  std::vector<Job> Multiset;
  for (uint32_t P = 0; P != S->Programs.size(); ++P)
    for (Kind K : W.Kinds)
      Multiset.push_back({P, K});

  // Timed rounds. Each round is every job once, in a seeded order; the
  // run always ends on a round boundary so every round weighs the same.
  Totals PlainT, TracedT;
  Rng R(A.Seed);
  size_t Rounds = 0;
  do {
    std::vector<Job> Order = Multiset;
    for (size_t I = Order.size(); I > 1; --I)
      std::swap(Order[I - 1], Order[R.nextBelow(I)]);
    for (size_t I = 0; I != Order.size(); ++I) {
      const Job &J = Order[I];
      if (!A.Trace) {
        record(J, runJob(J, *S, Plain), *S, PlainT, nullptr);
        continue;
      }
      // Alternate which mode goes first, so neither always runs on a
      // host cache the other warmed.
      if ((Rounds + I) % 2) {
        record(J, runJob(J, *S, Plain), *S, PlainT, nullptr);
        record(J, runJob(J, *S, Traced), *S, TracedT, &PlainT);
      } else {
        JobResult TR = runJob(J, *S, Traced);
        record(J, runJob(J, *S, Plain), *S, PlainT, nullptr);
        record(J, std::move(TR), *S, TracedT, &PlainT);
      }
    }
    ++Rounds;
    if (SetupTotal < SetupShare * double(nowNs() - Start) / 1e9 && !setUp())
      return 1;
  } while (nowNs() < Deadline || PlainT.Jobs < MinJobs);
  while (SetupS.size() < MinSetups)
    if (!setUp())
      return 1;
  const double Elapsed = double(nowNs() - Start) / 1e9;

  const size_t Attempted = PlainT.Jobs + TracedT.Jobs;
  const size_t Failed = PlainT.Failed + TracedT.Failed;
  const uint64_t Fingerprint = simFingerprint(PlainT);
  bool Correct = Failed == 0;
  printPerJob(PlainT, *S);
  if (!checkClaims(W, PlainT, *S))
    Correct = false;
  if (A.Trace && simFingerprint(TracedT) != Fingerprint) {
    std::printf("FAIL traced and untraced simulated figures differ\n");
    Correct = false;
  }
  std::printf("\n%zu rounds of %zu jobs and %zu set-ups in %.3f s; %zu "
              "attempted, %zu failed\n",
              Rounds, Multiset.size(), SetupS.size(), Elapsed, Attempted,
              Failed);
  std::printf("sim_fingerprint 0x%016llx (equal across seeds and modes)\n",
              (unsigned long long)Fingerprint);

  JsonMetrics Out;
  if (!A.Trace) {
    Tail T = tailPercentile(PlainT.JobMs);
    Ratio Ok{double(PlainT.Jobs - PlainT.Failed), double(PlainT.Jobs)};
    Ratio Fail{double(PlainT.Failed), double(PlainT.Jobs)};
    std::printf("host_mips: best run of each of %zu jobs; all runs: %.0f "
                "native instructions / %.6f s = %.4f\n",
                PlainT.JobMsByJob.size(), PlainT.NativeInstructions,
                double(PlainT.WallNs) / 1e9,
                PlainT.NativeInstructions * 1e3 / double(PlainT.WallNs));
    std::printf("job_ms_p50: median of %zu jobs' fastest runs; median of "
                "all %zu runs %.4f ms\n",
                PlainT.JobMsByJob.size(), PlainT.JobMs.size(),
                median(PlainT.JobMs));
    std::printf("job_ms_tail: %s of %zu jobs, %zu beyond\n",
                percentileName(T.PerMille).c_str(), T.Samples, T.Beyond);
    const double SetupSeconds =
        std::accumulate(FastestStep.begin(), FastestStep.end(), 0.0);
    std::printf("setup_s: fastest time of each of %zu steps over %zu "
                "set-ups, summed; whole set-ups (median %.6f):",
                FastestStep.size(), SetupS.size(), median(SetupS));
    for (double V : SetupS)
      std::printf(" %.4f", V);
    std::printf("\njob_ok_ratio %s; job_fail_ratio %s\n\n",
                Ok.str().c_str(), Fail.str().c_str());
    Out.add("host_mips", PlainT.hostMips(), "Minstr/s");
    Out.add("job_ms_p50", PlainT.jobMsP50(), "ms");
    Out.add("job_ms_tail", T.Value, "ms");
    Out.add("setup_s", SetupSeconds, "s");
    Out.add("peak_rss_mb", peakRssMb(), "MB");
    Out.add("sim_slowdown_geomean", geomean(PlainT.Slowdowns), "ratio");
    Out.add("job_ok_ratio", Ok.value(), "ratio");
  } else {
    uint64_t Cycles = 0, RuntimeCycles = 0;
    Counts C = countsPerRound(TracedT, Cycles, RuntimeCycles);
    const double TracedRounds = double(TracedT.Jobs) / double(Multiset.size());
    auto perRoundMs = [&](Layer L) {
      return double(TracedT.Self[L]) / 1e6 / TracedRounds;
    };
    auto perSetupMs = [&](Layer L) {
      return double(SetupSelf[L]) / 1e6 / double(SetupS.size());
    };
    Ratio Ibl{double(C[IblHits]), double(C[IblLookups])};
    Ratio IbInline{double(C[IbInlineHits]),
                   double(C[IbInlineHits] + C[IbInlineMisses])};
    Ratio RuntimeShare{double(RuntimeCycles), double(Cycles)};
    Ratio Publish{double(C[SidelinePublished]),
                  double(C[SidelineOptimized])};
    Ratio LoadOk{double(C[LoadsOk]), double(C[Loads])};
    Ratio ImageBytesPerSave{double(C[ImageBytes]), double(C[Saves])};
    Ratio NativeMips{NativeInstructions / 1e6,
                     perSetupMs(VmNative) / 1e3};
    Ratio TraceCost{TracedT.hostMips(), PlainT.hostMips()};
    std::printf("per round of %zu jobs (counts and ms), per set-up (asm, "
                "vm.native, persist.freeze)\n",
                Multiset.size());
    std::printf("core.ibl_hit_ratio %s\n", Ibl.str().c_str());
    std::printf("core.ibinline_hit_ratio %s\n", IbInline.str().c_str());
    std::printf("core.runtime_cycle_share %s\n", RuntimeShare.str().c_str());
    std::printf("core.sideline_publish_ratio %s\n", Publish.str().c_str());
    std::printf("persist.load_ok_ratio %s\n", LoadOk.str().c_str());
    std::printf("persist.image_bytes %s\n", ImageBytesPerSave.str().c_str());
    std::printf("vm.native_mips %s\n", NativeMips.str().c_str());
    std::printf("tracing overhead: traced/untraced host_mips %s\n",
                TraceCost.str().c_str());
    std::printf("clients.worker_hook_ms: %llu hooks on the sideline worker\n\n",
                (unsigned long long)TracedT.WorkerHookCalls);
    Out.add("asm.assemble_ms", perSetupMs(AsmAssemble), "ms");
    Out.add("vm.native_ms", perSetupMs(VmNative), "ms");
    Out.add("vm.native_mips", NativeMips.value(), "Minstr/s");
    Out.add("vm.machine_ms", perRoundMs(VmMachine), "ms");
    Out.add("vm.cow_page_copies", double(C[CowPageCopies]), "count");
    Out.add("core.ctor_ms", perRoundMs(CoreCtor), "ms");
    Out.add("core.run_self_ms", perRoundMs(CoreRun), "ms");
    Out.add("core.dispatches", double(C[Dispatches]), "count");
    Out.add("core.context_switches", double(C[ContextSwitches]), "count");
    Out.add("core.basic_blocks_built", double(C[BlocksBuilt]), "count");
    Out.add("core.traces_built", double(C[TracesBuilt]), "count");
    Out.add("core.links_made", double(C[LinksMade]), "count");
    Out.add("core.ibl_hit_ratio", Ibl.value(), "ratio");
    Out.add("core.ibinline_hit_ratio", IbInline.value(), "ratio");
    Out.add("core.runtime_cycle_share", RuntimeShare.value(), "ratio");
    Out.add("core.cache_evictions", double(C[CacheEvictions]), "count");
    Out.add("core.cache_evicted_bytes", double(C[CacheEvictedBytes]),
            "bytes");
    Out.add("core.fragments_deleted", double(C[FragmentsDeleted]), "count");
    Out.add("core.smc_invalidations", double(C[SmcInvalidations]), "count");
    Out.add("core.sideline_publish_ratio", Publish.value(), "ratio");
    Out.add("core.sideline_stale_drops", double(C[SidelineStaleDrops]),
            "count");
    Out.add("core.traceopt_guards", double(C[TraceOptGuards]), "count");
    Out.add("core.traceopt_deopts", double(C[TraceOptDeopts]), "count");
    Out.add("core.traceopt_guard_fails", double(C[TraceOptGuardFails]),
            "count");
    Out.add("core.fork_cache_unshares", double(C[ForkUnshares]), "count");
    Out.add("clients.hook_ms", perRoundMs(ClientHook), "ms");
    Out.add("clients.worker_hook_ms",
            double(TracedT.WorkerHookNs) / 1e6 / TracedRounds, "ms");
    Out.add("clients.hook_calls", double(C[HookCalls]), "count");
    Out.add("clients.clean_calls", double(C[CleanCalls]), "count");
    Out.add("persist.save_ms", perRoundMs(PersistSave), "ms");
    Out.add("persist.image_bytes", ImageBytesPerSave.value(), "bytes");
    Out.add("persist.load_ms", perRoundMs(PersistLoad), "ms");
    Out.add("persist.load_ok_ratio", LoadOk.value(), "ratio");
    Out.add("persist.freeze_ms", perSetupMs(PersistFreeze), "ms");
    Out.add("persist.fork_ms", perRoundMs(PersistFork), "ms");
    Out.add("bench.job_other_ms", perRoundMs(JobLayer), "ms");
    Out.add("bench.untraced_host_mips", PlainT.hostMips(), "Minstr/s");
    Out.add("bench.traced_host_mips", TracedT.hostMips(), "Minstr/s");
    Out.add("bench.trace_mips_ratio", TraceCost.value(), "ratio");
  }

  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {%s}}\n",
              Correct ? "true" : "false", Attempted, Failed,
              Out.body().c_str());
  return Correct ? 0 : 1;
}
