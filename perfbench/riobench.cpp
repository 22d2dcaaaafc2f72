//===- perfbench/riobench.cpp - The end-to-end RIO-DYN benchmark -----------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One measured run of one benchmark workload:
///
///   riobench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///            [--spans <file>]
///
/// The seed fixes the inputs: each program's scale within a narrow band
/// around its registered scale (except on tenant_fleet), the run order, and
/// (adaptive_ib) the sideline's virtual-completion seed. Every program first runs natively
/// once, outside the timed phase; that run is the oracle every later run's
/// output and exit code are checked against. The benchmark then repeats
/// the whole workload ("reps") for at least --seconds and reports medians
/// of the host times, each rep's taken at the reference host's speed (see
/// Speed.h), and the simulated counts, which must be bit-identical
/// across reps (the determinism guard; a mismatch fails the invocation).
///
/// --trace 0 reports the end-to-end metrics. --trace 1 alternates untraced
/// reps with traced ones: the traced reps wrap the client in a hook timer
/// and record spans around every call into the runtime's layers, and give
/// the per-layer metrics. Their simulated counts must equal the untraced
/// reps', and the gap between the two wall times is reported as the
/// tracing overhead.
///
/// The last line of standard output is one JSON object with the metrics.
///
//===----------------------------------------------------------------------===//

#include "Speed.h"
#include "Tracing.h"

#include "asm/Assembler.h"
#include "core/Runtime.h"
#include "core/Sideline.h"
#include "core/ThreadedRunner.h"
#include "core/TraceOpt.h"
#include "harness/Experiment.h"
#include "ir/Build.h"
#include "isa/Decode.h"
#include "isa/Encode.h"
#include "persist/CacheImage.h"
#include "support/Arena.h"
#include "support/Profile.h"
#include "support/Rng.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <numeric>
#include <optional>
#include <set>
#include <string>
#include <vector>

using namespace rio;
using namespace riobench;

namespace {

[[noreturn]] void die(const std::string &Msg) {
  std::fprintf(stderr, "riobench: %s\n", Msg.c_str());
  std::exit(2);
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

enum class Kind { HotLoops, ColdStart, AdaptiveIb, TenantFleet };

constexpr unsigned ColdStartRounds = 10;
constexpr unsigned TenantsPerProgram = 8;
/// Seeded scales stay within 1% of the registered scale, so that a
/// workload's size, and with it every metric, barely moves with the seed.
/// Only data-size scales (1000 and up) move: below that a scale is an
/// iteration count, and one step is already more than 1%.
constexpr int MinSeededScale = 1000;
/// Sampling interval of adaptive_ib's profiler (riodyn's default).
constexpr uint64_t ProfileIntervalCycles = 1000;
/// Fewest reps per kind (untraced, traced): the determinism guard needs two.
constexpr unsigned MinReps = 2;

/// One program of a workload, with the native run it is checked against.
struct Job {
  const Workload *W = nullptr;
  int Scale = 0;
  std::string Source;
  Outcome Native;
};

struct Plan {
  Kind K = Kind::HotLoops;
  std::vector<Job> Jobs;
  /// Job indices in run order, one list per round.
  std::vector<std::vector<size_t>> Rounds;
  uint64_t SidelineSeed = 0;
};

Plan makePlan(const std::string &Name, uint64_t Seed) {
  Plan P;
  std::vector<const Workload *> Ws;
  bool TestScale = false;
  bool SeededScales = true;
  unsigned Rounds = 1;
  auto named = [&](std::initializer_list<const char *> Names) {
    for (const char *N : Names) {
      const Workload *W = findWorkload(N);
      if (!W)
        die(std::string("no registered program '") + N + "'");
      Ws.push_back(W);
    }
  };
  if (Name == "hot_loops") {
    P.K = Kind::HotLoops;
    named({"gzip", "vpr", "mcf", "bzip2", "twolf", "mgrid", "swim",
           "equake", "art"});
  } else if (Name == "cold_start") {
    P.K = Kind::ColdStart;
    for (const Workload &W : allWorkloads())
      Ws.push_back(&W);
    for (const Workload &W : cacheWorkloads())
      Ws.push_back(&W);
    TestScale = true;
    Rounds = ColdStartRounds;
  } else if (Name == "adaptive_ib") {
    P.K = Kind::AdaptiveIb;
    named({"gap", "eon", "parser", "crafty", "vortex"});
  } else if (Name == "tenant_fleet") {
    P.K = Kind::TenantFleet;
    named({"crafty", "vpr", "gap"});
    // Tenants run whatever the template's warm-up left in the cache, and
    // that jumps with gap's data size: a 0.5% step in its scale moves the
    // fleet's cycles by up to 10%. So the seed sets only the run order here.
    SeededScales = false;
  } else {
    die("unknown workload '" + Name +
        "' (want hot_loops, cold_start, adaptive_ib or tenant_fleet)");
  }

  Rng R(Seed * 0x9E3779B97F4A7C15ull + 0x51ED);
  for (const Workload *W : Ws) {
    Job J;
    J.W = W;
    int Base = TestScale ? W->TestScale : W->DefaultScale;
    int64_t Band = SeededScales && Base >= MinSeededScale ? Base / 100 : 0;
    J.Scale = int(Base + R.nextInRange(-Band, Band));
    J.Source = W->Source(J.Scale);
    P.Jobs.push_back(std::move(J));
  }
  for (unsigned Round = 0; Round != Rounds; ++Round) {
    std::vector<size_t> Order(P.Jobs.size());
    std::iota(Order.begin(), Order.end(), 0);
    for (size_t I = Order.size(); I > 1; --I)
      std::swap(Order[I - 1], Order[R.nextBelow(I)]);
    P.Rounds.push_back(std::move(Order));
  }
  P.SidelineSeed = R.next();
  return P;
}

Program assembleJob(const Job &J) {
  Program Prog;
  std::string Error;
  if (!assemble(J.Source, Prog, Error))
    die(std::string(J.W->Name) + ": assembly failed: " + Error);
  return Prog;
}

/// Runs \p Prog natively; \p LoopNs gets the host time of the execution
/// loop alone, which is what the core.run span it is compared with covers.
Outcome runNative(const Program &Prog, int64_t &LoopNs) {
  Machine M;
  Outcome O;
  if (!loadProgram(M, Prog))
    die("program too large");
  int64_t T0 = nowNs();
  while (M.status() == RunStatus::Running)
    M.step();
  LoopNs = nowNs() - T0;
  O.Status = M.status();
  O.ExitCode = M.exitCode();
  O.Output = M.output();
  O.Cycles = M.cycles();
  O.Instructions = M.instructionsExecuted();
  return O;
}

/// Runs every program natively once: the oracle.
void runOracles(Plan &P) {
  for (Job &J : P.Jobs) {
    int64_t Ns = 0;
    J.Native = runNative(assembleJob(J), Ns);
    if (J.Native.Status != RunStatus::Exited)
      die(std::string(J.W->Name) + ": the native reference run did not exit");
  }
}

RuntimeConfig configFor(Kind K) {
  RuntimeConfig C = RuntimeConfig::full();
  if (K == Kind::ColdStart) {
    // Bounded caches force eviction on the larger programs, kept at a size
    // every program passes at: with 4 KB for blocks and 2 KB for traces,
    // mesa and ammp fault with "code cache exhausted".
    C.Eviction = EvictionPolicy::Fifo;
    C.BbCacheSize = 16u << 10;
    C.TraceCacheSize = 8u << 10;
  }
  if (K == Kind::AdaptiveIb)
    C.IbInline = true;
  return C;
}

/// Everything one rep counts on the simulated clock, summed over its runs.
/// Bit-identical across the reps of one invocation, traced or not.
struct Exact {
  std::map<std::string, uint64_t> Counts;
  double LogSlowdownSum = 0;
  bool operator==(const Exact &) const = default;

  uint64_t get(const std::string &Name) const {
    auto It = Counts.find(Name);
    return It == Counts.end() ? 0 : It->second;
  }
};

/// The correctness oracle: a run passes iff it exited with the native
/// run's exit code and wrote exactly the native run's output. Every run
/// checked counts as attempted.
void check(Exact &E, const Outcome &Native, const RunResult &R,
           const std::string &Output) {
  ++E.Counts["runs"];
  bool Ok = R.Status == RunStatus::Exited && R.ExitCode == Native.ExitCode &&
            Output == Native.Output;
  E.Counts["failed"] += Ok ? 0 : 1;
}

/// Runtime statistics read after every timed run, by metric name.
const std::pair<const char *, const char *> StatMetrics[] = {
    {"core.dispatches", "dispatches"},
    {"core.context_switches", "context_switches"},
    {"core.ibl_lookups", "ibl_lookups"},
    {"core.ibl_hits", "ibl_hits"},
    {"core.bbs_built", "basic_blocks_built"},
    {"core.traces_built", "traces_built"},
    {"core.trace_blocks", "trace_blocks_total"},
    {"core.links_made", "links_made"},
    {"core.fragments_deleted", "fragments_deleted"},
    {"core.cache.evictions", "cache_evictions"},
    {"core.cache.evicted_bytes", "cache_evicted_bytes"},
    {"core.cache.flushes", "cache_flushes"},
    {"core.cache.smc_invalidations", "smc_invalidations"},
    {"core.ibinline.rewrites", "ib_inline_rewrites"},
    {"core.ibinline.hits", "ib_inline_hits"},
    {"core.ibinline.misses", "ib_inline_misses"},
    {"core.ibinline.chain_evictions", "ib_inline_chain_evictions"},
    {"core.traceopt.guard_failures", "traceopt_guard_failures"},
    {"persist.unshares", "fork_cache_unshares"},
};

/// Machine and runtime counters just before a run, so forked tenants
/// (whose machines inherit the template's clock and output) count only
/// their own run.
struct RunMark {
  uint64_t Cycles, Instrs, RtCycles, CowCopies;
  size_t OutLen;
};

RunMark mark(Machine &M, Runtime &RT) {
  return {M.cycles(), M.instructionsExecuted(), RT.cyclesInRuntime(),
          M.mem().cowPageCopies(), M.output().size()};
}

/// Checks one timed run against its oracle and adds its counts to \p E.
/// \p CodeBytes is the code cache the run executed from.
void account(Exact &E, const Job &J, Machine &M, Runtime &RT,
             const RunMark &Before, const RunResult &R, uint64_t CodeBytes) {
  check(E, J.Native, R, M.output().substr(Before.OutLen));
  uint64_t Cycles = M.cycles() - Before.Cycles;
  ++E.Counts["timed_runs"];
  E.Counts["sim_cycles"] += Cycles;
  E.Counts["vm.instructions"] += M.instructionsExecuted() - Before.Instrs;
  E.Counts["core.runtime_cycles"] += RT.cyclesInRuntime() - Before.RtCycles;
  E.Counts["vm.cow_page_copies"] += M.mem().cowPageCopies() - Before.CowCopies;
  E.Counts["code_cache_bytes"] += CodeBytes;
  for (const auto &[Metric, Stat] : StatMetrics)
    E.Counts[Metric] += RT.stats().get(Stat);
  E.Counts["core.traceopt.blacklisted"] += RT.traceoptBlacklist().size();
  E.Counts["core.sideline.epochs"] += RT.publicationEpoch();
  E.LogSlowdownSum += std::log(double(Cycles) / double(J.Native.Cycles));
}

/// The trace optimizer's per-trace work, counted only for the versions
/// the sideline publishes. The optimizer's own counters also count work on
/// jobs that went stale, and whether the worker reaches a job before it is
/// cancelled depends on host timing, so those counters differ between
/// identical runs. Sits between the sideline and the optimizer: onTrace runs
/// on the worker, onSidelinePublish on the application thread with the
/// same list.
class PublishedWork final : public Client {
public:
  struct Work {
    ValuePassStats Value;
    uint64_t IncDec = 0;
  };

  explicit PublishedWork(TraceOptClient &Inner) : Inner(Inner) {}

  void onTrace(Runtime &RT, AppPc Tag, InstrList &IL) override {
    // Only the worker writes the optimizer's counters, so reading them
    // here, around its own call, is race-free.
    ValuePassStats V0 = Inner.valueStats();
    uint64_t I0 = Inner.incDecReduced();
    Inner.onTrace(RT, Tag, IL);
    Work W;
    W.Value = Inner.valueStats();
    W.Value.LoadsRemoved -= V0.LoadsRemoved;
    W.Value.LoadsForwarded -= V0.LoadsForwarded;
    W.Value.ConstsFolded -= V0.ConstsFolded;
    W.Value.DeadStoresElided -= V0.DeadStoresElided;
    W.IncDec = Inner.incDecReduced() - I0;
    std::lock_guard<std::mutex> L(Mu);
    Pending[&IL] = W;
  }
  void onSidelinePublish(Runtime &RT, AppPc Tag, InstrList &IL) override {
    {
      std::lock_guard<std::mutex> L(Mu);
      auto It = Pending.find(&IL);
      if (It != Pending.end()) {
        Published.Value += It->second.Value;
        Published.IncDec += It->second.IncDec;
        Pending.erase(It);
      }
    }
    Inner.onSidelinePublish(RT, Tag, IL);
  }

  void onInit(Runtime &RT) override { Inner.onInit(RT); }
  void onExit(Runtime &RT) override { Inner.onExit(RT); }
  void onThreadInit(Runtime &RT) override { Inner.onThreadInit(RT); }
  void onThreadExit(Runtime &RT) override { Inner.onThreadExit(RT); }
  void onBasicBlock(Runtime &RT, AppPc Tag, InstrList &IL) override {
    Inner.onBasicBlock(RT, Tag, IL);
  }
  void onFragmentDeleted(Runtime &RT, AppPc Tag) override {
    Inner.onFragmentDeleted(RT, Tag);
  }
  bool onIndirectResolved(Runtime &RT, int BranchOp, AppPc Target) override {
    return Inner.onIndirectResolved(RT, BranchOp, Target);
  }
  EndTrace onEndTrace(Runtime &RT, AppPc TraceTag, AppPc NextTag) override {
    return Inner.onEndTrace(RT, TraceTag, NextTag);
  }
  bool sidelineSafe() const override { return Inner.sidelineSafe(); }
  bool persistSafe() const override { return Inner.persistSafe(); }

  /// Work of every published version (read after the run).
  const Work &published() const { return Published; }

private:
  TraceOptClient &Inner;
  std::mutex Mu; ///< guards Pending
  std::map<const InstrList *, Work> Pending;
  Work Published;
};

/// Basic-block tags seen per job (the traced reps' harvest for the
/// isa/ir timings).
using BlockHarvest = std::map<size_t, std::set<AppPc>>;

void harvest(Runtime &RT, std::set<AppPc> &Into) {
  RT.forEachFragment([&](const Fragment &F) {
    if (F.FragKind == Fragment::Kind::BasicBlock)
      Into.insert(F.Tag);
  });
}

/// What one rep of the workload measured.
struct Rep {
  bool Traced = false;
  Exact E;
  int64_t SetupNs = 0;
  int64_t WallNs = 0;
  /// Host speed during the rep; the reported times are divided by its
  /// slowness.
  Speedometer Speed;
  /// Traced reps: native host time of the same runs, and native host ns
  /// per instruction, both timed inside the rep.
  int64_t NativeNs = 0;
  double NativeNsPerInstr = 0;
  HookTally Hooks;
  std::map<std::string, double> SelfMs; ///< span self times (traced)
};

struct RepCtx {
  const Plan &P;
  Rep &R;
  SpanLog *Log;         ///< null in untraced reps
  BlockHarvest *Blocks; ///< null in untraced reps
  /// Traced reps: each job's native loop time in this rep (else empty).
  std::vector<int64_t> NativeNs;
};

/// One run on a fresh Machine and Runtime (hot_loops, cold_start,
/// adaptive_ib). Construction is set-up; the run and the teardown are the
/// timed phase.
void runFresh(RepCtx &X, size_t JobIdx, const Program &Prog) {
  const Job &J = X.P.Jobs[JobIdx];
  int64_t T0 = nowNs(), T1 = 0;
  {
    Span Setup(X.Log, "setup.construct");
    Machine M;
    if (!loadProgram(M, Prog))
      die(std::string(J.W->Name) + ": program too large");
    RuntimeConfig C = configFor(X.P.K);
    // Locals die in reverse order: the runtime goes first, then the
    // sideline (joining its worker), then the clients it wraps.
    std::optional<ClientBundle> Bundle;
    std::optional<TraceOptClient> TraceOpt;
    std::optional<PublishedWork> Work;
    std::optional<SidelineOptimizer> Sideline;
    std::optional<SampleProfile> Profiler;
    std::optional<TimedClient> Timed;
    Client *Top = nullptr;
    if (X.P.K == Kind::AdaptiveIb) {
      // riodyn -ib-inline -sideline-async -traceopt -traceopt-speculate.
      TraceOptOptions Opts;
      Opts.Speculate = true;
      TraceOpt.emplace(Opts);
      Work.emplace(*TraceOpt);
      Sideline.emplace(*Work, SidelineMode::Async, X.P.SidelineSeed);
      Profiler.emplace(ProfileIntervalCycles);
      C.SidelinePump = &*Sideline;
      C.Profiler = &*Profiler;
      Top = &*Sideline;
    } else {
      Bundle.emplace(ClientKind::AllFour);
      Top = Bundle->client();
    }
    if (X.Log)
      Top = &Timed.emplace(*Top, *X.Log, X.R.Hooks);
    Runtime RT(M, C, Top);
    if (Profiler)
      Profiler->setTraceSampleHook([&](uint32_t Tag, uint64_t Samples) {
        if (TraceOpt->observe(RT, Tag, Samples))
          Sideline->requestReopt(RT, Tag);
      });
    Setup.end();
    T1 = nowNs();
    X.R.SetupNs += T1 - T0;

    RunMark Before = mark(M, RT);
    Span Run(X.Log, "core.run");
    RunResult Res = Sideline ? runWithSideline(RT, *Sideline) : RT.run();
    Run.end();
    account(X.R.E, J, M, RT, Before, Res, RT.cacheManager().totalUsedBytes());
    if (Sideline) {
      const ValuePassStats &V = Work->published().Value;
      const ValuePassStats &Pub = TraceOpt->publishStats();
      std::map<std::string, uint64_t> &N = X.R.E.Counts;
      N["core.sideline.published"] += Sideline->versionsPublished();
      N["core.sideline.stale_drops"] += Sideline->staleDrops();
      N["core.traceopt.loads_removed"] += V.LoadsRemoved + Pub.LoadsRemoved;
      N["core.traceopt.consts_folded"] += V.ConstsFolded + Pub.ConstsFolded;
      N["core.traceopt.dead_stores"] +=
          V.DeadStoresElided + Pub.DeadStoresElided;
      N["core.traceopt.incdec_reduced"] += Work->published().IncDec;
      N["core.traceopt.guards_emitted"] += TraceOpt->guardsEmitted();
    }
    if (X.Blocks)
      harvest(RT, (*X.Blocks)[JobIdx]);
  }
  int64_t End = nowNs();
  X.R.WallNs += End - T1;
  X.R.Speed.pace(End - T0);
  if (X.Log)
    X.R.NativeNs += X.NativeNs[JobIdx];
}

/// One program of tenant_fleet. Set-up warms a runtime, round-trips its
/// cache through the .riocache codec into a fresh runtime, freezes that as
/// the template and forks the tenants; the tenants' runs are timed.
void runFleet(RepCtx &X, size_t JobIdx, const Program &Prog) {
  const Job &J = X.P.Jobs[JobIdx];
  const RuntimeConfig C = configFor(Kind::TenantFleet);
  std::string Err;
  // Lap starts each stretch of timed work; the host-speed kernel runs
  // between stretches.
  int64_t T0 = nowNs(), Lap = 0;
  {
    Span Setup(X.Log, "setup.construct");
    std::vector<uint8_t> Image;
    {
      Machine WarmM;
      if (!loadProgram(WarmM, Prog))
        die(std::string(J.W->Name) + ": program too large");
      Runtime WarmRT(WarmM, C);
      // Two runs reach the steady state (traces promoted, IB links made),
      // so tenants forked from it build nothing and keep sharing the cache.
      // Only the first is checked: the second starts from the memory the
      // first left behind, so its output need not match a fresh native run.
      Span Warm(X.Log, "setup.warmup");
      check(X.R.E, J.Native, WarmRT.run(), WarmM.output());
      WarmM.resetForRun();
      WarmRT.resetThreadForRun();
      RunResult Again = WarmRT.run();
      ++X.R.E.Counts["runs"];
      X.R.E.Counts["failed"] += Again.Status == RunStatus::Exited ? 0 : 1;
      Warm.end();
      if (X.Blocks)
        harvest(WarmRT, (*X.Blocks)[JobIdx]);
      Span Save(X.Log, "persist.save");
      if (!persist::CacheCodec::save(WarmRT, Image))
        die(std::string(J.W->Name) + ": the warmed runtime refused to save");
    }
    Machine TplM;
    if (!loadProgram(TplM, Prog))
      die(std::string(J.W->Name) + ": program too large");
    Runtime Tpl(TplM, C);
    {
      Span Load(X.Log, "persist.load");
      persist::LoadStatus St =
          persist::CacheCodec::load(Tpl, Image.data(), Image.size());
      if (St != persist::LoadStatus::Ok)
        die(std::string(J.W->Name) + ": image rejected: " +
            persist::loadStatusName(St));
    }
    {
      Span Freeze(X.Log, "persist.freeze");
      if (!Tpl.freezeTemplate(&Err))
        die(std::string(J.W->Name) + ": freeze refused: " + Err);
    }
    TenantFleet Fleet;
    {
      Span Spawn(X.Log, "persist.spawn");
      if (!Fleet.spawn(Tpl, TplM, TenantsPerProgram, &Err))
        die(std::string(J.W->Name) + ": spawn failed: " + Err);
    }
    X.R.E.Counts["persist.image_bytes"] += Image.size();
    X.R.E.Counts["persist.tenants"] += Fleet.size();
    Setup.end();
    Lap = nowNs();
    X.R.SetupNs += Lap - T0;
    X.R.Speed.pace(Lap - T0);

    Lap = nowNs();
    for (TenantFleet::Tenant &T : Fleet) {
      RunMark Before = mark(*T.M, *T.RT);
      Span Run(X.Log, "core.run");
      RunResult Res = T.RT->run();
      Run.end();
      // A tenant that never unshared ran from the template's cache.
      const CacheManager &Code =
          T.RT->isForked() ? Tpl.cacheManager() : T.RT->cacheManager();
      account(X.R.E, J, *T.M, *T.RT, Before, Res, Code.totalUsedBytes());
      if (X.Log)
        X.R.NativeNs += X.NativeNs[JobIdx];
      int64_t End = nowNs();
      X.R.WallNs += End - Lap;
      X.R.Speed.pace(End - Lap);
      Lap = nowNs();
    }
  }
  X.R.WallNs += nowNs() - Lap;
}

Rep runRep(const Plan &P, SpanLog *Log, BlockHarvest *Blocks) {
  Rep R;
  R.Traced = Log != nullptr;
  if (Log)
    Log->clear();
  Span Root(Log, "rep");
  RepCtx X{P, R, Log, Blocks, {}};
  // Programs are assembled once per rep, as part of set-up.
  std::vector<Program> Progs;
  int64_t T0 = nowNs();
  for (const Job &J : P.Jobs) {
    Span Asm(Log, "asm.assemble");
    Progs.push_back(assembleJob(J));
  }
  int64_t AsmNs = nowNs() - T0;
  R.SetupNs += AsmNs;
  R.Speed.pace(AsmNs);
  // Traced reps time every program natively too, so that native and
  // runtime host times are taken under the same machine load.
  if (Log) {
    uint64_t Instrs = 0;
    int64_t Ns = 0;
    for (size_t I = 0; I != P.Jobs.size(); ++I) {
      Span Native(Log, "vm.native");
      X.NativeNs.push_back(0);
      Instrs += runNative(Progs[I], X.NativeNs.back()).Instructions;
      Ns += X.NativeNs.back();
    }
    R.NativeNsPerInstr = double(Ns) / double(Instrs);
  }
  for (const std::vector<size_t> &Round : P.Rounds)
    for (size_t I : Round) {
      if (P.K == Kind::TenantFleet)
        runFleet(X, I, Progs[I]);
      else
        runFresh(X, I, Progs[I]);
    }
  Root.end();
  if (Log)
    R.SelfMs = Log->selfMs();
  return R;
}

/// Oracle self-test, run on every invocation: the check must pass a run
/// against its true native reference and count it as failed against a
/// reference with one output byte flipped, or with another exit code.
void selfTestOracle() {
  const Workload *W = findWorkload("vpr");
  if (!W)
    die("oracle self-test: no registered program 'vpr'");
  Program Prog = buildWorkload(*W, W->TestScale);
  Outcome Native = runNativeProgram(Prog);
  Machine M;
  if (!loadProgram(M, Prog))
    die("oracle self-test: program too large");
  Runtime RT(M, RuntimeConfig::full());
  RunResult R = RT.run();
  if (Native.Output.empty())
    die("oracle self-test: the reference wrote no output");

  Exact E;
  check(E, Native, R, M.output());
  if (E.get("failed") != 0)
    die("oracle self-test: an untampered run was counted as failed");
  Outcome BadOutput = Native;
  BadOutput.Output[BadOutput.Output.size() / 2] ^= 1;
  check(E, BadOutput, R, M.output());
  Outcome BadExit = Native;
  BadExit.ExitCode ^= 1;
  check(E, BadExit, R, M.output());
  if (E.get("runs") != 3 || E.get("failed") != 2)
    die("oracle self-test: a tampered reference was not counted as a "
        "failure");
}

/// Median over \p Reps of \p Get.
template <typename Fn>
double medianOf(const std::vector<const Rep *> &Reps, Fn Get) {
  std::vector<double> V;
  for (const Rep *R : Reps)
    V.push_back(Get(*R));
  return median(V);
}

double ratio(uint64_t Num, uint64_t Den) {
  return Den ? double(Num) / double(Den) : 0.0;
}

/// Host ns per instruction of decode, encode and lift (the builder's
/// default lift level), timed over the basic blocks the traced reps built,
/// the way the paper's Table 2 times its decoder. Each is the median over
/// passes of at least 100 ms in total.
struct CodeLayerTimes {
  double DecodeNs = 0, EncodeNs = 0, LiftNs = 0;
};

CodeLayerTimes timeCodeLayers(const Plan &P, const BlockHarvest &Blocks) {
  struct Inst {
    const Program *Prog;
    AppPc Pc;
    DecodedInstr DI;
  };
  struct BlockRef {
    const Program *Prog;
    AppPc Tag;
  };
  const unsigned MaxInstrs = RuntimeConfig().MaxBlockInstrs;
  std::vector<Program> Progs;
  Progs.reserve(P.Jobs.size());
  for (const Job &J : P.Jobs)
    Progs.push_back(assembleJob(J));
  std::vector<Inst> Insts;
  std::vector<BlockRef> BlockRefs;
  for (const auto &[JobIdx, Tags] : Blocks) {
    const Program &Prog = Progs[JobIdx];
    for (AppPc Tag : Tags) {
      BlockScan Scan;
      if (!scanBlock(Prog.Bytes.data(), Prog.Bytes.size(), Prog.LoadAddr, Tag,
                     MaxInstrs, Scan))
        continue; // code the program rewrote at run time
      BlockRefs.push_back({&Prog, Tag});
      AppPc Pc = Tag;
      for (unsigned I = 0; I != Scan.NumInstrs; ++I) {
        Inst In{&Prog, Pc, {}};
        size_t Off = Pc - Prog.LoadAddr;
        if (!decodeInstr(Prog.Bytes.data() + Off, Prog.Bytes.size() - Off, Pc,
                         In.DI))
          break;
        Pc += In.DI.Length;
        Insts.push_back(In);
      }
    }
  }
  CodeLayerTimes Out;
  if (Insts.empty())
    return Out;

  uint64_t Sink = 0;
  auto nsPerInstr = [&](auto Pass) {
    std::vector<double> Samples;
    int64_t Start = nowNs();
    do {
      int64_t T0 = nowNs();
      Pass();
      Samples.push_back(double(nowNs() - T0) / double(Insts.size()));
    } while (Samples.size() < 5 || nowNs() - Start < 100'000'000);
    return median(Samples);
  };
  Out.DecodeNs = nsPerInstr([&] {
    DecodedInstr DI;
    for (const Inst &In : Insts) {
      size_t Off = In.Pc - In.Prog->LoadAddr;
      decodeInstr(In.Prog->Bytes.data() + Off, In.Prog->Bytes.size() - Off,
                  In.Pc, DI);
      Sink += DI.Length;
    }
  });
  Out.EncodeNs = nsPerInstr([&] {
    uint8_t Buf[MaxInstrLength];
    for (const Inst &In : Insts)
      Sink += unsigned(encodeInstr(In.DI, In.Pc, Buf));
  });
  const LiftLevel Level = RuntimeConfig().BbLift;
  Arena A(1u << 16);
  Out.LiftNs = nsPerInstr([&] {
    for (const BlockRef &B : BlockRefs) {
      A.reset();
      InstrList IL(A);
      Sink += liftBlock(IL, B.Prog->Bytes.data(), B.Prog->Bytes.size(),
                        B.Prog->LoadAddr, B.Tag, MaxInstrs, Level);
    }
  });
  if (Sink == 0)
    die("isa/ir timing decoded nothing");
  return Out;
}

struct Metric {
  std::string Name;
  double Value;
  const char *Unit;
};

void printMetrics(const char *Title, const std::vector<Metric> &Ms) {
  std::printf("%s\n", Title);
  for (const Metric &M : Ms)
    std::printf("  %-34s %22.6f %s\n", M.Name.c_str(), M.Value, M.Unit);
}

/// The process's peak resident set (VmHWM). Not getrusage: its maximum
/// survives exec, so it would include the launching process's footprint.
double peakRssMb() {
  std::FILE *F = std::fopen("/proc/self/status", "r");
  if (!F)
    die("cannot read /proc/self/status");
  char Line[256];
  unsigned long long Kb = 0;
  while (std::fgets(Line, sizeof(Line), F))
    if (std::sscanf(Line, "VmHWM: %llu kB", &Kb) == 1)
      break;
  std::fclose(F);
  if (Kb == 0)
    die("no VmHWM line in /proc/self/status");
  return double(Kb) / 1024.0;
}

uint64_t parseNumber(const char *Flag, const char *Text) {
  char *End = nullptr;
  unsigned long long V = std::strtoull(Text, &End, 10);
  if (!*Text || *End)
    die(std::string(Flag) + " wants a whole number, not '" + Text + "'");
  return V;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string WorkloadName, SpansPath;
  uint64_t Seed = 0, Seconds = 10, Trace = 0;
  bool HaveWorkload = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (I + 1 >= Argc)
      die("flag '" + Arg + "' needs a value");
    const char *Val = Argv[++I];
    if (Arg == "--workload") {
      WorkloadName = Val;
      HaveWorkload = true;
    } else if (Arg == "--seed") {
      Seed = parseNumber("--seed", Val);
    } else if (Arg == "--seconds") {
      Seconds = parseNumber("--seconds", Val);
    } else if (Arg == "--trace") {
      Trace = parseNumber("--trace", Val);
    } else if (Arg == "--spans") {
      SpansPath = Val;
    } else {
      die("unknown flag '" + Arg + "'");
    }
  }
  if (!HaveWorkload || Trace > 1 || Seconds < 1)
    die("usage: riobench --workload <name> --seed <n> --seconds <s, >= 1> "
        "--trace <0|1> [--spans <file>]");

  selfTestOracle();
  Plan P = makePlan(WorkloadName, Seed);
  runOracles(P);

  // Timed phase: whole-workload reps until the time is up. With --trace 1
  // untraced and traced reps alternate, so both see the same machine load.
  std::vector<Rep> Reps;
  SpanLog Log;
  BlockHarvest Blocks;
  unsigned NumUntraced = 0, NumTraced = 0;
  const int64_t Start = nowNs();
  const int64_t Budget = int64_t(Seconds) * 1'000'000'000;
  for (;;) {
    bool TimeUp = nowNs() - Start >= Budget;
    bool Enough = NumUntraced >= MinReps && (!Trace || NumTraced >= MinReps);
    if (TimeUp && Enough)
      break;
    bool Traced = Trace && NumTraced < NumUntraced;
    Reps.push_back(Traced ? runRep(P, &Log, NumTraced == 0 ? &Blocks : nullptr)
                          : runRep(P, nullptr, nullptr));
    ++(Traced ? NumTraced : NumUntraced);
  }

  // Determinism guard: every simulated count of every rep, traced or not,
  // must equal the first rep's.
  for (const Rep &R : Reps) {
    if (R.E == Reps.front().E)
      continue;
    std::string Where = "the slowdown geomean";
    for (const auto &[Name, V] : Reps.front().E.Counts)
      if (R.E.get(Name) != V) {
        Where = Name + " (" + std::to_string(V) + " vs " +
                std::to_string(R.E.get(Name)) + ")";
        break;
      }
    std::fprintf(stderr,
                 "riobench: simulated results differ between reps of one "
                 "invocation%s: %s\n",
                 R.Traced ? " (a traced rep against an untraced one)" : "",
                 Where.c_str());
    return 3;
  }

  std::vector<const Rep *> Untraced, Traced;
  uint64_t Attempted = 0, Failed = 0;
  for (const Rep &R : Reps) {
    (R.Traced ? Traced : Untraced).push_back(&R);
    Attempted += R.E.get("runs");
    Failed += R.E.get("failed");
  }
  const Exact &E = Reps.front().E;
  // Host times at reference speed (see Speed.h).
  auto wallS = [](const Rep &R) {
    return R.Speed.correct(double(R.WallNs) / 1e9);
  };
  const double WallS = medianOf(Untraced, wallS);
  const double RawWallS =
      medianOf(Untraced, [](const Rep &R) { return double(R.WallNs) / 1e9; });
  const double Slowness =
      medianOf(Untraced, [](const Rep &R) { return R.Speed.slowness(); });

  std::vector<Metric> EndToEnd = {
      {"wall_s", WallS, "s"},
      {"setup_s", medianOf(Untraced,
                           [](const Rep &R) {
                             return R.Speed.correct(double(R.SetupNs) / 1e9);
                           }),
       "s"},
      {"sim_cycles", double(E.get("sim_cycles")), "cycles"},
      {"slowdown_geomean",
       std::exp(E.LogSlowdownSum / double(E.get("timed_runs"))), "ratio"},
      {"ok_share", 1.0 - ratio(Failed, Attempted), "ratio"},
      {"peak_rss_mb", peakRssMb(), "MB"},
      {"code_cache_bytes", double(E.get("code_cache_bytes")), "bytes"},
  };

  std::printf("riobench %s seed %llu: %u untraced + %u traced reps, "
              "%llu runs checked against native, %llu failed "
              "(fail_share %.6f)\n",
              WorkloadName.c_str(), (unsigned long long)Seed, NumUntraced,
              NumTraced, (unsigned long long)Attempted,
              (unsigned long long)Failed, ratio(Failed, Attempted));
  std::printf("programs (seeded scale):");
  for (const Job &J : P.Jobs)
    std::printf(" %s@%d", J.W->Name, J.Scale);
  std::printf("\n");
  printMetrics("end-to-end (untraced reps):", EndToEnd);
  std::printf("host slowness %.4f (reference kernel block %.0f ns, here "
              "%.0f ns): raw wall_s %.6f s\n",
              Slowness, Speedometer::RefBlockNs,
              Slowness * Speedometer::RefBlockNs, RawWallS);

  std::vector<Metric> PerLayer;
  if (Trace) {
    auto self = [&](const char *Span) {
      return medianOf(Traced, [&](const Rep &R) {
        auto It = R.SelfMs.find(Span);
        return It == R.SelfMs.end() ? 0.0 : It->second;
      });
    };
    auto count = [&](const char *Name) { return double(E.get(Name)); };
    const uint64_t SimCycles = E.get("sim_cycles");
    const uint64_t RtCycles = E.get("core.runtime_cycles");
    const uint64_t Published = E.get("core.sideline.published");
    const uint64_t IbHits = E.get("core.ibinline.hits");
    const double Tenants = count("persist.tenants");
    const CodeLayerTimes Code = timeCodeLayers(P, Blocks);
    const Rep &FirstTraced = *Traced.front();
    PerLayer = {
        {"vm.native_ns_per_instr",
         medianOf(Traced, [](const Rep &R) { return R.NativeNsPerInstr; }),
         "ns"},
        {"vm.instructions", count("vm.instructions"), "count"},
        {"vm.app_cycles", double(SimCycles - RtCycles), "cycles"},
        {"vm.cow_page_copies", count("vm.cow_page_copies"), "count"},
        {"asm.assemble_ms", self("asm.assemble"), "ms"},
        {"core.run_ms", self("core.run"), "ms"},
        {"core.host_overhead_ms", medianOf(Traced,
                                           [&](const Rep &R) {
                                             auto It = R.SelfMs.find("core.run");
                                             return It->second -
                                                    double(R.NativeNs) / 1e6;
                                           }),
         "ms"},
        {"core.runtime_cycles", double(RtCycles), "cycles"},
        {"core.runtime_cycle_share", ratio(RtCycles, SimCycles), "ratio"},
        {"core.dispatches", count("core.dispatches"), "count"},
        {"core.context_switches", count("core.context_switches"), "count"},
        {"core.ibl_lookups", count("core.ibl_lookups"), "count"},
        {"core.ibl_hit_ratio",
         ratio(E.get("core.ibl_hits"), E.get("core.ibl_lookups")), "ratio"},
        {"core.bbs_built", count("core.bbs_built"), "count"},
        {"core.traces_built", count("core.traces_built"), "count"},
        {"core.trace_blocks_per_trace",
         ratio(E.get("core.trace_blocks"), E.get("core.traces_built")),
         "ratio"},
        {"core.links_made", count("core.links_made"), "count"},
        {"core.fragments_deleted", count("core.fragments_deleted"), "count"},
        {"core.cache.evictions", count("core.cache.evictions"), "count"},
        {"core.cache.evicted_bytes", count("core.cache.evicted_bytes"),
         "bytes"},
        {"core.cache.flushes", count("core.cache.flushes"), "count"},
        {"core.cache.smc_invalidations",
         count("core.cache.smc_invalidations"), "count"},
        {"core.ibinline.rewrites", count("core.ibinline.rewrites"), "count"},
        {"core.ibinline.hit_ratio",
         ratio(IbHits, IbHits + E.get("core.ibinline.misses")), "ratio"},
        {"core.ibinline.chain_evictions",
         count("core.ibinline.chain_evictions"), "count"},
        {"core.sideline.published", double(Published), "count"},
        {"core.sideline.useful_ratio",
         ratio(Published, Published + E.get("core.sideline.stale_drops")),
         "ratio"},
        {"core.sideline.epochs", count("core.sideline.epochs"), "count"},
        {"core.traceopt.loads_removed", count("core.traceopt.loads_removed"),
         "count"},
        {"core.traceopt.consts_folded", count("core.traceopt.consts_folded"),
         "count"},
        {"core.traceopt.dead_stores", count("core.traceopt.dead_stores"),
         "count"},
        {"core.traceopt.incdec_reduced",
         count("core.traceopt.incdec_reduced"), "count"},
        {"core.traceopt.guards_emitted",
         count("core.traceopt.guards_emitted"), "count"},
        {"core.traceopt.guard_failures",
         count("core.traceopt.guard_failures"), "count"},
        {"core.traceopt.blacklisted", count("core.traceopt.blacklisted"),
         "count"},
        {"clients.hook_calls", double(FirstTraced.Hooks.Calls), "count"},
        {"clients.bb_hook_ms",
         medianOf(Traced,
                  [](const Rep &R) { return double(R.Hooks.BbNs) / 1e6; }),
         "ms"},
        {"clients.trace_hook_ms",
         medianOf(Traced,
                  [](const Rep &R) { return double(R.Hooks.TraceNs) / 1e6; }),
         "ms"},
        {"isa.decode_ns_per_instr", Code.DecodeNs, "ns"},
        {"isa.encode_ns_per_instr", Code.EncodeNs, "ns"},
        {"ir.lift_ns_per_instr", Code.LiftNs, "ns"},
        {"persist.save_ms", self("persist.save"), "ms"},
        {"persist.load_ms", self("persist.load"), "ms"},
        {"persist.image_bytes", count("persist.image_bytes"), "bytes"},
        {"persist.freeze_ms", self("persist.freeze"), "ms"},
        {"persist.spawn_ms_per_tenant",
         Tenants ? self("persist.spawn") / Tenants : 0.0, "ms"},
        {"persist.unshares", count("persist.unshares"), "count"},
        {"trace.overhead_share", medianOf(Traced, wallS) / WallS - 1.0,
         "ratio"},
        {"bench.host_slowness", Slowness, "ratio"},
        {"bench.raw_wall_s", RawWallS, "s"},
    };
    printMetrics("per-layer (traced reps):", PerLayer);
    if (!SpansPath.empty() && !Log.writeChromeTrace(SpansPath))
      die("cannot write spans to '" + SpansPath + "'");
  }

  const std::vector<Metric> &Out = Trace ? PerLayer : EndToEnd;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              Failed == 0 ? "true" : "false", (unsigned long long)Attempted,
              (unsigned long long)Failed);
  for (size_t I = 0; I != Out.size(); ++I)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                I ? ", " : "", Out[I].Name.c_str(), Out[I].Value,
                Out[I].Unit);
  std::printf("}}\n");
  return 0;
}
