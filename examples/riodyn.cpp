//===- examples/riodyn.cpp - The command-line driver ---------------------------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `riodyn` command-line tool: run any workload or RIO-32 assembly
/// file natively or under the runtime, choosing configuration and clients
/// — the reproduction's analogue of the DynamoRIO launcher.
///
///   riodyn [options] <workload-name | file.s>
///     -native                run without the runtime
///     -config <emulate|bbcache|linkdirect|linkindirect|full>
///     -client <none|null|inscount|rlr|inc2add|ibdispatch|customtraces|
///              shepherd|all4>
///     -threads               use the multi-thread scheduler
///     -shared                one shared code cache for all threads
///                            (default: thread-private caches)
///     -sideline              defer trace optimization to the sideline: each
///                            transform runs at its publication point, kept
///                            deterministic by a seeded virtual-completion
///                            schedule
///     -sideline-async        synonym for -sideline
///     -sideline-seed <n>     seed for the sideline's completion schedule
///     -stats                 print runtime statistics
///     -trace <file>          record runtime events; write Chrome trace JSON
///     -profile               cycle-sampled profile, printed after the run
///     -sample-interval <n>   simulated cycles between samples (default 1000)
///     -disas <symbol>        disassemble the fragment at a program symbol
///     -scale <n>             workload scale override
///     -cache-load <file>     warm-start from a .riocache image (falls back
///                            to cold start if the image doesn't validate)
///     -cache-save <file>     serialize the warmed caches after the run
///                            (both need the single-runtime cache mode:
///                            not -native or -threads; composes with
///                            -sideline when the client is persist-safe —
///                            only published fragment versions serialize)
///     -tenants <n>           after the run warms the caches, freeze the
///                            runtime as a template and serve n forked
///                            tenants from it, each on a copy-on-write
///                            machine fork (composes with -cache-load;
///                            refuses -cache-save, -sideline, -native,
///                            -threads, and clients)
///     -metrics <file>        telemetry snapshots: Prometheus exposition to
///                            <file>, the JSON export next to it
///     -metrics-interval <n>  rewrite the -metrics files every n simulated
///                            cycles during the run (default: end only)
///     -flight-record <file>  post-mortem JSON dump on faults and budget
///                            overruns (events + snapshot + profile)
///     -budget <n>            abort (exit 124) once the run exceeds n
///                            simulated instructions
///     -help                  list every flag
///
//===----------------------------------------------------------------------===//

#include "api/dr_api.h"
#include "asm/Disasm.h"
#include "core/Sideline.h"
#include "core/ThreadedRunner.h"
#include "core/TraceOpt.h"
#include "harness/Experiment.h"
#include "support/EventTrace.h"
#include "support/Metrics.h"
#include "support/OutStream.h"
#include "support/Profile.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

using namespace rio;

namespace {

bool readFile(const char *Path, std::string &Out) {
  std::FILE *F = std::fopen(Path, "rb");
  if (!F)
    return false;
  char Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Out.append(Buf, N);
  std::fclose(F);
  return true;
}

/// A -tenants count above this is a typo, not a serving plan: each tenant
/// is a full (CoW) machine and runtime, and the driver runs them in turn.
constexpr int MaxTenants = 1024;

void printHelp() {
  OutStream &OS = outs();
  OS.printf(
      "usage: riodyn [options] <workload-name | file.s>\n"
      "\n"
      "execution:\n"
      "  -native                run without the runtime (native baseline)\n"
      "  -config <name>         emulate|bbcache|linkdirect|linkindirect|full "
      "(default full)\n"
      "  -client <name>         none|null|inscount|rlr|inc2add|ibdispatch|"
      "customtraces|shepherd|all4\n"
      "  -threads               use the multi-thread scheduler\n"
      "  -shared                one shared code cache for all threads "
      "(implies -threads)\n"
      "  -sideline              defer trace optimization to the sideline's "
      "publication points\n"
      "  -sideline-async        synonym for -sideline\n"
      "  -sideline-seed <n>     seed for the sideline's completion schedule\n"
      "  -traceopt[=p,...]      trace optimizer on trace bodies; pass list\n"
      "                         from loads,consts,dse,strength (default "
      "all)\n"
      "  -traceopt-speculate    guard-based value speculation with deopt "
      "bail-out\n"
      "                         (implies -traceopt; needs -sideline)\n"
      "  -ib-inline             adaptive indirect-branch inline caches\n"
      "  -scale <n>             workload scale override\n"
      "  -budget <n>            abort (exit 124) past n simulated "
      "instructions\n"
      "\n"
      "persistence and forking:\n"
      "  -cache-load <file>     warm-start from a .riocache image\n"
      "  -cache-save <file>     serialize the warmed caches after the run\n"
      "  -tenants <n>           serve 1..%d copy-on-write forked tenants "
      "from one warmed\n"
      "                         template (not with -cache-save, -sideline, "
      "-native,\n"
      "                         -threads, or -client)\n"
      "\n"
      "observability:\n"
      "  -stats                 print runtime statistics after the run\n"
      "  -trace <file>          record runtime events; write Chrome trace "
      "JSON\n"
      "  -profile               cycle-sampled profile, printed after the "
      "run\n"
      "  -sample-interval <n>   simulated cycles between samples (default "
      "1000)\n"
      "  -metrics <file>        telemetry snapshots: Prometheus text to "
      "<file>, JSON beside it\n"
      "  -metrics-interval <n>  rewrite the -metrics files every n "
      "simulated cycles\n"
      "  -flight-record <file>  post-mortem JSON dump on faults and budget "
      "overruns\n"
      "\n"
      "inspection:\n"
      "  -disas <symbol>        disassemble the fragment at a program "
      "symbol\n"
      "  -dump-asm              print the workload's assembly source and "
      "exit\n"
      "  -help                  print this listing and exit\n"
      "\n"
      "workloads:",
      MaxTenants);
  for (const Workload &W : allWorkloads())
    OS.printf(" %s", W.Name);
  OS.printf("\n");
}

int usage() {
  printHelp();
  return 1;
}

} // namespace

int main(int argc, char **argv) {
  OutStream &OS = outs();
  bool Native = false, Threads = false, Shared = false, UseSideline = false,
       Stats = false;
  uint64_t SidelineSeed = 0x5eed51deull;
  bool DumpAsm = false, Profile = false, IbInline = false;
  bool TraceOpt = false, TraceOptSpeculate = false;
  TraceOptOptions TraceOptOpts;
  std::string ConfigName = "full", ClientName = "none", Target, DisasSym,
              TraceFile, CacheLoadFile, CacheSaveFile, MetricsFile,
              FlightRecordFile;
  uint64_t SampleInterval = 1000;
  uint64_t MetricsInterval = 0;
  uint64_t Budget = 0;
  int Scale = 0;
  int Tenants = 0;
  bool TenantsGiven = false;

  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg == "-help" || Arg == "-h" || Arg == "--help") {
      printHelp();
      return 0;
    } else if (Arg == "-native")
      Native = true;
    else if (Arg == "-threads")
      Threads = true;
    else if (Arg == "-shared")
      Threads = Shared = true;
    else if (Arg == "-sideline" || Arg == "-sideline-async")
      UseSideline = true;
    else if (Arg == "-sideline-seed" && I + 1 < argc)
      SidelineSeed = std::strtoull(argv[++I], nullptr, 0);
    else if (Arg.rfind("-sideline-seed=", 0) == 0)
      SidelineSeed = std::strtoull(Arg.c_str() + 15, nullptr, 0);
    else if (Arg == "-traceopt")
      TraceOpt = true;
    else if (Arg == "-traceopt-speculate")
      TraceOpt = TraceOptSpeculate = true;
    else if (Arg.rfind("-traceopt=", 0) == 0) {
      TraceOpt = true;
      TraceOptOpts.RemoveLoads = TraceOptOpts.FoldConsts = false;
      TraceOptOpts.EliminateDeadStores = TraceOptOpts.StrengthReduce = false;
      std::string List = Arg.substr(10), Pass;
      for (size_t Pos = 0; Pos <= List.size();) {
        size_t Comma = List.find(',', Pos);
        if (Comma == std::string::npos)
          Comma = List.size();
        Pass = List.substr(Pos, Comma - Pos);
        if (Pass == "loads")
          TraceOptOpts.RemoveLoads = true;
        else if (Pass == "consts")
          TraceOptOpts.FoldConsts = true;
        else if (Pass == "dse")
          TraceOptOpts.EliminateDeadStores = true;
        else if (Pass == "strength")
          TraceOptOpts.StrengthReduce = true;
        else {
          OS.printf("error: unknown -traceopt pass '%s' (want "
                    "loads,consts,dse,strength)\n\n",
                    Pass.c_str());
          return usage();
        }
        Pos = Comma + 1;
      }
    }
    else if (Arg == "-stats")
      Stats = true;
    else if (Arg == "-dump-asm")
      DumpAsm = true;
    else if (Arg == "-config" && I + 1 < argc)
      ConfigName = argv[++I];
    else if (Arg == "-client" && I + 1 < argc)
      ClientName = argv[++I];
    else if (Arg == "-scale" && I + 1 < argc)
      Scale = std::atoi(argv[++I]);
    else if (Arg == "-disas" && I + 1 < argc)
      DisasSym = argv[++I];
    else if (Arg == "-trace" && I + 1 < argc)
      TraceFile = argv[++I];
    else if (Arg.rfind("-trace=", 0) == 0)
      TraceFile = Arg.substr(7);
    else if (Arg == "-profile")
      Profile = true;
    else if (Arg == "-ib-inline")
      IbInline = true;
    else if (Arg == "-sample-interval" && I + 1 < argc)
      SampleInterval = std::strtoull(argv[++I], nullptr, 0);
    else if (Arg.rfind("-sample-interval=", 0) == 0)
      SampleInterval = std::strtoull(Arg.c_str() + 17, nullptr, 0);
    else if (Arg == "-cache-load" && I + 1 < argc)
      CacheLoadFile = argv[++I];
    else if (Arg.rfind("-cache-load=", 0) == 0)
      CacheLoadFile = Arg.substr(12);
    else if (Arg == "-cache-save" && I + 1 < argc)
      CacheSaveFile = argv[++I];
    else if (Arg.rfind("-cache-save=", 0) == 0)
      CacheSaveFile = Arg.substr(12);
    else if (Arg == "-tenants" && I + 1 < argc) {
      Tenants = std::atoi(argv[++I]);
      TenantsGiven = true;
    } else if (Arg.rfind("-tenants=", 0) == 0) {
      Tenants = std::atoi(Arg.c_str() + 9);
      TenantsGiven = true;
    } else if (Arg == "-metrics" && I + 1 < argc)
      MetricsFile = argv[++I];
    else if (Arg.rfind("-metrics=", 0) == 0)
      MetricsFile = Arg.substr(9);
    else if (Arg == "-metrics-interval" && I + 1 < argc)
      MetricsInterval = std::strtoull(argv[++I], nullptr, 0);
    else if (Arg.rfind("-metrics-interval=", 0) == 0)
      MetricsInterval = std::strtoull(Arg.c_str() + 18, nullptr, 0);
    else if (Arg == "-flight-record" && I + 1 < argc)
      FlightRecordFile = argv[++I];
    else if (Arg.rfind("-flight-record=", 0) == 0)
      FlightRecordFile = Arg.substr(15);
    else if (Arg == "-budget" && I + 1 < argc)
      Budget = std::strtoull(argv[++I], nullptr, 0);
    else if (Arg.rfind("-budget=", 0) == 0)
      Budget = std::strtoull(Arg.c_str() + 8, nullptr, 0);
    else if (Arg[0] != '-')
      Target = Arg;
    else {
      OS.printf("error: unknown flag '%s'\n\n", Arg.c_str());
      return usage();
    }
  }
  if (Target.empty())
    return usage();

  // Speculation publishes through the sideline's reopt queue; without a
  // sideline there is no publication point to revalidate and guard at.
  if (TraceOptSpeculate && !UseSideline) {
    OS.printf("error: -traceopt-speculate needs -sideline\n");
    return usage();
  }
  if (TraceOpt && Native) {
    OS.printf("error: -traceopt has nothing to optimize under -native\n");
    return usage();
  }

  // -tenants wants the single-runtime cache mode with nothing that would
  // make the template unfreezable (a client, the sideline) or ambiguous
  // about which runtime to snapshot (-cache-save after N tenants ran).
  if (TenantsGiven) {
    if (Tenants < 1 || Tenants > MaxTenants) {
      OS.printf("error: -tenants wants a count between 1 and %d\n",
                MaxTenants);
      return usage();
    }
    if (!CacheSaveFile.empty() || UseSideline) {
      OS.printf("error: -tenants cannot be combined with -cache-save or "
                "-sideline\n");
      return usage();
    }
    if (Native || Threads) {
      OS.printf("error: -tenants needs the single-runtime cache mode "
                "(not -native or -threads)\n");
      return usage();
    }
    if (ClientName != "none") {
      OS.printf("error: -tenants cannot serve clients (a template with a "
                "client attached cannot be frozen)\n");
      return usage();
    }
  }

  // Build the program.
  Program Prog;
  if (const Workload *W = findWorkload(Target)) {
    if (DumpAsm) {
      OS << W->Source(Scale > 0 ? Scale : W->DefaultScale);
      return 0;
    }
    Prog = buildWorkload(*W, Scale);
  } else {
    std::string Source, Error;
    if (!readFile(Target.c_str(), Source)) {
      OS.printf("error: '%s' is neither a workload nor a readable file\n",
                Target.c_str());
      return 1;
    }
    if (!assemble(Source, Prog, Error)) {
      OS.printf("assembly error: %s\n", Error.c_str());
      return 1;
    }
  }

  // Resolve configuration.
  RuntimeConfig Config;
  if (ConfigName == "emulate")
    Config = RuntimeConfig::emulate();
  else if (ConfigName == "bbcache")
    Config = RuntimeConfig::bbCacheOnly();
  else if (ConfigName == "linkdirect")
    Config = RuntimeConfig::linkDirect();
  else if (ConfigName == "linkindirect")
    Config = RuntimeConfig::linkIndirect();
  else if (ConfigName == "full")
    Config = RuntimeConfig::full();
  else
    return usage();
  if (Shared)
    Config.Sharing = CacheSharing::Shared;
  if (IbInline)
    Config.IbInline = true;

  // Observability sinks: stack-owned, shared by every runtime the run
  // creates (the config is copied by value, the pointers ride along).
  EventTrace Trace;
  SampleProfile Profiler(SampleInterval ? SampleInterval : 1000);
  if (!TraceFile.empty())
    Config.Trace = &Trace;
  // The speculative tier of the trace optimizer feeds on the profiler's
  // trace-sample stream, so -traceopt-speculate activates sampling even
  // when the -profile report is not wanted.
  if (Profile || TraceOptSpeculate)
    Config.Profiler = &Profiler;

  // Resolve client.
  ShepherdingClient Shepherd;
  Client *ClientPtr = nullptr;
  std::unique_ptr<ClientBundle> Bundle;
  if (ClientName == "shepherd") {
    ClientPtr = &Shepherd;
  } else {
    ClientKind Map[] = {ClientKind::None,         ClientKind::Null,
                        ClientKind::Inscount,     ClientKind::Rlr,
                        ClientKind::StrengthReduce, ClientKind::IBDispatch,
                        ClientKind::CustomTraces, ClientKind::AllFour};
    const char *Names[] = {"none",       "null",    "inscount",
                           "rlr",        "inc2add", "ibdispatch",
                           "customtraces", "all4"};
    bool Found = false;
    for (size_t K = 0; K != std::size(Names); ++K)
      if (ClientName == Names[K]) {
        Bundle = std::make_unique<ClientBundle>(Map[K]);
        Found = true;
      }
    if (!Found)
      return usage();
    ClientPtr = Bundle->client();
  }

  // The trace optimizer wraps whichever client was chosen (the inner
  // client's hooks run first), so -traceopt composes with -client.
  TraceOptOpts.Speculate = TraceOptSpeculate;
  TraceOptClient TraceOptC(TraceOptOpts, ClientPtr);
  if (TraceOpt)
    ClientPtr = &TraceOptC;

  // Run.
  Machine M;
  if (!loadProgram(M, Prog)) {
    OS.printf("error: program too large for the application region\n");
    return 1;
  }

  // Persistent caches: restore before the first guest instruction; a
  // rejected image is a normal cold start, not an error.
  auto WarmStart = [&](Runtime &Target) {
    if (CacheLoadFile.empty())
      return;
    if (dr_cache_load(&Target, CacheLoadFile.c_str()))
      OS.printf("cache: warm start from '%s' (%llu fragments)\n",
                CacheLoadFile.c_str(),
                (unsigned long long)Target.numFragments());
    else
      OS.printf("cache: image '%s' rejected; cold start\n",
                CacheLoadFile.c_str());
  };

  // Production telemetry. One registry serves the whole invocation: the
  // runtime (labeled "main", or "template" when it will serve tenants),
  // later each forked tenant, and the sideline optimizer. Sources outlive
  // the last snapshot because every export below happens while they are
  // alive. Host-side only — attaching it changes no simulated cycle.
  MetricsRegistry Reg;
  std::string MetricsJsonFile;
  if (!MetricsFile.empty()) {
    MetricsJsonFile = MetricsFile;
    if (MetricsJsonFile.size() > 5 &&
        MetricsJsonFile.compare(MetricsJsonFile.size() - 5, 5, ".prom") == 0)
      MetricsJsonFile.resize(MetricsJsonFile.size() - 5);
    MetricsJsonFile += ".json";
  }
  // Writes one snapshot to both export files (same snapshot => the two
  // documents carry the same sequence number and values).
  auto WriteMetrics = [&]() -> bool {
    if (MetricsFile.empty())
      return true;
    MetricSnapshot Snap = Reg.snapshot();
    std::FILE *PF = std::fopen(MetricsFile.c_str(), "w");
    if (!PF) {
      OS.printf("error: cannot open metrics file '%s'\n", MetricsFile.c_str());
      return false;
    }
    FileOutStream PromOS(PF);
    writePrometheus(PromOS, Snap);
    std::fclose(PF);
    std::FILE *JF = std::fopen(MetricsJsonFile.c_str(), "w");
    if (!JF) {
      OS.printf("error: cannot open metrics file '%s'\n",
                MetricsJsonFile.c_str());
      return false;
    }
    FileOutStream JsonOS(JF);
    writeMetricsJson(JsonOS, Snap);
    std::fclose(JF);
    return true;
  };
  auto WriteFlight = [&](const char *Reason) {
    if (FlightRecordFile.empty())
      return;
    std::FILE *F = std::fopen(FlightRecordFile.c_str(), "w");
    if (!F) {
      OS.printf("error: cannot open flight-record file '%s'\n",
                FlightRecordFile.c_str());
      return;
    }
    FileOutStream FOS(F);
    writeFlightRecord(FOS, Reason, Reg.snapshot(), Config.Trace,
                      Config.Profiler);
    std::fclose(F);
    OS.printf("flight record: %s -> '%s'\n", Reason, FlightRecordFile.c_str());
  };

  // Drives a run in runFor slices only when something needs mid-run
  // control (periodic snapshots on the simulated clock, or the instruction
  // budget); otherwise the run is a single uninterrupted call.
  bool BudgetOverrun = false;
  auto DrivenRun = [&](Runtime &Target) -> RunResult {
    if (!MetricsInterval && !Budget)
      return Target.run();
    uint64_t NextSnap = Target.machine().cycles() + MetricsInterval;
    RunResult Res;
    for (;;) {
      uint64_t Step = 4096;
      if (Budget)
        Step = std::min(
            Step, Budget > Target.machine().instructionsExecuted()
                      ? Budget - Target.machine().instructionsExecuted()
                      : uint64_t(1));
      Res = Target.runFor(Step);
      if (MetricsInterval && Target.machine().cycles() >= NextSnap) {
        WriteMetrics();
        while (NextSnap <= Target.machine().cycles())
          NextSnap += MetricsInterval;
      }
      if (!Res.QuantumExpired)
        return Res;
      if (Budget && Target.machine().instructionsExecuted() >= Budget) {
        BudgetOverrun = true;
        return Res;
      }
    }
  };

  RunResult R;
  // Declared before RT so the runtime (whose config may point at the
  // sideline pump) is destroyed first.
  NullClient SidelineFallback;
  std::unique_ptr<SidelineOptimizer> Sideline;
  std::unique_ptr<Runtime> RT;
  // Function scope (not the -tenants block): tenant gauges registered in
  // Reg must stay readable for the final metrics write below.
  TenantFleet Fleet;
  if (Native) {
    R = runThreadedNative(M);
  } else if (Threads) {
    ThreadedRunner Runner(M, Config, ClientPtr);
    R = Runner.run();
  } else if (UseSideline) {
    Sideline = std::make_unique<SidelineOptimizer>(
        ClientPtr ? *ClientPtr : SidelineFallback, SidelineMode::Async,
        SidelineSeed);
    Config.SidelinePump = Sideline.get();
    RT = std::make_unique<Runtime>(M, Config, Sideline.get());
    // The cache codec serializes a runtime with a client attached only
    // when that client is persist-safe (pure transformations, no host
    // state the image cannot carry) — say so up front instead of printing
    // the generic cold-start fallback every run. Only published fragment
    // versions are in the table, so only they serialize.
    if ((!CacheLoadFile.empty() || !CacheSaveFile.empty()) &&
        !Sideline->persistSafe()) {
      OS.printf("cache: -cache-load/-cache-save need a persist-safe "
                "client under -sideline; ignored\n");
      CacheLoadFile.clear();
      CacheSaveFile.clear();
    }
    WarmStart(*RT);
    RT->registerMetrics(Reg, "main");
    Sideline->registerMetrics(Reg, Reg.addSource("sideline"));
    // Profile stream -> speculation: each trace sample updates the
    // optimizer's per-site value observations; a stable plan asks the
    // sideline for a re-optimization pass whose publication point emits
    // the guards.
    if (TraceOptSpeculate) {
      Runtime *RTP = RT.get();
      SidelineOptimizer *SP = Sideline.get();
      Profiler.setTraceSampleHook([RTP, SP, &TraceOptC](uint32_t Tag,
                                                        uint64_t Samples) {
        if (TraceOptC.observe(*RTP, Tag, Samples))
          SP->requestReopt(*RTP, Tag);
      });
    }
    R = runWithSideline(*RT, *Sideline);
  } else {
    RT = std::make_unique<Runtime>(M, Config, ClientPtr);
    WarmStart(*RT);
    RT->registerMetrics(Reg, TenantsGiven ? "template" : "main");
    R = DrivenRun(*RT);
    if (BudgetOverrun) {
      WriteFlight("budget_overrun");
      WriteMetrics();
      OS.printf("budget: exceeded %llu instructions (at %llu); aborting\n",
                (unsigned long long)Budget,
                (unsigned long long)M.instructionsExecuted());
      return 124;
    }
    if (TenantsGiven && R.Status == RunStatus::Exited) {
      // Serve N tenants from the warmed template: rewind the machine to
      // the program entry (memory, caches, and predictors stay warm),
      // freeze the runtime, then fork the whole fleet onto copy-on-write
      // machine forks and run each tenant. The fleet stays alive together
      // so the final metrics snapshot sees every tenant's section next to
      // the template's, and the rollup sums across all of them.
      M.resetForRun();
      RT->resetThreadForRun();
      std::string Err;
      if (!RT->freezeTemplate(&Err)) {
        OS.printf("tenants: cannot freeze the template: %s\n", Err.c_str());
        return 1;
      }
      OS.printf("tenants: template frozen (%llu fragments); serving %d\n",
                (unsigned long long)RT->numFragments(), Tenants);
      if (!Fleet.spawn(*RT, M, unsigned(Tenants), &Err)) {
        OS.printf("tenants: fork failed: %s\n", Err.c_str());
        return 1;
      }
      Fleet.registerMetrics(Reg);
      for (size_t T = 0; T != Fleet.size(); ++T) {
        RunResult TR = Fleet[T].RT->run();
        OS.printf("tenant %d: %s, %llu cycles, %llu page(s) copied, "
                  "cache %s\n",
                  int(T),
                  TR.Status == RunStatus::Exited
                      ? "exited"
                      : ("FAULTED: " + TR.FaultReason).c_str(),
                  (unsigned long long)TR.Cycles,
                  (unsigned long long)Fleet[T].M->mem().cowPageCopies(),
                  Fleet[T].RT->stats().get("fork_cache_unshares")
                      ? "unshared"
                      : "shared");
        if (TR.Status != RunStatus::Exited) {
          WriteFlight("tenant_fault");
          return 125;
        }
      }
    } else if (TenantsGiven) {
      OS.printf("tenants: template run did not exit cleanly; not forking\n");
    }
  }
  if (R.Status == RunStatus::Faulted)
    WriteFlight("fault");
  if (!RT && (!CacheLoadFile.empty() || !CacheSaveFile.empty()))
    OS.printf("cache: -cache-load/-cache-save need a single-runtime mode; "
              "ignored\n");
  if (!RT && (!MetricsFile.empty() || !FlightRecordFile.empty()))
    OS.printf("metrics: -metrics/-flight-record need a single-runtime mode; "
              "ignored\n");

  OS << M.output();
  OS.printf("--- %s, exit code %d, %llu instructions, %llu cycles ---\n",
            R.Status == RunStatus::Exited ? "exited"
            : R.Status == RunStatus::Faulted
                ? ("FAULTED: " + R.FaultReason).c_str()
                : "running",
            R.ExitCode, (unsigned long long)R.Instructions,
            (unsigned long long)R.Cycles);

  if (!CacheSaveFile.empty() && RT) {
    // The image holds the live fragments; numFragments() also counts the
    // retired records still awaiting reclaim.
    size_t Live = 0;
    RT->forEachFragment([&](const Fragment &) { ++Live; });
    if (dr_cache_save(RT.get(), CacheSaveFile.c_str()))
      OS.printf("cache: saved %llu fragments -> '%s'\n",
                (unsigned long long)Live, CacheSaveFile.c_str());
    else
      OS.printf("cache: save to '%s' failed\n", CacheSaveFile.c_str());
  }

  if (ClientName == "shepherd")
    OS.printf("shepherding: %llu transfers checked, %llu violations\n",
              (unsigned long long)Shepherd.transfersChecked(),
              (unsigned long long)Shepherd.violations());

  if (TraceOpt && RT) {
    const ValuePassStats &VS = TraceOptC.valueStats();
    OS.printf("traceopt: %llu traces optimized (%llu loads removed, "
              "%llu forwarded, %llu consts folded, %llu dead stores, "
              "%llu inc/dec reduced)\n",
              (unsigned long long)TraceOptC.tracesOptimized(),
              (unsigned long long)VS.LoadsRemoved,
              (unsigned long long)VS.LoadsForwarded,
              (unsigned long long)VS.ConstsFolded,
              (unsigned long long)VS.DeadStoresElided,
              (unsigned long long)TraceOptC.incDecReduced());
    if (TraceOptSpeculate)
      OS.printf("traceopt: %llu speculations, %llu guards emitted, "
                "%llu guard failures, %llu blacklisted\n",
                (unsigned long long)TraceOptC.speculationsApplied(),
                (unsigned long long)TraceOptC.guardsEmitted(),
                (unsigned long long)RT->stats().get(
                    "traceopt_guard_failures"),
                (unsigned long long)RT->traceoptBlacklist().size());
  }

  if (Stats && RT) {
    OS.printf("\nruntime statistics:\n");
    RT->stats().print(OS);
  }
  if (!MetricsFile.empty() && RT) {
    if (!WriteMetrics())
      return 1;
    OS.printf("metrics: snapshot %llu -> '%s' + '%s'\n",
              (unsigned long long)Reg.snapshotsTaken(), MetricsFile.c_str(),
              MetricsJsonFile.c_str());
  }
  if (!TraceFile.empty()) {
    std::FILE *F = std::fopen(TraceFile.c_str(), "wb");
    if (!F) {
      OS.printf("error: cannot open trace file '%s'\n", TraceFile.c_str());
      return 1;
    }
    FileOutStream TraceOS(F);
    writeChromeTrace(TraceOS, Trace);
    std::fclose(F);
    OS.printf("trace: %llu events recorded (%llu dropped) -> %s\n",
              (unsigned long long)Trace.totalRecorded(),
              (unsigned long long)Trace.droppedEvents(), TraceFile.c_str());
  }
  if (Profile) {
    OS.printf("\n");
    writeProfileReport(OS, Profiler);
  }
  if (!DisasSym.empty() && RT) {
    AppPc Tag = Prog.symbol(DisasSym);
    if (Fragment *Frag = RT->lookupFragment(Tag)) {
      OS.printf("\nfragment for %s (tag 0x%x, %s):\n", DisasSym.c_str(), Tag,
                Frag->isTrace() ? "trace" : "basic block");
      // Image pages are copy-on-write — no raw pointer to hand the
      // disassembler; copy the fragment bytes out first.
      std::vector<uint8_t> Body(Frag->CodeSize);
      M.mem().readBlock(Frag->CacheAddr, Body.data(), Frag->CodeSize);
      OS << disassembleRange(Body.data(), Body.size(), Frag->CacheAddr,
                             Frag->CacheAddr, Frag->CacheAddr + Frag->CodeSize);
    } else {
      OS.printf("\nno fragment for symbol '%s'\n", DisasSym.c_str());
    }
  }
  return R.Status == RunStatus::Exited ? R.ExitCode : 125;
}
