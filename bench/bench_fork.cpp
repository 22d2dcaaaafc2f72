//===- bench/bench_fork.cpp - Copy-on-write warm tenant spawn ----------------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures what copy-on-write forking buys when serving N tenants from one
/// warmed template: each workload warms a template runtime to steady state,
/// freezes it, and spawns a fleet of 32 tenants (a Machine fork plus a
/// Runtime::forkFrom each), all alive simultaneously. The bench hard-asserts
/// the subsystem's contract on the simulated clock:
///
///   * every tenant's run is bit-identical (cycles and output) to a cold
///     single-tenant runtime's steady-state run — forking is architecturally
///     invisible;
///   * tenants born from a steady-state template never unshare the code
///     cache (fork_cache_unshares stays 0), so their pages stay loaned.
///
/// Host-side costs are reported and warned on, never gated (wall clock and
/// RSS are machine-dependent): spawning the 32-tenant fleet should cost
/// under 10% of 32 cold warm-ups, and each tenant's incremental resident
/// memory should stay under 5% of a flat (pre-CoW, eagerly allocated)
/// machine image. bench_compare.py gates the simulated cycles and counts
/// bit-exact and only warns on the host-side columns.
///
//===----------------------------------------------------------------------===//

#include "BenchJson.h"
#include "core/Runtime.h"
#include "core/ThreadedRunner.h"
#include "harness/Experiment.h"
#include "support/OutStream.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <unistd.h>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

using namespace rio;

namespace {

constexpr unsigned NumTenants = 32;

struct Sample {
  std::string Config;      ///< workload name
  uint64_t Cycles;         ///< simulated steady-state cycles/tenant — gated
  uint64_t CyclesWarmup;   ///< simulated cycles of the cold first run
  uint64_t CowPages;       ///< pages a tenant privatized — gated
  uint64_t Unshares;       ///< fork_cache_unshares summed over the fleet
  uint64_t SpawnNs;        ///< host ns to fork the whole fleet, warn-only
  uint64_t ColdNs;         ///< host ns for NumTenants cold warm-ups, warn-only
  uint64_t RssPerTenantKb; ///< resident KB each live tenant added, warn-only
  uint64_t ColdRssKb;      ///< resident KB one cold Machine+Runtime holds
};

uint64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Current resident set in KB (/proc/self/statm field 2). Current rather
/// than peak: the fleet stays alive across the measurement, so its pages
/// are resident when read, and two phases can be measured in one process.
uint64_t rssKb() {
  std::FILE *F = std::fopen("/proc/self/statm", "r");
  if (!F)
    return 0;
  long Total = 0, Resident = 0;
  int Got = std::fscanf(F, "%ld %ld", &Total, &Resident);
  std::fclose(F);
  if (Got != 2)
    return 0;
  return uint64_t(Resident) * uint64_t(sysconf(_SC_PAGESIZE)) / 1024;
}

/// Returns freed heap pages to the kernel so the next phase's RSS delta
/// measures its own allocations, not reuse of a previous phase's.
void trimHeap() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

void die(const std::string &Msg) {
  errs().printf("bench_fork: %s\n", Msg.c_str());
  std::abort();
}

/// One warmed Machine+Runtime pair, kept alive for footprint accounting.
struct ColdInstance {
  std::unique_ptr<Machine> M;
  std::unique_ptr<Runtime> RT;
};

ColdInstance coldWarmup(const std::string &Name, const Program &Prog,
                        const RuntimeConfig &Config) {
  ColdInstance C;
  C.M = std::make_unique<Machine>();
  if (!loadProgram(*C.M, Prog))
    die(Name + ": program too large");
  C.RT = std::make_unique<Runtime>(*C.M, Config);
  if (C.RT->run().Status != RunStatus::Exited)
    die(Name + ": cold run did not exit");
  return C;
}

Sample measure(const std::string &Name, const Program &Prog) {
  RuntimeConfig Config = RuntimeConfig::full();
  Sample Out{Name, 0, 0, 0, 0, 0, 0, 0, 0};

  // Cold steady-state reference: warm up with two runs (the second settles
  // trace heads and IB links), then measure the third. Its cycle delta and
  // output are the bar every tenant must hit exactly.
  Machine RefM;
  if (!loadProgram(RefM, Prog))
    die(Name + ": program too large");
  Runtime RefRT(RefM, Config);
  uint64_t C0 = RefM.cycles();
  if (RefRT.run().Status != RunStatus::Exited)
    die(Name + ": reference run 1 did not exit");
  Out.CyclesWarmup = RefM.cycles() - C0;
  for (int Run = 2; Run <= 3; ++Run) {
    RefM.resetForRun();
    RefRT.resetThreadForRun();
    C0 = RefM.cycles();
    if (RefRT.run().Status != RunStatus::Exited)
      die(Name + ": reference run did not exit");
  }
  const uint64_t SteadyCycles = RefM.cycles() - C0;
  const std::string SteadyOutput = RefM.output();
  Out.Cycles = SteadyCycles;

  // Template: same two-run warm-up, then freeze. Tenants forked from it
  // start exactly where the reference's third run started.
  Machine TemplateM;
  if (!loadProgram(TemplateM, Prog))
    die(Name + ": program too large");
  Runtime Template(TemplateM, Config);
  for (int Run = 1; Run <= 2; ++Run) {
    if (Template.run().Status != RunStatus::Exited)
      die(Name + ": template warm-up did not exit");
    TemplateM.resetForRun();
    Template.resetThreadForRun();
  }
  std::string Err;
  if (!Template.freezeTemplate(&Err))
    die(Name + ": freeze refused: " + Err);

  // Cold fleet first: what serving the same NumTenants costs without
  // forking. Kept alive together while measured, so its resident growth is
  // the real per-instance footprint; freed and trimmed afterwards so the
  // tenant fleet's growth below is fresh pages, not recycled cold ones.
  {
    const uint64_t RssBeforeCold = rssKb();
    std::vector<ColdInstance> ColdFleet;
    ColdFleet.reserve(NumTenants);
    uint64_t TCold = nowNs();
    for (unsigned I = 0; I != NumTenants; ++I)
      ColdFleet.push_back(coldWarmup(Name, Prog, Config));
    Out.ColdNs = nowNs() - TCold;
    const uint64_t RssAfterCold = rssKb();
    Out.ColdRssKb = RssAfterCold > RssBeforeCold
                        ? (RssAfterCold - RssBeforeCold) / NumTenants
                        : 0;
  }
  trimHeap();

  // Fork the fleet — the whole point: NumTenants warmed tenants for the
  // price of page-table copies.
  const uint64_t RssBeforeFleet = rssKb();
  uint64_t T0 = nowNs();
  TenantFleet Fleet;
  if (!Fleet.spawn(Template, TemplateM, NumTenants, &Err))
    die(Name + ": fleet spawn failed: " + Err);
  Out.SpawnNs = nowNs() - T0;

  for (unsigned I = 0; I != NumTenants; ++I) {
    TenantFleet::Tenant &T = Fleet[I];
    uint64_t TC0 = T.M->cycles();
    if (T.RT->run().Status != RunStatus::Exited)
      die(Name + ": tenant " + std::to_string(I) + " did not exit");
    uint64_t Delta = T.M->cycles() - TC0;
    if (Delta != SteadyCycles)
      die(Name + ": tenant " + std::to_string(I) + " cycles " +
          std::to_string(Delta) + " != cold steady-state " +
          std::to_string(SteadyCycles));
    if (T.M->output() != SteadyOutput)
      die(Name + ": tenant " + std::to_string(I) + " output diverged");
    uint64_t Pages = T.M->mem().cowPageCopies();
    if (Pages > Out.CowPages)
      Out.CowPages = Pages;
    Out.Unshares += T.RT->stats().get("fork_cache_unshares");
  }
  if (Out.Unshares != 0)
    die(Name + ": steady-state tenants unshared the cache " +
        std::to_string(Out.Unshares) + " time(s)");
  const uint64_t RssAfterFleet = rssKb();
  Out.RssPerTenantKb = RssAfterFleet > RssBeforeFleet
                           ? (RssAfterFleet - RssBeforeFleet) / NumTenants
                           : 0;
  Fleet.clear();
  trimHeap();
  return Out;
}

} // namespace

int main(int Argc, char **Argv) {
  const char *OutPath = Argc > 1 ? Argv[1] : "BENCH_fork.json";
  OutStream &OS = outs();
  OS.printf("Copy-on-write forking: %u warmed tenants from one template\n",
            NumTenants);
  OS.printf("per-tenant simulated cycles are exact and must equal a cold "
            "steady-state run\n\n");
  OS.printf("%-10s %12s %12s %5s %12s %12s %8s %8s\n", "config",
            "cycles/tenant", "warmup_cyc", "pages", "spawn_ns", "cold_ns",
            "rss_kb", "cold_kb");

  std::vector<BenchRow> Rows;
  bool HostWarned = false;
  for (const char *Name : {"crafty", "vpr", "gap"}) {
    const Workload *W = findWorkload(Name);
    if (!W)
      die(std::string("unknown workload ") + Name);
    Sample S = measure(Name, buildWorkload(*W, 0));
    OS.printf("%-10s %12llu %12llu %5llu %12llu %12llu %8llu %8llu\n",
              S.Config.c_str(), (unsigned long long)S.Cycles,
              (unsigned long long)S.CyclesWarmup,
              (unsigned long long)S.CowPages, (unsigned long long)S.SpawnNs,
              (unsigned long long)S.ColdNs,
              (unsigned long long)S.RssPerTenantKb,
              (unsigned long long)S.ColdRssKb);

    // Host-side claims: warn (never fail) — wall clock and RSS depend on
    // the machine, the allocator, and what ran before.
    if (S.SpawnNs * 10 >= S.ColdNs) {
      OS.printf("WARNING: %s: spawning the fleet cost %llu ns, not under "
                "10%% of %llu ns of cold warm-ups\n",
                S.Config.c_str(), (unsigned long long)S.SpawnNs,
                (unsigned long long)S.ColdNs);
      HostWarned = true;
    }
    // The footprint bar is what a cold Machine held before copy-on-write
    // paging: the whole image, eagerly allocated. (The measured cold-fleet
    // RSS is reported alongside but is smaller than that — cold instances
    // are themselves CoW images now, materializing only written pages.)
    const MachineConfig MC;
    const uint64_t FlatKb =
        (uint64_t(MC.AppRegionSize) + MC.RuntimeRegionSize) / 1024;
    if (S.RssPerTenantKb * 20 >= FlatKb) {
      OS.printf("WARNING: %s: each tenant held %llu KB resident, not under "
                "5%% of a flat %llu KB machine image\n",
                S.Config.c_str(), (unsigned long long)S.RssPerTenantKb,
                (unsigned long long)FlatKb);
      HostWarned = true;
    }
    Rows.push_back({S.Config,
                    {{"cycles", S.Cycles},
                     {"cycles_warmup", S.CyclesWarmup},
                     {"cow_pages", S.CowPages},
                     {"unshares", S.Unshares},
                     {"tenants", NumTenants}},
                    {{"spawn_ns", S.SpawnNs},
                     {"cold_ns", S.ColdNs},
                     {"rss_per_tenant_kb", S.RssPerTenantKb},
                     {"cold_rss_kb", S.ColdRssKb}}});
  }
  if (!HostWarned)
    OS.printf("\nhost-side: fleet spawn under 10%% of cold warm-up time, "
              "tenant RSS under 5%% of a flat machine image\n");

  return writeBenchJson(OutPath, Rows) ? 0 : 1;
}
