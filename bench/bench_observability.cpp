//===- bench/bench_observability.cpp - Tracing overhead on/idle/recording ----===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures what the observability layer costs in its three states:
///
///   * off       — no sink attached (Config.Trace == nullptr); every
///                 RIO_TRACE site is one predictable null-check branch.
///   * idle      — an EventTrace is attached but setEnabled(false); sites
///                 take the same single branch, nothing is recorded.
///   * recording — tracing enabled AND a cycle-sampling profiler attached;
///                 the full event stream and sample set are produced.
///   * metrics   — a MetricsRegistry is attached and the run is driven in
///                 runFor slices with a snapshot taken at each boundary,
///                 exactly how `riodyn -metrics-interval` drives a run. The
///                 per-snapshot host cost is measured and reported.
///
/// The layer is purely host-side by construction: no instrumentation path
/// ever charges simulated cycles. So the bench *hard-asserts* that the
/// simulated cycle count is bit-identical across all four states — a much
/// stronger property than the "<1% disabled overhead" requirement, and one
/// that makes this JSON exactly diffable across commits. Wall-clock time
/// per state and snapshot cost are reported informationally
/// (host-dependent, not gated).
///
//===----------------------------------------------------------------------===//

#include "BenchJson.h"
#include "harness/Experiment.h"
#include "support/EventTrace.h"
#include "support/Metrics.h"
#include "support/OutStream.h"
#include "support/Profile.h"

#include <chrono>
#include <string>
#include <vector>

using namespace rio;

namespace {

struct Sample {
  std::string Config;  ///< e.g. "crafty_recording"
  uint64_t Cycles;     ///< simulated — identical across modes by design
  uint64_t Events;     ///< events recorded (0 unless recording)
  uint64_t Samples;    ///< profiler samples taken (0 unless recording)
  uint64_t WallNs;     ///< best-of-3 host wall clock, informational
  uint64_t Snapshots;  ///< registry snapshots taken (0 unless metrics)
  uint64_t SnapshotNs; ///< best-of-3 host ns spent inside snapshot()
};

uint64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The metrics state: registry attached, run driven in runFor slices with
/// a snapshot per boundary (the `riodyn -metrics-interval` loop). Returns
/// the simulated cycle count; the snapshot count and the host ns spent
/// inside snapshot() go to the out-params.
uint64_t runMetered(const Program &Prog, const RuntimeConfig &Config,
                    uint64_t &Snapshots, uint64_t &SnapshotNs) {
  Machine M;
  if (!loadProgram(M, Prog)) {
    errs().printf("metrics rep: program failed to load\n");
    std::abort();
  }
  Runtime RT(M, Config);
  MetricsRegistry Reg;
  RT.registerMetrics(Reg, "main");
  Snapshots = 0;
  SnapshotNs = 0;
  RunResult R;
  do {
    R = RT.runFor(65536);
    uint64_t T0 = nowNs();
    MetricSnapshot Snap = Reg.snapshot();
    SnapshotNs += nowNs() - T0;
    ++Snapshots;
    (void)Snap;
  } while (R.QuantumExpired);
  if (R.Status != RunStatus::Exited) {
    errs().printf("metrics rep: run did not exit cleanly\n");
    std::abort();
  }
  return M.cycles();
}

/// One workload in one observability state, best-of-\p Reps wall clock.
Sample measure(const Workload &W, const char *Mode, int Reps) {
  Program Prog = buildWorkload(W, 0);
  Sample Out{std::string(W.Name) + "_" + Mode, 0, 0, 0, ~0ull, 0, ~0ull};
  for (int Rep = 0; Rep != Reps; ++Rep) {
    // Fresh sinks per rep so event/sample counts are per-run, not summed.
    EventTrace Trace;
    SampleProfile Profiler(1000);
    RuntimeConfig Config = RuntimeConfig::full();
    if (Mode[0] == 'm') { // metrics: registry + snapshot-per-slice driver
      uint64_t Snapshots = 0, SnapshotNs = 0;
      uint64_t Start = nowNs();
      Out.Cycles = runMetered(Prog, Config, Snapshots, SnapshotNs);
      uint64_t Wall = nowNs() - Start;
      Out.Snapshots = Snapshots;
      if (SnapshotNs < Out.SnapshotNs)
        Out.SnapshotNs = SnapshotNs;
      if (Wall < Out.WallNs)
        Out.WallNs = Wall;
      continue;
    }
    if (Mode[0] != 'o') { // idle or recording: sink attached
      Config.Trace = &Trace;
      Trace.setEnabled(Mode[0] == 'r');
      if (Mode[0] == 'r')
        Config.Profiler = &Profiler;
    }
    uint64_t Start = nowNs();
    Outcome O = runUnderRuntime(Prog, Config, ClientKind::None);
    uint64_t Wall = nowNs() - Start;
    if (O.Status != RunStatus::Exited) {
      errs().printf("%s: run did not exit cleanly\n", Out.Config.c_str());
      std::abort();
    }
    Out.Cycles = O.Cycles;
    Out.Events = Trace.totalRecorded();
    Out.Samples = Profiler.totalSamples();
    if (Wall < Out.WallNs)
      Out.WallNs = Wall;
  }
  if (Out.SnapshotNs == ~0ull)
    Out.SnapshotNs = 0; // non-metrics modes take no snapshots
  return Out;
}

} // namespace

int main(int Argc, char **Argv) {
  const char *OutPath = Argc > 1 ? Argv[1] : "BENCH_observability.json";
  OutStream &OS = outs();
  OS.printf("Observability overhead: off vs idle vs recording vs metrics\n");
  OS.printf("simulated cycles must be IDENTICAL in all four states\n\n");
  OS.printf("%-20s %12s %10s %9s %12s %10s %12s\n", "config", "cycles",
            "events", "samples", "wall_ns", "snapshots", "snapshot_ns");

  const char *Workloads[] = {"crafty", "vpr", "gap"};
  const char *Modes[] = {"off", "idle", "recording", "metrics"};
  std::vector<BenchRow> Rows;
  bool CyclesIdentical = true;
  for (const char *Name : Workloads) {
    const Workload *W = findWorkload(Name);
    if (!W) {
      OS.printf("unknown workload '%s'\n", Name);
      return 1;
    }
    uint64_t OffCycles = 0;
    for (const char *Mode : Modes) {
      Sample S = measure(*W, Mode, 3);
      OS.printf("%-20s %12llu %10llu %9llu %12llu %10llu %12llu\n",
                S.Config.c_str(), (unsigned long long)S.Cycles,
                (unsigned long long)S.Events, (unsigned long long)S.Samples,
                (unsigned long long)S.WallNs, (unsigned long long)S.Snapshots,
                (unsigned long long)S.SnapshotNs);
      if (Mode[0] == 'o')
        OffCycles = S.Cycles;
      else if (S.Cycles != OffCycles)
        CyclesIdentical = false;
      Rows.push_back({S.Config,
                      {{"cycles", S.Cycles},
                       {"events", S.Events},
                       {"samples", S.Samples},
                       {"snapshots", S.Snapshots}},
                      {{"snapshot_ns", S.SnapshotNs}}});
    }
  }

  OS.printf("\n");
  if (!writeBenchJson(OutPath, Rows))
    return 1;
  if (!CyclesIdentical) {
    OS.printf("ERROR: simulated cycles drifted between observability "
              "states — instrumentation leaked into the simulated clock\n");
    return 1;
  }
  OS.printf("\nSimulated cycles are bit-identical across "
            "off/idle/recording/metrics:\nthe observability layer is "
            "invisible to the simulated machine, so the\ndisabled-tracing "
            "overhead gate (<1%% cycles) holds at exactly 0%%.\n");
  return 0;
}
