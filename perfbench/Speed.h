//===- perfbench/Speed.h - Host speed measured beside the timed work -------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// On a shared host the same code runs up to half again slower while other
/// tenants load the caches and cores, for minutes at a time, so a median
/// over one run's reps still moves with the machine. The benchmark
/// therefore measures the host's speed beside the work it times: after each
/// timed stretch it runs a fixed reference kernel (a switch-dispatched
/// bytecode loop over a 64 KB table that calls through 4096 distinct
/// functions (about 200 KB of code), so it leans on the branch predictor, the caches and the
/// instruction cache as an interpreter does) for a fixed share of that
/// stretch, outside every timed interval. The kernel lives in the
/// benchmark, not in the runtime, so no change to the runtime moves it.
///
/// slowness() is the kernel's measured time over its time on the reference
/// host. The runtime suffers more from the same contention than the kernel
/// does, by an amount that changes with the kind of contention. On a 4-vCPU
/// Xeon VM, regressing log rep time on log slowness over 36-72 reps of each
/// workload gave slopes of 1.0 to 1.6 (the kernel's own noise flattens
/// them); across whole runs of one workload, the power that best steadied
/// the medians ranged from 1 to 2 between hours. correct() divides a host
/// time by slowness() to the power 1.5, which cut the spread of medians
/// over consecutive eighths of the reps from 0.22-0.40 of their median to
/// 0.03-0.17, and reports the time at the reference host's speed.
///
//===----------------------------------------------------------------------===//

#ifndef RIOBENCH_SPEED_H
#define RIOBENCH_SPEED_H

#include <cmath>
#include <cstdint>

namespace riobench {

class Speedometer {
public:
  /// Host ns of one kernel block on the reference host: about the fastest
  /// block measured on a 2.0 GHz Xeon vCPU of a shared VM.
  static constexpr double RefBlockNs = 18000.0;
  /// Kernel time run per host ns timed, at reference speed.
  static constexpr double Share = 0.08;

  /// Runs the kernel for about Share of \p TimedNs, in batches: time too
  /// short for a batch carries over to the next call.
  void pace(int64_t TimedNs);
  /// Measured kernel time over its reference time (1 when nothing ran).
  double slowness() const {
    return Blocks ? double(Ns) / (double(Blocks) * RefBlockNs) : 1.0;
  }
  /// \p HostS at the reference host's speed (see the file comment).
  double correct(double HostS) const {
    return HostS / std::pow(slowness(), 1.5);
  }

private:
  double Credit = 0; ///< blocks owed
  uint64_t Blocks = 0;
  int64_t Ns = 0;
};

} // namespace riobench

#endif // RIOBENCH_SPEED_H
