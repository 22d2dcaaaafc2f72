//===- core/ThreadedRunner.cpp - Multi-threaded application support ----------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//

#include "core/ThreadedRunner.h"

#include "support/Compiler.h"
#include "support/EventTrace.h"

#include <algorithm>

using namespace rio;

ThreadedRunner::ThreadedRunner(Machine &M, const RuntimeConfig &Config,
                               Client *SharedClient, uint64_t Quantum)
    : M(M), Config(Config), SharedClient(SharedClient),
      Quantum(Quantum ? Quantum : Config.ThreadQuantum) {}

ThreadedRunner::~ThreadedRunner() = default;

unsigned ThreadedRunner::maxThreads() const {
  // Every thread-private slice must hold the slot page (0x1000) plus two
  // minimally useful caches; 0x4000 per slice keeps a healthy margin above
  // the Runtime's own floor.
  constexpr uint32_t MinSliceBytes = 0x4000;
  unsigned Cap = std::max(1u, M.config().RuntimeRegionSize / MinSliceBytes);
  return std::min(std::max(Config.MaxThreads, 1u), Cap);
}

Runtime *ThreadedRunner::runtimeFor(unsigned Tid) {
  if (Config.Sharing == CacheSharing::Shared)
    return Tid < ThreadsSeen && !Runtimes.empty() ? Runtimes[0].get() : nullptr;
  return Tid < Runtimes.size() ? Runtimes[Tid].get() : nullptr;
}

Runtime &ThreadedRunner::runtimeForThread(unsigned Tid) {
  if (Finished.size() <= Tid)
    Finished.resize(Tid + 1, false);
  bool NewThread = Tid >= ThreadsSeen;
  if (NewThread)
    ThreadsSeen = Tid + 1;

  if (Config.Sharing == CacheSharing::Shared) {
    // One runtime over the whole region; thread identity is a context the
    // runtime swaps in (slot-window banking) rather than a region slice.
    if (Runtimes.empty()) {
      Runtimes.emplace_back(std::make_unique<Runtime>(
          M, Config, SharedClient, RuntimeRegion(), HookMode::None));
      if (SharedClient && !InitFired) {
        SharedClient->onInit(*Runtimes[0]);
        InitFired = true;
      }
    }
    Runtime &RT = *Runtimes[0];
    RT.activateThread(Tid);
    // Thread-init fires with the new thread's context active, so a client
    // writing its TLS slot writes this thread's banked window.
    if (NewThread && SharedClient)
      SharedClient->onThreadInit(RT);
    return RT;
  }

  if (Tid < Runtimes.size() && Runtimes[Tid])
    return *Runtimes[Tid];
  unsigned Max = maxThreads();
  assert(Tid < Max && "thread limit exceeded");
  (void)Max;
  // Thread-private region: a fixed 1/maxThreads() slice per thread, so a
  // lower configured limit stops wasting region on slices that can never
  // be used.
  uint32_t Slice = M.config().RuntimeRegionSize / maxThreads();
  RuntimeRegion Region;
  Region.Base = M.runtimeBase() + Tid * Slice;
  Region.Size = Slice;
  if (Runtimes.size() <= Tid)
    Runtimes.resize(Tid + 1);
  Runtimes[Tid] = std::make_unique<Runtime>(M, Config, SharedClient, Region,
                                            HookMode::None);
  // A private runtime has exactly one context; label it with the real
  // thread id so dr_get_thread_id (and event/sample attribution) answers
  // the same in both sharing modes.
  Runtimes[Tid]->labelActiveThread(Tid);
  if (SharedClient) {
    if (!InitFired) {
      SharedClient->onInit(*Runtimes[Tid]);
      InitFired = true;
    }
    SharedClient->onThreadInit(*Runtimes[Tid]);
  }
  return *Runtimes[Tid];
}

RunResult ThreadedRunner::run() {
  RunResult Last;
  runtimeForThread(0);
  while (M.status() == RunStatus::Running) {
    bool AnyAlive = false;
    for (unsigned Tid = 0; Tid != M.numThreads(); ++Tid) {
      if (!M.threadAlive(Tid))
        continue;
      if (Tid < Finished.size() && Finished[Tid])
        continue;
      AnyAlive = true;
      M.switchToThread(Tid);
      Runtime &RT = runtimeForThread(Tid);
      // One quantum-switch event per slice, from the scheduler's vantage
      // (context-bank swaps inside a shared runtime trace separately).
      RIO_TRACE(Config.Trace, M.cycles(), Tid,
                TraceEventKind::ThreadScheduled, Tid, 0);
      Last = RT.runFor(Quantum);
      if (Last.ThreadDone) {
        Finished[Tid] = true;
        if (SharedClient)
          SharedClient->onThreadExit(RT);
      }
      if (M.status() != RunStatus::Running)
        break;
    }
    if (!AnyAlive)
      break; // every thread exited without a process exit
  }
  if (SharedClient && InitFired && !Runtimes.empty() && Runtimes[0]) {
    // Fire the remaining thread-exit hooks and the process-exit hook once.
    for (unsigned Tid = 0; Tid != ThreadsSeen; ++Tid)
      if (Runtime *RT = runtimeFor(Tid))
        if (!(Tid < Finished.size() && Finished[Tid]))
          SharedClient->onThreadExit(*RT);
    SharedClient->onExit(*Runtimes[0]);
  }
  Last.Status = M.status();
  Last.ExitCode = M.exitCode();
  Last.FaultReason = M.faultReason();
  Last.Cycles = M.cycles();
  Last.Instructions = M.instructionsExecuted();
  return Last;
}

RunResult rio::runThreadedNative(Machine &M, uint64_t Quantum,
                                 uint64_t InstrLimit) {
  std::vector<bool> Done;
  while (M.status() == RunStatus::Running &&
         M.instructionsExecuted() < InstrLimit) {
    bool AnyAlive = false;
    for (unsigned Tid = 0; Tid != M.numThreads(); ++Tid) {
      if (Done.size() <= Tid)
        Done.resize(Tid + 1, false);
      if (!M.threadAlive(Tid) || Done[Tid])
        continue;
      AnyAlive = true;
      M.switchToThread(Tid);
      StopSet Slice;
      Slice.InstrLimit =
          std::min(M.instructionsExecuted() + Quantum, InstrLimit);
      while (M.status() == RunStatus::Running &&
             M.instructionsExecuted() < Slice.InstrLimit) {
        StepResult Step = M.run(Slice);
        if (Step.Kind == StepKind::ThreadExited) {
          Done[Tid] = true;
          break;
        }
        if (Step.Kind == StepKind::ClientCall) {
          M.fault("clientcall executed natively");
          break;
        }
      }
      if (M.status() != RunStatus::Running ||
          M.instructionsExecuted() >= InstrLimit)
        break;
    }
    if (!AnyAlive)
      break;
  }
  RunResult R;
  R.Status = M.status();
  R.ExitCode = M.exitCode();
  R.FaultReason = M.faultReason();
  R.Cycles = M.cycles();
  R.Instructions = M.instructionsExecuted();
  return R;
}
