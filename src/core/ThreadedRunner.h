//===- core/ThreadedRunner.h - Multi-threaded application support ----------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs multi-threaded applications under the runtime, in either cache
/// sharing mode (RuntimeConfig::Sharing):
///
/// *Thread-private caches* — the paper's design (Section 2): "DynamoRIO
/// maintains thread-private code caches ... the cost of duplicating the
/// small amount [of shared code] for each thread was far outweighed by the
/// savings of not having to synchronize changes in the cache". Each
/// application thread gets its own Runtime instance over a disjoint slice
/// of the machine's runtime region — private spill slots, dispatcher
/// entry, basic-block and trace caches, trace-head counters.
///
/// *Shared caches* — the alternative the paper argues against, made
/// runnable so the claim can be measured: one Runtime over the whole
/// runtime region serves every thread. Per-thread state lives in a
/// ThreadContext the runner activates on each quantum context switch
/// (banking the slot window; Runtime::activateThread), and fragment
/// deletion defers byte reclamation until every suspended thread's resume
/// pc has left the slot.
///
/// Both modes schedule threads round-robin with a deterministic
/// instruction quantum (the simulated analogue of OS preemption), creating
/// per-thread state lazily as the application spawns threads, and fire the
/// client's thread init/exit hooks (paper Table 3) around each thread's
/// lifetime.
///
//===----------------------------------------------------------------------===//

#ifndef RIO_CORE_THREADEDRUNNER_H
#define RIO_CORE_THREADEDRUNNER_H

#include "core/Runtime.h"

#include <memory>
#include <string>
#include <vector>

namespace rio {

/// Scheduler for multi-threaded applications under the runtime.
class ThreadedRunner {
public:
  /// \p Quantum instructions per scheduling slice; 0 uses
  /// Config.ThreadQuantum. The thread limit comes from Config.MaxThreads,
  /// clamped so every thread-private slice can hold the runtime slots plus
  /// two minimally sized caches (see maxThreads()).
  ThreadedRunner(Machine &M, const RuntimeConfig &Config,
                 Client *SharedClient = nullptr, uint64_t Quantum = 0);
  ~ThreadedRunner();

  /// Runs every thread to completion (round-robin, deterministic).
  RunResult run();

  /// The effective thread limit: Config.MaxThreads clamped to what the
  /// machine's runtime region can slice in ThreadPrivate mode. In
  /// ThreadPrivate mode the region is divided into exactly this many
  /// slices, so a smaller configured limit gives each thread
  /// proportionally larger private caches.
  unsigned maxThreads() const;

  /// The runtime serving thread \p Tid, or null if the thread was never
  /// scheduled. In Shared mode every seen thread maps to the one shared
  /// runtime.
  Runtime *runtimeFor(unsigned Tid);

  /// Threads that ever existed.
  unsigned threadsSeen() const { return ThreadsSeen; }

private:
  /// Returns the runtime thread \p Tid executes under, creating state
  /// lazily: in ThreadPrivate mode a new Runtime over the thread's region
  /// slice; in Shared mode the one shared Runtime with the thread's
  /// context activated. Fires onInit/onThreadInit as state appears.
  Runtime &runtimeForThread(unsigned Tid);

  Machine &M;
  RuntimeConfig Config;
  Client *SharedClient;
  uint64_t Quantum;
  /// ThreadPrivate: one entry per thread (lazily filled). Shared: a single
  /// entry, the shared runtime.
  std::vector<std::unique_ptr<Runtime>> Runtimes;
  std::vector<bool> Finished;
  unsigned ThreadsSeen = 0;
  bool InitFired = false;
};

/// runThreadedNative's default scheduling slice, in instructions.
constexpr uint64_t NativeQuantum = 5000;

/// Reference scheduler: runs a multi-threaded application *natively*
/// (no code cache) with the same round-robin quantum policy. Used to
/// establish the native baseline the threaded runtime must match. Stops
/// once the machine has executed \p InstrLimit instructions, with the
/// program still running: a deadline on every slice, never a fault.
RunResult runThreadedNative(Machine &M, uint64_t Quantum = NativeQuantum,
                            uint64_t InstrLimit = ~0ull);

/// A fleet of forked tenants served from one frozen template — the
/// "N warmed tenants from one image" pattern behind `riodyn -tenants` and
/// bench_fork. Each tenant pairs a copy-on-write Machine fork of the
/// template's machine with a Runtime forked from the template runtime
/// (Runtime::forkFrom); all tenants stay alive together, their unwritten
/// pages shared with the template and each other.
///
/// Header-inline on purpose: forkFrom/unshare live in rio_persist, which
/// rio_core cannot link against, so the fleet must be instantiated from
/// translation units (examples, benches, tests) that link rio_persist.
class TenantFleet {
public:
  struct Tenant {
    std::unique_ptr<Machine> M;
    std::unique_ptr<Runtime> RT;
  };

  /// Forks \p Count tenants from \p Template, whose machine is
  /// \p TemplateMachine (passed separately: the template runtime is const
  /// here, and the machine fork needs the object, not an accessor).
  /// \p Template must be frozen (Runtime::freezeTemplate). On any failure
  /// returns false with \p Error set and leaves the fleet empty.
  bool spawn(const Runtime &Template, const Machine &TemplateMachine,
             unsigned Count, std::string *Error = nullptr) {
    std::vector<Tenant> Spawned;
    Spawned.reserve(Count);
    for (unsigned I = 0; I != Count; ++I) {
      Tenant T;
      T.M = std::make_unique<Machine>(TemplateMachine);
      T.RT = Runtime::forkFrom(Template, *T.M, Error);
      if (!T.RT) {
        clear();
        return false;
      }
      Spawned.push_back(std::move(T));
    }
    Fleet = std::move(Spawned);
    return true;
  }

  size_t size() const { return Fleet.size(); }
  Tenant &operator[](size_t I) { return Fleet[I]; }
  std::vector<Tenant>::iterator begin() { return Fleet.begin(); }
  std::vector<Tenant>::iterator end() { return Fleet.end(); }

  /// Registers every tenant into \p MR under labels "tenant0".."tenantN"
  /// (registration order == fleet order, so snapshot sections line up with
  /// operator[]). The registry's fleet rollup then sums exactly these
  /// tenants; register the template separately if it should be counted.
  void registerMetrics(MetricsRegistry &MR) {
    for (size_t I = 0; I != Fleet.size(); ++I)
      Fleet[I].RT->registerMetrics(MR, "tenant" + std::to_string(I));
  }

  /// Destroys every tenant (runtimes before machines, per member order),
  /// returning their copy-on-write pages to the template.
  void clear() { Fleet.clear(); }

private:
  std::vector<Tenant> Fleet;
};

} // namespace rio

#endif // RIO_CORE_THREADEDRUNNER_H
