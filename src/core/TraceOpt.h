//===- core/TraceOpt.h - Trace optimizer ----------------------------------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The trace optimizer the sideline runs over decoded trace bodies at their
/// publication points (core/Sideline.h): runValuePass(), a single forward
/// value-tracking scan over the linear trace (paper Section 3.1: linearity
/// is what keeps this a one-pass analysis) that generalizes the
/// redundant-load-removal client's binding scan into one engine doing
/// redundant load removal/forwarding, constant propagation into loads, and
/// straight-line dead-store elimination; plus reduceIncDec(), the paper's
/// inc -> add 1 strength reduction under the per-bit eflags liveness of
/// core/Analysis.h. Both are pure functions of the InstrList (allocating
/// from its own arena).
///
//===----------------------------------------------------------------------===//

#ifndef RIO_CORE_TRACEOPT_H
#define RIO_CORE_TRACEOPT_H

#include "core/Client.h"
#include "isa/Operand.h"

#include <cstdint>

namespace rio {

class Runtime;

/// Per-feature switches for runValuePass().
struct ValuePassConfig {
  bool RemoveLoads = true;         ///< redundant load removal / forwarding
  bool FoldConsts = true;          ///< constant propagation into loads
  bool EliminateDeadStores = true; ///< straight-line dead-store elimination
};

/// What one runValuePass() call did.
struct ValuePassStats {
  uint64_t LoadsRemoved = 0;
  uint64_t LoadsForwarded = 0;
  uint64_t ConstsFolded = 0;
  uint64_t DeadStoresElided = 0;
  ValuePassStats &operator+=(const ValuePassStats &O) {
    LoadsRemoved += O.LoadsRemoved;
    LoadsForwarded += O.LoadsForwarded;
    ConstsFolded += O.ConstsFolded;
    DeadStoresElided += O.DeadStoresElided;
    return *this;
  }
};

/// The generalized value-tracking pass (see file comment): one forward scan
/// tracking memory-operand/register bindings, known register and memory
/// constants, and unobserved stores. \p RuntimeBase separates application
/// memory from runtime-private slots for the may-alias test. Replacement
/// instructions are allocated from \p IL's own arena.
ValuePassStats runValuePass(InstrList &IL, uint32_t RuntimeBase,
                            const ValuePassConfig &Cfg = ValuePassConfig());

/// inc/dec -> add/sub 1 strength reduction under per-bit eflags liveness:
/// inc preserves CF where add writes it, so the rewrite is legal exactly
/// when no reader of the stale CF follows (core/Analysis.h liveEflagsAt).
/// Profitable only where the cost model charges IncDecExtra (Pentium 4);
/// the caller gates on that. Returns the number of conversions.
unsigned reduceIncDec(InstrList &IL);

/// Configuration for TraceOptClient.
struct TraceOptOptions {
  bool RemoveLoads = true;
  bool FoldConsts = true;
  bool EliminateDeadStores = true;
  bool StrengthReduce = true;
  /// Kept only so perfbench compiles; deleted by the benchmark-change PR.
  bool Speculate = false;
};

/// The pass pipeline as a client (see file comment). Wraps an optional
/// inner client whose hooks run first, so it composes with an existing
/// tool stack; typically installed under a SidelineOptimizer.
class TraceOptClient : public Client {
public:
  explicit TraceOptClient(const TraceOptOptions &Opts = TraceOptOptions(),
                          Client *Inner = nullptr)
      : Opts(Opts), Inner(Inner) {}

  void onInit(Runtime &RT) override;
  void onExit(Runtime &RT) override;
  void onThreadInit(Runtime &RT) override;
  void onThreadExit(Runtime &RT) override;
  void onBasicBlock(Runtime &RT, AppPc Tag, InstrList &Block) override;
  void onFragmentDeleted(Runtime &RT, AppPc Tag) override;
  bool onIndirectResolved(Runtime &RT, int BranchOp, AppPc Target) override;
  EndTrace onEndTrace(Runtime &RT, AppPc TraceTag, AppPc NextTag) override;

  /// The pipeline: value pass + strength reduction. Under the sideline it
  /// runs at the publication point.
  void onTrace(Runtime &RT, AppPc Tag, InstrList &Trace) override;
  void onSidelinePublish(Runtime &RT, AppPc Tag, InstrList &IL) override;

  bool persistSafe() const override {
    return !Inner || Inner->persistSafe();
  }

  /// Kept only so perfbench compiles; deleted by the benchmark-change PR.
  bool observe(Runtime &, AppPc, uint64_t) { return false; }

  const TraceOptOptions &options() const { return Opts; }
  /// Under the sideline these count the traces transformed at publication
  /// points, never a job that went stale first, so a fixed seed fixes them.
  const ValuePassStats &valueStats() const { return TransformStats; }
  uint64_t tracesOptimized() const { return TracesOptimized; }
  uint64_t incDecReduced() const { return IncDecReduced; }
  /// Kept only so perfbench compiles; deleted by the benchmark-change PR.
  const ValuePassStats &publishStats() const {
    static const ValuePassStats Zero;
    return Zero;
  }
  /// Kept only so perfbench compiles; deleted by the benchmark-change PR.
  uint64_t guardsEmitted() const { return 0; }

private:
  TraceOptOptions Opts;
  Client *Inner;
  ValuePassStats TransformStats;
  uint64_t TracesOptimized = 0;
  uint64_t IncDecReduced = 0;
};

} // namespace rio

#endif // RIO_CORE_TRACEOPT_H
