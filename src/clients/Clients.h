//===- clients/Clients.h - The paper's example clients ----------------------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The example clients of the paper's Section 4, plus instrumentation
/// clients demonstrating the non-optimization uses of the interface:
///
///   NullClient            no-op (measures pure hook overhead)
///   InscountClient        dynamic instruction counting (instrumentation)
///   StrengthReduceClient  inc/dec -> add/sub 1 on the Pentium 4 (S4.2)
///   RlrClient             redundant load removal on traces (S4.1)
///   IBDispatchClient      adaptive indirect branch dispatch (S4.3)
///   CustomTracesClient    call-inlining custom traces (S4.4)
///   MultiClient           composition (the paper's "all combined" bar)
///
//===----------------------------------------------------------------------===//

#ifndef RIO_CLIENTS_CLIENTS_H
#define RIO_CLIENTS_CLIENTS_H

#include "core/Client.h"
#include "isa/Operand.h"

#include <cstdint>
#include <map>
#include <set>
#include <memory>
#include <unordered_map>
#include <vector>

namespace rio {

/// A client that does nothing; useful for measuring baseline behaviour
/// with the hook plumbing in place.
class NullClient : public Client {
public:
  // Transforms nothing and keeps no state: trivially safe to serialize
  // around.
  bool persistSafe() const override { return true; }
};

/// Instrumentation: counts dynamically executed application instructions
/// with inlined, flags-transparent counter updates (the classic inscount
/// tool). Demonstrates that the interface "is not restricted to
/// optimization" (paper Section 1).
class InscountClient : public Client {
public:
  void onBasicBlock(Runtime &RT, AppPc Tag, InstrList &Block) override;
  void onTrace(Runtime &RT, AppPc Tag, InstrList &Trace) override;
  void onExit(Runtime &RT) override;

  /// Total counted instructions (valid after the run).
  uint64_t totalInstructions() const { return Total; }

private:
  uint64_t Total = 0;
};

/// The paper's Figure 3: replace inc/dec with add/sub 1 where the CF
/// difference is provably irrelevant — profitable on the Pentium 4 only,
/// so the client checks the processor family at init time.
class StrengthReduceClient : public Client {
public:
  void onInit(Runtime &RT) override;
  void onTrace(Runtime &RT, AppPc Tag, InstrList &Trace) override;
  void onExit(Runtime &RT) override;

  uint64_t numExamined() const { return NumExamined; }
  uint64_t numConverted() const { return NumConverted; }
  bool enabled() const { return Enable; }

  /// The transform is a pure function of the handed InstrList (Enable is
  /// fixed at init) — safe under persisted caches.
  bool persistSafe() const override { return true; }

  /// Print conversion stats via dr_printf at exit (as Figure 3 does).
  bool Verbose = false;

private:
  bool Enable = false;
  uint64_t NumExamined = 0;
  uint64_t NumConverted = 0;
};

/// The paper's Section 4.1: remove loads whose value is already available
/// in a register, across basic block boundaries along a trace.
class RlrClient : public Client {
public:
  void onTrace(Runtime &RT, AppPc Tag, InstrList &Trace) override;

  uint64_t loadsRemoved() const { return Removed; }
  uint64_t loadsForwarded() const { return Forwarded; }

  /// Reads only the immutable runtime base plus the handed InstrList, and
  /// is a pure function of both — safe under persisted caches.
  bool persistSafe() const override { return true; }

private:
  uint64_t Removed = 0;
  uint64_t Forwarded = 0;
};

/// The paper's Section 4.3: value-profile indirect branch targets on the
/// IBL miss path of each trace; once enough samples accumulate, rewrite
/// the trace (decode + replace, Section 3.4) inserting a chain of
/// flags-transparent compares that dispatch the hottest targets directly.
class IBDispatchClient : public Client {
public:
  struct Options {
    unsigned SampleThreshold = 32; ///< samples before the rewrite
    unsigned MaxInlinedTargets = 4;
  };
  IBDispatchClient() = default;
  explicit IBDispatchClient(const Options &Opts) : Opts(Opts) {}

  void onTrace(Runtime &RT, AppPc Tag, InstrList &Trace) override;

  uint64_t sitesInstrumented() const { return SitesInstrumented; }
  uint64_t tracesRewritten() const { return TracesRewritten; }

private:
  struct Site {
    AppPc TraceTag = 0;
    uint32_t CleanCallId = 0;
    std::map<AppPc, uint32_t> Samples;
    uint32_t TotalSamples = 0;
    bool Rewritten = false;
  };
  void profileHit(Runtime &RT, Site &S, AppPc Target);
  void rewriteTrace(Runtime &RT, Site &S);

  Options Opts;
  std::vector<std::unique_ptr<Site>> Sites;
  uint64_t SitesInstrumented = 0;
  uint64_t TracesRewritten = 0;
};

/// The paper's Section 4.4: custom traces that inline entire procedure
/// calls — call targets become trace heads, and a trace that crosses a
/// return ends one block after it, so the inlined return's check almost
/// always hits.
class CustomTracesClient : public Client {
public:
  void onBasicBlock(Runtime &RT, AppPc Tag, InstrList &Block) override;
  EndTrace onEndTrace(Runtime &RT, AppPc TraceTag, AppPc NextTag) override;
  void onTrace(Runtime &RT, AppPc Tag, InstrList &Trace) override;

  uint64_t headsMarked() const { return HeadsMarked; }

private:
  std::unordered_map<AppPc, bool> BlockEndsInReturn;
  std::unordered_map<AppPc, bool> BlockEndsInCall;
  AppPc CurTrace = 0;
  AppPc LastAdded = 0;
  bool EndAfterNext = false;
  uint64_t HeadsMarked = 0;
};

/// Program shepherding (the security application the paper highlights in
/// Sections 1 and 7; reference [23]): enforces a control-transfer policy —
/// returns only to valid return sites, and (optionally) no indirect
/// transfers into the middle of vetted code. The application cannot bypass
/// the check because every indirect transfer funnels through the runtime.
class ShepherdingClient : public Client {
public:
  /// Terminate the application on a violation (vs. report-only).
  bool Enforce = false;
  /// Also police indirect call/jump targets, not just returns.
  bool RestrictIndirectTargets = true;
  /// Simulated cycles charged per policed transfer.
  unsigned CheckCost = 8;

  void onBasicBlock(Runtime &RT, AppPc Tag, InstrList &Block) override;
  bool onIndirectResolved(Runtime &RT, int BranchOp, AppPc Target) override;

  uint64_t violations() const { return Violations; }
  uint64_t transfersChecked() const { return TransfersChecked; }
  AppPc lastViolationTarget() const { return LastViolationTarget; }

private:
  std::set<AppPc> ValidReturnSites;
  std::map<AppPc, AppPc> BlockExtents; // block tag -> end address
  uint64_t Violations = 0;
  uint64_t TransfersChecked = 0;
  AppPc LastViolationTarget = 0;
};

/// Runs several clients as one (the paper's final "all four combined"
/// configuration). Hooks are forwarded in order; the first non-default
/// end-trace answer wins.
class MultiClient : public Client {
public:
  explicit MultiClient(std::vector<Client *> Parts) : Parts(std::move(Parts)) {}

  void onInit(Runtime &RT) override;
  void onExit(Runtime &RT) override;
  void onThreadInit(Runtime &RT) override;
  void onThreadExit(Runtime &RT) override;
  void onBasicBlock(Runtime &RT, AppPc Tag, InstrList &Block) override;
  void onTrace(Runtime &RT, AppPc Tag, InstrList &Trace) override;
  void onFragmentDeleted(Runtime &RT, AppPc Tag) override;
  bool onIndirectResolved(Runtime &RT, int BranchOp, AppPc Target) override;
  EndTrace onEndTrace(Runtime &RT, AppPc TraceTag, AppPc NextTag) override;

private:
  std::vector<Client *> Parts;
};

} // namespace rio

#endif // RIO_CLIENTS_CLIENTS_H
