//===- core/Client.h - The client (tool) interface -------------------------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The DynamoRIO client interface: the hook set of the paper's Table 3.
/// A client is coupled with the runtime to jointly operate on an input
/// program; the runtime calls these hooks at the corresponding moments.
/// C++ clients subclass Client; the C-style mirror API in api/dr_api.h
/// wraps the same hooks with the paper's exact names
/// (dynamorio_basic_block, dynamorio_trace, dynamorio_end_trace, ...).
///
//===----------------------------------------------------------------------===//

#ifndef RIO_CORE_CLIENT_H
#define RIO_CORE_CLIENT_H

#include "ir/InstrList.h"

namespace rio {

class Runtime;

/// Base class for DynamoRIO clients. All hooks default to no-ops, so a
/// client overrides only what it needs.
class Client {
public:
  virtual ~Client();

  /// Client initialization (dynamorio_init).
  virtual void onInit(Runtime &RT) { (void)RT; }

  /// Client finalization (dynamorio_exit).
  virtual void onExit(Runtime &RT) { (void)RT; }

  /// Per-thread initialization/finalization (dynamorio_thread_init/exit).
  virtual void onThreadInit(Runtime &RT) { (void)RT; }
  virtual void onThreadExit(Runtime &RT) { (void)RT; }

  /// Called each time a basic block is created, just before it is placed in
  /// the block cache (dynamorio_basic_block). \p Tag uniquely identifies
  /// the fragment by its original application address.
  virtual void onBasicBlock(Runtime &RT, AppPc Tag, InstrList &Block) {
    (void)RT;
    (void)Tag;
    (void)Block;
  }

  /// Called each time a trace is created, just before it is placed in the
  /// trace cache (dynamorio_trace). The list is exactly the code that will
  /// execute in the cache, except for exit stubs. Under the sideline
  /// (core/Sideline.h) it is instead called on the application thread at
  /// the trace's publication point, on a decoded copy of the live body,
  /// and every cycle it charges is refunded.
  virtual void onTrace(Runtime &RT, AppPc Tag, InstrList &Trace) {
    (void)RT;
    (void)Tag;
    (void)Trace;
  }

  /// Called when a fragment is deleted from the block or trace cache
  /// (dynamorio_fragment_deleted).
  virtual void onFragmentDeleted(Runtime &RT, AppPc Tag) {
    (void)RT;
    (void)Tag;
  }

  /// Called when an indirect control transfer resolves at the IBL moment:
  /// \p BranchOp is the transferring opcode (OP_ret / OP_jmp_ind /
  /// OP_call_ind) and \p Target the application address it resolved to.
  /// Security clients — the program shepherding system the paper points to
  /// (Section 1, reference [23]) — vet targets here; returning false makes
  /// the runtime terminate the application with a security fault.
  virtual bool onIndirectResolved(Runtime &RT, int BranchOp, AppPc Target) {
    (void)RT;
    (void)BranchOp;
    (void)Target;
    return true;
  }

  /// Answer to "should the current trace end before adding the block at
  /// NextTag?" (dynamorio_end_trace).
  enum class EndTrace {
    Default, ///< use the runtime's standard NET test
    End,     ///< end the trace now (NextTag is not added)
    Continue ///< keep going regardless of the default test
  };
  virtual EndTrace onEndTrace(Runtime &RT, AppPc TraceTag, AppPc NextTag) {
    (void)RT;
    (void)TraceTag;
    (void)NextTag;
    return EndTrace::Default;
  }

  /// Has no effect; kept, like SidelineMode, for source compatibility
  /// with clients that override it. The sideline runs every client's
  /// onTrace on the application thread (core/Sideline.h).
  virtual bool sidelineSafe() const { return false; }

  /// Under the sideline (core/Sideline.h), called on the application
  /// thread at a trace's publication point, right after onTrace has
  /// transformed \p IL (with the cycles it charged refunded) and just
  /// before \p IL is installed as the next version of trace \p Tag. It
  /// may read live Runtime state (fragment versions, machine memory).
  virtual void onSidelinePublish(Runtime &RT, AppPc Tag, InstrList &IL) {
    (void)RT;
    (void)Tag;
    (void)IL;
  }

  /// True if the runtime may serialize (dr_cache_save) and restore
  /// (dr_cache_load) caches while this client is attached: the client's
  /// transformations must be a pure function of the InstrList it was
  /// handed, so replaying the saved bytes without re-running the hooks is
  /// equivalent. Defaults to false, preserving the PR 6 refusal.
  virtual bool persistSafe() const { return false; }
};

} // namespace rio

#endif // RIO_CORE_CLIENT_H
