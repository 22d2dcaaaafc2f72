//===- persist/Fork.cpp - Copy-on-write runtime forking --------------------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fork engine: spawn N warmed tenants from one template runtime at
/// near-zero cost. The template warms up once (optionally itself warm-
/// started from a persistent cache image, src/persist/CacheImage.cpp),
/// freezes, and each tenant is then
///
///   - a Machine copy-fork: every memory page is loaned copy-on-write, so
///     the tenant pays for exactly the pages it writes (registers, stack,
///     data) and keeps sharing the rest — most importantly the warmed code
///     cache bytes;
///   - a Runtime whose fragment table, exit records and IB maps are flat
///     copies pointing at the *template's* fragment metadata. All const
///     queries route to the template's CacheManager (Runtime::queryCM);
///     every mutating path is guarded by Runtime::ensureUnshared().
///
/// Unsharing replays the template's frozen image through the trusted-clone
/// codec path (CacheCodec::loadClone) into the tenant. The image was saved
/// from this very region at this very base, so the relocation delta is
/// zero: every restored fragment keeps its cache address, which is what
/// lets a tenant unshare *mid-run* — suspended resume pcs and in-flight
/// cache pointers stay valid, only the metadata ownership changes. The
/// codec's writeBlock of each fragment body is what performs the deep copy:
/// the machine's CoW layer privatizes exactly the cache pages, nothing
/// else.
///
/// This file lives in rio_persist (not rio_core) because the unshare
/// replays a cache image; rio_core cannot link against rio_persist, so
/// Runtime reaches the engine through a function pointer installed by
/// forkFrom (Runtime::UnshareHook).
///
//===----------------------------------------------------------------------===//

#include "core/Runtime.h"
#include "persist/CacheImage.h"

#include <string>

namespace rio {

//===----------------------------------------------------------------------===//
// freezeTemplate
//===----------------------------------------------------------------------===//

bool Runtime::freezeTemplate(std::string *Error) {
  auto Fail = [&](const char *Msg) {
    if (Error)
      *Error = Msg;
    return false;
  };
  if (Tpl)
    return Fail("a forked tenant cannot become a template before it unshares");
  // Persist-safe clients (pure code transforms, e.g. the trace optimizer's
  // non-speculative tier) are freezable: their effect is entirely in the
  // serialized bytes, and tenants run those bytes without the client.
  if (TheClient && !TheClient->persistSafe())
    return Fail("cannot freeze a runtime with a non-persist-safe client "
                "attached");
  if (Config.Mode != ExecMode::Cache)
    return Fail("only cache-mode runtimes can be frozen as fork templates");
  std::vector<uint8_t> Img;
  if (!persist::CacheCodec::save(*this, Img))
    return Fail("runtime is not quiescent: execution suspended in the cache, "
                "trace recording or a clean call in flight, or code-write "
                "events pending");
  Frozen = std::move(Img);
  // Telemetry breadcrumb (the image itself never contains statistics, so
  // tenants forked from this template do not inherit the value).
  Stats.counter("fork_template_frozen_bytes") = Frozen.size();
  return true;
}

//===----------------------------------------------------------------------===//
// forkFrom
//===----------------------------------------------------------------------===//

std::unique_ptr<Runtime> Runtime::forkFrom(const Runtime &Template,
                                           Machine &TenantMachine,
                                           std::string *Error) {
  auto Fail = [&](const char *Msg) {
    if (Error)
      *Error = Msg;
    return std::unique_ptr<Runtime>();
  };
  if (!Template.isFrozenTemplate())
    return Fail("template is not frozen: call freezeTemplate() after warm-up");
  if (Template.Tpl)
    return Fail("cannot fork from a runtime that still shares its template");
  if (Template.TheClient && !Template.TheClient->persistSafe())
    return Fail("cannot fork from a runtime with a non-persist-safe client "
                "attached");
  if (&TenantMachine == &Template.M)
    return Fail("the tenant needs its own machine: copy-construct a fork of "
                "the template's machine first");
  if (TenantMachine.mem().size() != Template.M.mem().size())
    return Fail("tenant machine does not look like a fork of the template's "
                "(memory size differs)");

  // Same config and resolved region => identical slot addresses and cache
  // geometry, so the template's cache addresses mean the same thing in the
  // tenant's (page-shared) memory. No client, so no lifecycle hooks.
  std::unique_ptr<Runtime> RT(new Runtime(TenantMachine, Template.Config,
                                          /*TheClient=*/nullptr,
                                          Template.ResolvedRegion,
                                          HookMode::None));

  // Flat copies of the dispatch-facing view. Fragment pointers inside these
  // belong to the template until the tenant unshares; the tenant's own
  // Fragments / ExitRecords arena stays empty and its CacheManager idle
  // (const queries go through queryCM() to the template's).
  RT->Table = Template.Table;
  RT->ShadowBbs = Template.ShadowBbs; // empty on a quiescent template
  RT->ExitRecords = Template.ExitRecords;
  RT->IbProfiles = Template.IbProfiles;
  RT->IbArmStubSites = Template.IbArmStubSites;
  for (const auto &[Pc, ExitId] : Template.IbArmPcs)
    RT->addIbArmPc(Pc, ExitId);
  RT->CodeWriteCursor = Template.CodeWriteCursor;
  // Speculation history rides along: a tenant sharing the template's
  // optimized bodies must also share its refuse-to-speculate verdicts, or
  // the first tenant reopt would replay a deopt storm the template already
  // paid for. (Unshare re-merges these from the frozen image, max-wise.)
  RT->GuardFailCounts = Template.GuardFailCounts;
  RT->TraceOptBlacklist = Template.TraceOptBlacklist;

  RT->Tpl = &Template;
  RT->UnshareHook = &Runtime::unshareImpl;
  // Telemetry: marks this runtime as fork-born (stays 1 after unsharing,
  // unlike the live fork_shared_cache gauge), and makes the fleet rollup's
  // fork_tenant value equal the tenant count.
  RT->Stats.counter("fork_tenant") = 1;
  return RT;
}

//===----------------------------------------------------------------------===//
// The unshare engine
//===----------------------------------------------------------------------===//

void Runtime::unshareImpl(Runtime &RT) {
  assert(RT.Tpl && "unshare on a runtime that is not sharing a template");
  const Runtime &T = *RT.Tpl;

  // 1. Save the tenant's private progress that the clone replay would
  //    otherwise rewind to the freeze-time snapshot: trace-head counters and
  //    marked bits (the table's fragment pointers are the template's and are
  //    discarded), the IB target histograms, and the machine's predictor
  //    state (the image's predictor snapshot is stale — the tenant has been
  //    running since the fork).
  FragmentTable SavedTable = std::move(RT.Table);
  auto SavedProfiles = std::move(RT.IbProfiles);
  const BranchPredictors SavedPred = RT.M.predictors();

  // 2. Make the tenant structurally cold for the codec. Its own Fragments
  //    and CacheManager were never populated; only the flat copies taken at
  //    fork time need dropping. The code-write cursor stays: pending SMC
  //    events must still drain against the private clone (trusted apply
  //    does not touch the cursor).
  RT.Table = FragmentTable();
  RT.ShadowBbs.clear();
  RT.ExitRecords.clear();
  RT.IbProfiles.clear();
  RT.IbArmStubSites.clear();
  RT.clearIbArmPcs();

  // 3. The tenant's machine forked the template's write-watch line state, so
  //    it already monitors every app range the template's fragments cover.
  //    The clone replay re-adds a watch per restored fragment range
  //    (CacheManager::registerFragment); strip the inherited set first so
  //    the per-line counts end up exactly as a cold warm-started runtime's.
  if (RT.Config.Mode == ExecMode::Cache)
    T.forEachFragment([&RT](const Fragment &F) {
      for (const AppRange &R : F.AppRanges)
        if (R.Lo < R.Hi)
          RT.M.removeWriteWatch(R.Lo, R.Hi);
    });

  // 4. Replay the template's frozen image. Clearing Tpl first: the codec
  //    must see a private runtime, and nothing below may recurse into
  //    ensureUnshared(). The relocation delta is zero (same region base),
  //    so every fragment keeps its cache address — resume pcs and exit ids
  //    stay valid — and the body writeBlocks privatize exactly the cache
  //    pages (the machine counts them in cow_page_copies).
  RT.Tpl = nullptr;
  persist::LoadStatus St =
      persist::CacheCodec::loadClone(RT, T.Frozen.data(), T.Frozen.size());
  if (St != persist::LoadStatus::Ok) {
    // Cannot happen for a well-formed template (the image restored into the
    // template's own geometry once already); fault the machine rather than
    // continue with a half-shared runtime.
    RT.M.fault(std::string("fork unshare failed: frozen image rejected (") +
               persist::loadStatusName(St) + ")");
    return;
  }

  // 5. Overlay the tenant's saved progress onto the rebuilt private state.
  //    Fragment pointers come from the clone; counters and marked bits are
  //    tenant progress (a tag the tenant interned but the image lacks —
  //    e.g. a head counted but never built — survives via slot()).
  SavedTable.forEachEntry([&RT](const FragmentEntry &E) {
    FragmentEntry &Slot = RT.Table.slot(E.Tag);
    Slot.HeadCounter = E.HeadCounter;
    Slot.Marked = E.Marked;
  });
  RT.IbProfiles = std::move(SavedProfiles);
  RT.M.predictors() = SavedPred;

  ++RT.S.ForkCacheUnshares;
}

} // namespace rio
