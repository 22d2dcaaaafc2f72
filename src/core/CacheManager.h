//===- core/CacheManager.h - Code cache management ---------------------------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The code-cache management subsystem (paper Section 6 directions:
/// bounded caches with incremental eviction instead of "flush the world").
/// It owns the basic-block and trace cache address ranges behind a
/// slot-based allocator:
///
///   - a free list of coalesced gaps per cache, allocated first-fit;
///   - a slot map binding each allocated range to its live fragment;
///   - a FIFO queue supplying eviction victims when a bounded cache fills;
///   - deferred reclamation: a deleted fragment's bytes stay in place (so
///     execution logically inside it stays well-defined) until the next
///     allocation drains the pending list — skipping any slot that still
///     contains *any* guard pc. With thread-private caches there is at most
///     one guard (the suspended or clean-calling owner thread); in shared
///     mode (CacheSharing::Shared) the runtime passes every suspended
///     thread's resume pc, so a slot is reclaimed only once every thread
///     has left it. This is the only reclamation rule: deleted, evicted,
///     replaced and superseded (published) bodies all retire through it;
///   - an application-range index mapping app code lines to the live
///     fragments they back, for consistency invalidation (self-modifying
///     code, dr_flush_region) via the Machine's write monitor.
///
/// The manager is mechanism only: the Runtime decides *when* to evict or
/// flush and performs the unlinking; the manager tracks space and owners.
///
//===----------------------------------------------------------------------===//

#ifndef RIO_CORE_CACHEMANAGER_H
#define RIO_CORE_CACHEMANAGER_H

#include "core/Fragment.h"
#include "support/Statistics.h"
#include "vm/Machine.h"

#include <deque>
#include <functional>
#include <map>
#include <unordered_map>
#include <vector>

namespace rio {

class EventTrace;

/// See file comment.
class CacheManager {
public:
  /// \p WatchWrites: register fragment app ranges with the machine's write
  /// monitor (cache consistency; the runtime passes true in Cache mode).
  CacheManager(Machine &M, StatisticSet &Stats, bool WatchWrites = true);

  CacheManager(const CacheManager &) = delete;
  CacheManager &operator=(const CacheManager &) = delete;

  /// Assigns the address range [Start, End) to the cache holding \p Kind
  /// fragments. Must be called once per kind before any allocation.
  void configureCache(Fragment::Kind Kind, uint32_t Start, uint32_t End);

  /// Observability: the manager records slot reclamation into \p Trace
  /// (null = no tracing), attributing events to *\p ActiveTid — a pointer
  /// into the owning Runtime, so attribution tracks thread activation
  /// without a call per switch. Host-side only; charges nothing.
  void attachTrace(EventTrace *Trace, const unsigned *ActiveTid) {
    this->Trace = Trace;
    this->ActiveTid = ActiveTid;
  }

  //===--------------------------------------------------------------------===
  // Allocation
  //===--------------------------------------------------------------------===

  /// First-fit allocation of \p Size bytes (4-byte aligned) from the free
  /// list, draining reclaimable retired slots first. Returns 0 when no gap
  /// fits — the caller then evicts (allocateEvicting). \p GuardPcs
  /// are cache pcs execution may still re-enter (suspended threads, a
  /// clean-calling fragment); slots containing one stay unreclaimed.
  uint32_t allocate(Fragment::Kind Kind, uint32_t Size,
                    const std::vector<uint32_t> &GuardPcs = {});

  /// Like allocate(), but when space runs out evicts live fragments in
  /// FIFO order — \p Evict must fully delete the victim (unlink incoming
  /// and outgoing, drop lookup entries, notify the client) and end with
  /// retireFragment(). Returns 0 — evicting nothing — when \p Size exceeds
  /// the cache's capacity, and otherwise only if the cache cannot hold it
  /// even after evicting everything evictable.
  uint32_t allocateEvicting(Fragment::Kind Kind, uint32_t Size,
                            const std::vector<uint32_t> &GuardPcs,
                            const std::function<void(Fragment *)> &Evict);

  /// Removes exactly [Addr, Addr+Size) from \p Kind's free list so a
  /// fragment restored from a persistent image (src/persist) can occupy a
  /// caller-chosen address. Returns false — carving nothing — unless the
  /// range lies wholly inside one free gap. Follow with registerFragment().
  bool carveRange(Fragment::Kind Kind, uint32_t Addr, uint32_t Size);

  //===--------------------------------------------------------------------===
  // Fragment lifecycle
  //===--------------------------------------------------------------------===

  /// Binds a freshly emitted fragment to the slot at its CacheAddr, places
  /// it at the FIFO tail, indexes its application ranges, and registers
  /// them with the write monitor.
  void registerFragment(Fragment *Frag);

  /// Unbinds a deleted fragment: the slot moves to the pending-reclaim
  /// list (bytes stay in place), the app-range index and write watches are
  /// dropped. FIFO entries are skipped lazily. Idempotent.
  void retireFragment(Fragment *Frag);

  /// Frees pending retired slots into the free list (coalescing adjacent
  /// gaps). A slot containing any pc of \p GuardPcs stays pending:
  /// execution is still logically inside it — in shared-cache mode that
  /// may be several suspended threads at once. That is the only rule.
  void reclaimPending(const std::vector<uint32_t> &GuardPcs);

  //===--------------------------------------------------------------------===
  // Queries
  //===--------------------------------------------------------------------===

  /// Appends every live fragment whose app ranges overlap [Lo, Hi).
  void fragmentsOverlappingApp(AppPc Lo, AppPc Hi,
                               std::vector<Fragment *> &Out) const;

  /// The live fragment whose slot (body + stubs) contains \p CachePc, or
  /// null.
  Fragment *fragmentAt(uint32_t CachePc) const;

  /// True if any watched app line intersects [Lo, Hi) — cheap pre-filter
  /// before fragmentsOverlappingApp.
  bool anyFragmentTouchesApp(AppPc Lo, AppPc Hi) const;

  //===--------------------------------------------------------------------===
  // Accounting
  //===--------------------------------------------------------------------===

  uint32_t cacheStart(Fragment::Kind Kind) const {
    return cacheFor(Kind).Start;
  }
  uint32_t cacheEnd(Fragment::Kind Kind) const { return cacheFor(Kind).End; }
  uint32_t capacity(Fragment::Kind Kind) const;
  /// True if a fragment of \p Size bytes fits the empty cache: otherwise
  /// no eviction can make room for it.
  bool fits(Fragment::Kind Kind, uint32_t Size) const {
    return ((Size + 3u) & ~3u) <= capacity(Kind);
  }
  /// Bytes held by live fragments (pending-reclaim bytes excluded).
  uint32_t usedBytes(Fragment::Kind Kind) const;
  /// usedBytes summed over both caches — the warmed-cache footprint a
  /// forked tenant shares until it unshares.
  uint32_t totalUsedBytes() const;
  /// Peak of usedBytes over the cache's lifetime.
  uint32_t peakBytes(Fragment::Kind Kind) const;
  uint32_t liveFragments(Fragment::Kind Kind) const;
  /// Bytes sitting in retired slots not yet reclaimed (deferred deletion)
  /// — telemetry for the metrics registry.
  uint32_t pendingReclaimBytes(Fragment::Kind Kind) const;

private:
  /// A retired slot awaiting reclamation.
  struct PendingSlot {
    uint32_t Addr = 0;
    uint32_t Size = 0;
  };

  struct Cache {
    uint32_t Start = 0;
    uint32_t End = 0;
    std::map<uint32_t, uint32_t> FreeGaps;  ///< gap addr -> size
    std::map<uint32_t, Fragment *> Slots;   ///< slot addr -> live fragment
    std::deque<Fragment *> Fifo;            ///< eviction order (lazy)
    std::vector<PendingSlot> Pending;       ///< retired slots
    uint32_t Used = 0;
    uint32_t Peak = 0;
    uint32_t Live = 0;
  };

  Cache &cacheFor(Fragment::Kind Kind) {
    return Caches[Kind == Fragment::Kind::Trace ? 1 : 0];
  }
  const Cache &cacheFor(Fragment::Kind Kind) const {
    return Caches[Kind == Fragment::Kind::Trace ? 1 : 0];
  }

  /// Rounded up to the allocator's 4-byte granule so retirement returns
  /// exactly the bytes allocation carved (padding included) and adjacent
  /// gaps coalesce.
  static uint32_t slotSize(const Fragment *Frag) {
    return (Frag->CodeSize + Frag->StubsSize + 3u) & ~3u;
  }
  static bool slotContains(uint32_t Addr, uint32_t Size, uint32_t Pc) {
    return Pc >= Addr && Pc < Addr + Size;
  }
  static bool slotContainsAny(uint32_t Addr, uint32_t Size,
                              const std::vector<uint32_t> &Pcs) {
    for (uint32_t Pc : Pcs)
      if (slotContains(Addr, Size, Pc))
        return true;
    return false;
  }

  /// Inserts [Addr, Addr+Size) into the free list, merging with adjacent
  /// gaps.
  void freeRange(Cache &C, uint32_t Addr, uint32_t Size);
  void publishOccupancy(Fragment::Kind Kind);

  Machine &M;
  StatisticSet &Stats;
  bool WatchWrites;
  EventTrace *Trace = nullptr;      ///< see attachTrace
  const unsigned *ActiveTid = nullptr;
  /// Occupancy gauges per cache ([0] bb, [1] trace), interned once at
  /// construction: publishOccupancy runs on every register/retire.
  struct OccupancyStats {
    Stat UsedBytes, PeakBytes, LiveFragments;
  };
  OccupancyStats Occupancy[2];
  Cache Caches[2]; ///< [0] basic blocks, [1] traces

  /// App line (WriteWatchLine granularity) -> live fragments backed by it.
  std::unordered_map<uint32_t, std::vector<Fragment *>> AppIndex;
};

} // namespace rio

#endif // RIO_CORE_CACHEMANAGER_H
