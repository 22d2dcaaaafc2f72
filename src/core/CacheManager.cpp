//===- core/CacheManager.cpp - Code cache management -------------------------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//

#include "core/CacheManager.h"

#include "support/EventTrace.h"

#include <algorithm>
#include <cassert>

namespace rio {

CacheManager::CacheManager(Machine &M, StatisticSet &Stats, bool WatchWrites)
    : M(M), Stats(Stats), WatchWrites(WatchWrites),
      Occupancy{{Stats.stat("cache_bb_used_bytes"),
                 Stats.stat("cache_bb_peak_bytes"),
                 Stats.stat("cache_bb_live_fragments")},
                {Stats.stat("cache_trace_used_bytes"),
                 Stats.stat("cache_trace_peak_bytes"),
                 Stats.stat("cache_trace_live_fragments")}} {}

void CacheManager::configureCache(Fragment::Kind Kind, uint32_t Start,
                                  uint32_t End) {
  assert(Start < End && "empty cache range");
  Cache &C = cacheFor(Kind);
  C.Start = Start;
  C.End = End;
  C.FreeGaps.clear();
  C.FreeGaps.emplace(Start, End - Start);
  publishOccupancy(Kind);
}

//===----------------------------------------------------------------------===//
// Allocation
//===----------------------------------------------------------------------===//

uint32_t CacheManager::allocate(Fragment::Kind Kind, uint32_t Size,
                                const std::vector<uint32_t> &GuardPcs) {
  Cache &C = cacheFor(Kind);
  assert(C.End > C.Start && "cache not configured");
  Size = (Size + 3u) & ~3u;
  if (Size == 0 || Size > C.End - C.Start)
    return 0;
  reclaimPending(GuardPcs);
  for (auto It = C.FreeGaps.begin(); It != C.FreeGaps.end(); ++It) {
    if (It->second < Size)
      continue;
    uint32_t Addr = It->first;
    uint32_t Remain = It->second - Size;
    C.FreeGaps.erase(It);
    if (Remain)
      C.FreeGaps.emplace(Addr + Size, Remain);
    return Addr;
  }
  return 0;
}

bool CacheManager::carveRange(Fragment::Kind Kind, uint32_t Addr,
                              uint32_t Size) {
  Cache &C = cacheFor(Kind);
  assert(C.End > C.Start && "cache not configured");
  Size = (Size + 3u) & ~3u;
  if (Size == 0)
    return false;
  // The containing gap starts at or before Addr.
  auto It = C.FreeGaps.upper_bound(Addr);
  if (It == C.FreeGaps.begin())
    return false;
  --It;
  uint32_t GapAddr = It->first, GapSize = It->second;
  if (Addr < GapAddr || Addr + Size > GapAddr + GapSize)
    return false;
  C.FreeGaps.erase(It);
  if (Addr > GapAddr)
    C.FreeGaps.emplace(GapAddr, Addr - GapAddr);
  if (GapAddr + GapSize > Addr + Size)
    C.FreeGaps.emplace(Addr + Size, GapAddr + GapSize - (Addr + Size));
  return true;
}

uint32_t CacheManager::allocateEvicting(
    Fragment::Kind Kind, uint32_t Size, const std::vector<uint32_t> &GuardPcs,
    const std::function<void(Fragment *)> &Evict) {
  Cache &C = cacheFor(Kind);
  if (!fits(Kind, Size))
    return 0; // no eviction can make room for it
  for (;;) {
    if (uint32_t Addr = allocate(Kind, Size, GuardPcs))
      return Addr;
    // Pop the oldest live fragment; entries of already-retired fragments
    // are skipped lazily (a FIFO entry is live only while the slot map
    // still points at it).
    Fragment *Victim = nullptr;
    while (!C.Fifo.empty()) {
      Fragment *F = C.Fifo.front();
      C.Fifo.pop_front();
      auto It = C.Slots.find(F->CacheAddr);
      if (It != C.Slots.end() && It->second == F) {
        Victim = F;
        break;
      }
    }
    if (!Victim)
      return 0; // nothing evictable left (remaining slots may be guarded)
    Evict(Victim);
    assert((C.Slots.find(Victim->CacheAddr) == C.Slots.end() ||
            C.Slots[Victim->CacheAddr] != Victim) &&
           "Evict callback must retire the victim");
  }
}

//===----------------------------------------------------------------------===//
// Fragment lifecycle
//===----------------------------------------------------------------------===//

void CacheManager::registerFragment(Fragment *Frag) {
  Cache &C = cacheFor(Frag->FragKind);
  assert(Frag->CacheAddr >= C.Start &&
         Frag->CacheAddr + slotSize(Frag) <= C.End && "fragment outside cache");
  C.Slots[Frag->CacheAddr] = Frag;
  C.Fifo.push_back(Frag);
  C.Used += slotSize(Frag);
  C.Peak = std::max(C.Peak, C.Used);
  ++C.Live;
  for (const AppRange &R : Frag->AppRanges) {
    if (R.Lo >= R.Hi)
      continue;
    for (uint32_t L = R.Lo / Machine::WriteWatchLine,
                  L1 = (R.Hi - 1) / Machine::WriteWatchLine;
         L <= L1; ++L)
      AppIndex[L].push_back(Frag);
    if (WatchWrites)
      M.addWriteWatch(R.Lo, R.Hi);
  }
  publishOccupancy(Frag->FragKind);
}

void CacheManager::retireFragment(Fragment *Frag) {
  Cache &C = cacheFor(Frag->FragKind);
  auto It = C.Slots.find(Frag->CacheAddr);
  if (It == C.Slots.end() || It->second != Frag)
    return; // never registered, or already retired
  C.Slots.erase(It);
  C.Pending.push_back({Frag->CacheAddr, slotSize(Frag)});
  C.Used -= slotSize(Frag);
  --C.Live;
  for (const AppRange &R : Frag->AppRanges) {
    if (R.Lo >= R.Hi)
      continue;
    for (uint32_t L = R.Lo / Machine::WriteWatchLine,
                  L1 = (R.Hi - 1) / Machine::WriteWatchLine;
         L <= L1; ++L) {
      auto AIt = AppIndex.find(L);
      if (AIt == AppIndex.end())
        continue;
      auto &Vec = AIt->second;
      Vec.erase(std::remove(Vec.begin(), Vec.end(), Frag), Vec.end());
      if (Vec.empty())
        AppIndex.erase(AIt);
    }
    if (WatchWrites)
      M.removeWriteWatch(R.Lo, R.Hi);
  }
  publishOccupancy(Frag->FragKind);
}

void CacheManager::reclaimPending(const std::vector<uint32_t> &GuardPcs) {
  for (Cache &C : Caches) {
    if (C.Pending.empty())
      continue;
    std::vector<PendingSlot> Kept;
    for (auto &Slot : C.Pending) {
      if (slotContainsAny(Slot.Addr, Slot.Size, GuardPcs)) {
        Kept.push_back(Slot); // some thread may still re-enter these bytes
        continue;
      }
      RIO_TRACE(Trace, M.cycles(), ActiveTid ? *ActiveTid : 0,
                TraceEventKind::SlotReclaimed, Slot.Addr, Slot.Size);
      freeRange(C, Slot.Addr, Slot.Size);
    }
    C.Pending = std::move(Kept);
  }
}

void CacheManager::freeRange(Cache &C, uint32_t Addr, uint32_t Size) {
  // Merge with the following gap, then with the preceding one.
  auto Next = C.FreeGaps.lower_bound(Addr);
  if (Next != C.FreeGaps.end() && Addr + Size == Next->first) {
    Size += Next->second;
    Next = C.FreeGaps.erase(Next);
  }
  if (Next != C.FreeGaps.begin()) {
    auto Prev = std::prev(Next);
    if (Prev->first + Prev->second == Addr) {
      Prev->second += Size;
      return;
    }
  }
  C.FreeGaps.emplace(Addr, Size);
}

//===----------------------------------------------------------------------===//
// Queries
//===----------------------------------------------------------------------===//

void CacheManager::fragmentsOverlappingApp(AppPc Lo, AppPc Hi,
                                           std::vector<Fragment *> &Out) const {
  if (Lo >= Hi || AppIndex.empty())
    return;
  for (uint32_t L = Lo / Machine::WriteWatchLine,
                L1 = (Hi - 1) / Machine::WriteWatchLine;
       L <= L1; ++L) {
    auto It = AppIndex.find(L);
    if (It == AppIndex.end())
      continue;
    for (Fragment *F : It->second)
      if (F->overlapsApp(Lo, Hi) &&
          std::find(Out.begin(), Out.end(), F) == Out.end())
        Out.push_back(F);
  }
}

bool CacheManager::anyFragmentTouchesApp(AppPc Lo, AppPc Hi) const {
  if (Lo >= Hi || AppIndex.empty())
    return false;
  for (uint32_t L = Lo / Machine::WriteWatchLine,
                L1 = (Hi - 1) / Machine::WriteWatchLine;
       L <= L1; ++L) {
    auto It = AppIndex.find(L);
    if (It == AppIndex.end())
      continue;
    for (Fragment *F : It->second)
      if (F->overlapsApp(Lo, Hi))
        return true;
  }
  return false;
}

Fragment *CacheManager::fragmentAt(uint32_t CachePc) const {
  for (const Cache &C : Caches) {
    if (CachePc < C.Start || CachePc >= C.End || C.Slots.empty())
      continue;
    auto It = C.Slots.upper_bound(CachePc);
    if (It == C.Slots.begin())
      continue;
    --It;
    if (slotContains(It->first, slotSize(It->second), CachePc))
      return It->second;
  }
  return nullptr;
}

//===----------------------------------------------------------------------===//
// Accounting
//===----------------------------------------------------------------------===//

uint32_t CacheManager::capacity(Fragment::Kind Kind) const {
  const Cache &C = cacheFor(Kind);
  return C.End - C.Start;
}

uint32_t CacheManager::usedBytes(Fragment::Kind Kind) const {
  return cacheFor(Kind).Used;
}

uint32_t CacheManager::totalUsedBytes() const {
  return usedBytes(Fragment::Kind::BasicBlock) +
         usedBytes(Fragment::Kind::Trace);
}

uint32_t CacheManager::peakBytes(Fragment::Kind Kind) const {
  return cacheFor(Kind).Peak;
}

uint32_t CacheManager::liveFragments(Fragment::Kind Kind) const {
  return cacheFor(Kind).Live;
}

uint32_t CacheManager::pendingReclaimBytes(Fragment::Kind Kind) const {
  const Cache &C = cacheFor(Kind);
  uint32_t Total = 0;
  for (const auto &Slot : C.Pending)
    Total += Slot.Size;
  return Total;
}

void CacheManager::publishOccupancy(Fragment::Kind Kind) {
  const Cache &C = cacheFor(Kind);
  OccupancyStats &O = Occupancy[Kind == Fragment::Kind::Trace ? 1 : 0];
  O.UsedBytes = C.Used;
  O.PeakBytes = C.Peak;
  O.LiveFragments = C.Live;
}

} // namespace rio
