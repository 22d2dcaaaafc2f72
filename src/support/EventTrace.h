//===- support/EventTrace.h - Fragment-lifecycle event tracing -------------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed-capacity binary ring buffer of timestamped runtime events — the
/// observability substrate the paper's Section 7 tools (and every perf PR
/// in this repo) read. Each event is a small POD record stamped with the
/// *simulated* cycle clock, the active thread id, and a fragment tag /
/// cache pc pair, so event streams are bit-identical across runs of the
/// same workload and carry per-thread attribution under shared caches.
///
/// Recording is purely host-side: it never charges simulated cycles, so a
/// traced run reports exactly the same cycle counts and flow statistics as
/// an untraced one. Call sites go through the RIO_TRACE macro, which
/// compiles out entirely under -DRIO_DISABLE_TRACING and otherwise costs a
/// single predictable branch (null sink or disabled knob) when tracing is
/// off.
///
//===----------------------------------------------------------------------===//

#ifndef RIO_SUPPORT_EVENTTRACE_H
#define RIO_SUPPORT_EVENTTRACE_H

#include "support/Compiler.h"

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace rio {

class OutStream;

/// What happened. The payload fields Tag/Aux are kind-specific; the
/// comments give the convention each instrumentation site follows.
enum class TraceEventKind : uint8_t {
  FragmentBuilt,     ///< Tag = app tag, Aux = cache addr
  FragmentLinked,    ///< Tag = source tag, Aux = target tag
  FragmentUnlinked,  ///< Tag = former target tag, Aux = stub addr
  FragmentDeleted,   ///< Tag = app tag, Aux = cache addr
  TraceHeadMarked,   ///< Tag = head tag
  TraceGenStarted,   ///< Tag = head tag
  TraceBuilt,        ///< Tag = head tag, Aux = constituent block count
  TraceAborted,      ///< Tag = head tag
  IblHit,            ///< Tag = branch target tag, Aux = hit fragment addr
  IblMiss,           ///< Tag = branch target tag, Aux = branch site cache pc
  CacheEvicted,      ///< Tag = victim tag, Aux = victim slot bytes
  CacheFlushed,      ///< Aux = fragments deleted (both caches)
  RegionFlushed,     ///< Tag = region start, Aux = region size
  SmcInvalidated,    ///< Tag = victim tag, Aux = victim cache addr
  SlotReclaimed,     ///< Tag = slot cache addr, Aux = slot bytes
  ThreadScheduled,   ///< Tag = scheduled tid (one event per quantum slice)
  ContextSwapped,    ///< Tag = outgoing tid, Aux = incoming tid
  Sample,            ///< Tag = executing tag (0 = runtime), Aux = cache pc
  ClientMarker,      ///< Tag = interned label id, Aux = client value
  IbInlineRewrite,   ///< Tag = chain owner tag, Aux = targets inlined
  IbInlineHit,       ///< Tag = matched target tag, Aux = arm cache pc
  IbInlineArmUnlink, ///< Tag = former target tag, Aux = arm stub addr
  PersistSaved,      ///< Tag = fragments saved, Aux = image bytes
  PersistLoaded,     ///< Tag = fragments restored, Aux = image bytes
  PersistRejected,   ///< Tag = reject reason (persist::LoadStatus)
  SidelineEnqueued,  ///< Tag = trace tag, Aux = async job sequence number
  SidelinePublished, ///< Tag = trace tag, Aux = new version's cache addr
  SidelineStaleDrop, ///< Tag = trace tag, Aux = async job sequence number
  NumKinds,
};

/// Stable display name ("fragment_built", ...).
const char *traceEventKindName(TraceEventKind Kind);

/// One ring entry. Packed POD so streams can be compared byte for byte.
struct TraceEvent {
  uint64_t Cycles = 0; ///< simulated cycle clock at the event
  uint32_t Tag = 0;    ///< kind-specific (usually an application tag)
  uint32_t Aux = 0;    ///< kind-specific (usually a cache pc / count)
  uint16_t Tid = 0;    ///< active thread context at the event
  uint8_t Kind = 0;    ///< TraceEventKind

  TraceEventKind kind() const { return TraceEventKind(Kind); }
  bool operator==(const TraceEvent &O) const {
    return Cycles == O.Cycles && Tag == O.Tag && Aux == O.Aux &&
           Tid == O.Tid && Kind == O.Kind;
  }
  bool operator!=(const TraceEvent &O) const { return !(*this == O); }
};

/// See file comment. Capacity is rounded up to a power of two; when the
/// ring is full the oldest events are overwritten and counted as dropped.
class EventTrace {
public:
  using Hook = std::function<void(const TraceEvent &)>;

  explicit EventTrace(size_t Capacity = 1u << 16);

  bool enabled() const { return Enabled; }
  /// The runtime knob: a disabled trace keeps its contents but records
  /// nothing, and the per-site cost is the macro's single branch.
  void setEnabled(bool On) { Enabled = On; }

  /// Appends one event (call through RIO_TRACE, not directly, so the site
  /// compiles out under RIO_DISABLE_TRACING).
  void record(uint64_t Cycles, uint32_t Tid, TraceEventKind Kind, uint32_t Tag,
              uint32_t Aux) {
    TraceEvent &E = Ring[size_t(Next) & Mask];
    E.Cycles = Cycles;
    E.Tag = Tag;
    E.Aux = Aux;
    E.Tid = uint16_t(Tid);
    E.Kind = uint8_t(Kind);
    ++Next;
    if (RIO_UNLIKELY(bool(ClientHook)))
      ClientHook(E);
  }

  size_t capacity() const { return Ring.size(); }
  /// Events currently retained (<= capacity()).
  size_t size() const {
    return Next < uint64_t(Ring.size()) ? size_t(Next) : Ring.size();
  }
  /// Events ever recorded, retained or not.
  uint64_t totalRecorded() const { return Next; }
  /// Events overwritten because the ring wrapped.
  uint64_t droppedEvents() const {
    return Next > uint64_t(Ring.size()) ? Next - uint64_t(Ring.size()) : 0;
  }

  /// The \p I-th oldest retained event (0 = oldest, size()-1 = newest).
  const TraceEvent &event(size_t I) const {
    uint64_t First = Next - uint64_t(size());
    return Ring[size_t(First + I) & Mask];
  }

  /// Visits retained events oldest to newest.
  template <typename Fn> void forEach(Fn Visit) const {
    for (size_t I = 0, N = size(); I != N; ++I)
      Visit(event(I));
  }

  /// Discards all retained events and the dropped count; labels, the hook
  /// and the enable knob survive.
  void clear() { Next = 0; }

  /// Client event hook (dr_register_event_hook): called synchronously for
  /// every recorded event. One hook; re-registering replaces it.
  void setHook(Hook H) { ClientHook = std::move(H); }

  /// Interns \p Label for ClientMarker events; stable id per distinct
  /// string.
  uint32_t internLabel(const std::string &Label);
  /// The label behind an interned id ("" if out of range).
  const std::string &label(uint32_t Id) const;

private:
  std::vector<TraceEvent> Ring; ///< power-of-two capacity
  size_t Mask;                  ///< capacity - 1
  uint64_t Next = 0;            ///< total events ever recorded
  bool Enabled = true;
  Hook ClientHook;
  std::vector<std::string> Labels;
  std::map<std::string, uint32_t> LabelIds;
};

/// Writes the retained events as Chrome trace-event JSON (loadable in
/// chrome://tracing and Perfetto). Every event becomes a thread-scoped
/// instant event on its thread's track, timestamped with the simulated
/// cycle clock, so shared-cache runs show one track per application
/// thread. Deterministic byte-for-byte for a deterministic event stream.
void writeChromeTrace(OutStream &OS, const EventTrace &Trace);

} // namespace rio

/// The only sanctioned call site for EventTrace::record. \p SinkPtr may be
/// null (tracing not attached); the disabled cost is this one predictable
/// branch. Compiles out entirely under -DRIO_DISABLE_TRACING.
#ifdef RIO_DISABLE_TRACING
#define RIO_TRACE(SinkPtr, Cycles, Tid, Kind, Tag, Aux) ((void)0)
#else
#define RIO_TRACE(SinkPtr, Cycles, Tid, Kind, Tag, Aux)                        \
  do {                                                                         \
    ::rio::EventTrace *RioTraceSink_ = (SinkPtr);                              \
    if (RIO_UNLIKELY(RioTraceSink_ != nullptr && RioTraceSink_->enabled()))    \
      RioTraceSink_->record((Cycles), (Tid), (Kind), (Tag), (Aux));            \
  } while (0)
#endif

#endif // RIO_SUPPORT_EVENTTRACE_H
