//===- support/EventTrace.cpp - Fragment-lifecycle event tracing -----------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//

#include "support/EventTrace.h"

#include "support/OutStream.h"

#include <algorithm>

using namespace rio;

const char *rio::traceEventKindName(TraceEventKind Kind) {
  switch (Kind) {
  case TraceEventKind::FragmentBuilt:
    return "fragment_built";
  case TraceEventKind::FragmentLinked:
    return "fragment_linked";
  case TraceEventKind::FragmentUnlinked:
    return "fragment_unlinked";
  case TraceEventKind::FragmentDeleted:
    return "fragment_deleted";
  case TraceEventKind::TraceHeadMarked:
    return "trace_head_marked";
  case TraceEventKind::TraceGenStarted:
    return "trace_gen_started";
  case TraceEventKind::TraceBuilt:
    return "trace_built";
  case TraceEventKind::TraceAborted:
    return "trace_aborted";
  case TraceEventKind::IblHit:
    return "ibl_hit";
  case TraceEventKind::IblMiss:
    return "ibl_miss";
  case TraceEventKind::CacheEvicted:
    return "cache_evicted";
  case TraceEventKind::CacheFlushed:
    return "cache_flushed";
  case TraceEventKind::RegionFlushed:
    return "region_flushed";
  case TraceEventKind::SmcInvalidated:
    return "smc_invalidated";
  case TraceEventKind::SlotReclaimed:
    return "slot_reclaimed";
  case TraceEventKind::ThreadScheduled:
    return "thread_scheduled";
  case TraceEventKind::ContextSwapped:
    return "context_swapped";
  case TraceEventKind::Sample:
    return "sample";
  case TraceEventKind::ClientMarker:
    return "client_marker";
  case TraceEventKind::IbInlineRewrite:
    return "ib_inline_rewrite";
  case TraceEventKind::IbInlineHit:
    return "ib_inline_hit";
  case TraceEventKind::IbInlineArmUnlink:
    return "ib_inline_arm_unlink";
  case TraceEventKind::PersistSaved:
    return "persist_save";
  case TraceEventKind::PersistLoaded:
    return "persist_load";
  case TraceEventKind::PersistRejected:
    return "persist_reject";
  case TraceEventKind::SidelineEnqueued:
    return "sideline_enqueued";
  case TraceEventKind::SidelinePublished:
    return "sideline_published";
  case TraceEventKind::SidelineStaleDrop:
    return "sideline_stale_drop";
  case TraceEventKind::NumKinds:
    break;
  }
  return "unknown";
}

static size_t roundUpPow2(size_t V) {
  size_t P = 1;
  while (P < V)
    P <<= 1;
  return P;
}

EventTrace::EventTrace(size_t Capacity)
    : Ring(roundUpPow2(std::max<size_t>(Capacity, 2))),
      Mask(Ring.size() - 1) {}

uint32_t EventTrace::internLabel(const std::string &Label) {
  auto It = LabelIds.find(Label);
  if (It != LabelIds.end())
    return It->second;
  uint32_t Id = uint32_t(Labels.size());
  Labels.push_back(Label);
  LabelIds.emplace(Label, Id);
  return Id;
}

const std::string &EventTrace::label(uint32_t Id) const {
  static const std::string Empty;
  return Id < Labels.size() ? Labels[Id] : Empty;
}

static void writeJsonString(OutStream &OS, const std::string &S) {
  OS << "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      OS.printf("\\%c", C);
    else if (uint8_t(C) < 0x20)
      OS.printf("\\u%04x", unsigned(uint8_t(C)));
    else
      OS.printf("%c", C);
  }
  OS << "\"";
}

void rio::writeChromeTrace(OutStream &OS, const EventTrace &Trace) {
  OS << "{\"traceEvents\":[\n";
  OS << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
        "\"args\":{\"name\":\"riodyn\"}}";

  // One named track per thread that appears in the stream, in tid order so
  // the output is deterministic.
  std::vector<uint16_t> Tids;
  Trace.forEach([&](const TraceEvent &E) {
    if (std::find(Tids.begin(), Tids.end(), E.Tid) == Tids.end())
      Tids.push_back(E.Tid);
  });
  std::sort(Tids.begin(), Tids.end());
  for (uint16_t Tid : Tids)
    OS.printf(",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
              "\"tid\":%u,\"args\":{\"name\":\"app thread %u\"}}",
              unsigned(Tid), unsigned(Tid));

  // Thread-scoped instant events, timestamped with the simulated cycle
  // clock (1 cycle = 1 us on the viewer's axis).
  Trace.forEach([&](const TraceEvent &E) {
    OS << ",\n{\"name\":";
    if (E.kind() == TraceEventKind::ClientMarker)
      writeJsonString(OS, Trace.label(E.Tag));
    else
      writeJsonString(OS, traceEventKindName(E.kind()));
    OS.printf(",\"ph\":\"i\",\"s\":\"t\",\"ts\":%llu,\"pid\":1,\"tid\":%u,"
              "\"args\":{\"tag\":\"0x%x\",\"aux\":\"0x%x\"}}",
              (unsigned long long)E.Cycles, unsigned(E.Tid), E.Tag, E.Aux);
  });

  OS.printf("\n],\"otherData\":{\"droppedEvents\":%llu,"
            "\"totalRecorded\":%llu}}\n",
            (unsigned long long)Trace.droppedEvents(),
            (unsigned long long)Trace.totalRecorded());
}
