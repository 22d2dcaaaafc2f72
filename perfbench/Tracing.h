//===- perfbench/Tracing.h - Spans and hook timing for the traced run ------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the benchmark's traced run records, from outside the runtime:
/// spans around the calls it makes into each layer (assemble, load, run,
/// save, freeze, spawn, ...), kept in memory and written out at the end,
/// and a forwarding Client that times every hook the runtime fires. Hook
/// time is charged to the enclosing span as child time, so a span's self
/// time excludes the client's share without storing one span per hook.
///
//===----------------------------------------------------------------------===//

#ifndef RIOBENCH_TRACING_H
#define RIOBENCH_TRACING_H

#include "core/Client.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace riobench {

inline int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// In-memory span recorder. Spans nest: each one opened while another is
/// open becomes its child. Span names must be string literals (stored by
/// pointer).
class SpanLog {
public:
  int open(const char *Name);
  void close(int Id);
  /// Charges \p Ns of client-hook time to the innermost open span.
  void addHookNs(int64_t Ns);
  /// Self time summed per span name, in milliseconds: each span's duration
  /// minus its child spans and the hook time charged to it.
  std::map<std::string, double> selfMs() const;
  /// Writes every span as a Chrome trace ("X" events, microseconds).
  bool writeChromeTrace(const std::string &Path) const;
  void clear() {
    Spans.clear();
    Cur = -1;
  }

private:
  struct Record {
    const char *Name;
    int Parent;
    int64_t StartNs;
    int64_t EndNs;
    int64_t ChildNs;
  };
  std::vector<Record> Spans;
  int Cur = -1;
};

/// A scoped span; a null log makes it free (the untraced runs).
class Span {
public:
  Span(SpanLog *Log, const char *Name)
      : Log(Log), Id(Log ? Log->open(Name) : -1) {}
  ~Span() { end(); }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;
  void end() {
    if (Log && Id >= 0)
      Log->close(Id);
    Id = -1;
  }

private:
  SpanLog *Log;
  int Id;
};

/// Calls and host time of the hooks one TimedClient forwarded.
struct HookTally {
  uint64_t Calls = 0;
  int64_t BbNs = 0;
  int64_t TraceNs = 0;
  int64_t OtherNs = 0;
};

/// Forwards every hook to \p Inner, timing and counting each call. The
/// answers of sidelineSafe() and persistSafe() are Inner's, so wrapping a
/// client changes neither what the runtime may do with it nor any
/// simulated cycle.
class TimedClient final : public rio::Client {
public:
  TimedClient(rio::Client &Inner, SpanLog &Log, HookTally &Tally)
      : Inner(Inner), Log(Log), Tally(Tally) {}

  void onInit(rio::Runtime &RT) override;
  void onExit(rio::Runtime &RT) override;
  void onThreadInit(rio::Runtime &RT) override;
  void onThreadExit(rio::Runtime &RT) override;
  void onBasicBlock(rio::Runtime &RT, rio::AppPc Tag,
                    rio::InstrList &Block) override;
  void onTrace(rio::Runtime &RT, rio::AppPc Tag,
               rio::InstrList &Trace) override;
  void onFragmentDeleted(rio::Runtime &RT, rio::AppPc Tag) override;
  bool onIndirectResolved(rio::Runtime &RT, int BranchOp,
                          rio::AppPc Target) override;
  EndTrace onEndTrace(rio::Runtime &RT, rio::AppPc TraceTag,
                      rio::AppPc NextTag) override;
  void onSidelinePublish(rio::Runtime &RT, rio::AppPc Tag,
                         rio::InstrList &IL) override;
  bool sidelineSafe() const override { return Inner.sidelineSafe(); }
  bool persistSafe() const override { return Inner.persistSafe(); }

private:
  friend class HookTimer;
  rio::Client &Inner;
  SpanLog &Log;
  HookTally &Tally;
};

} // namespace riobench

#endif // RIOBENCH_TRACING_H
