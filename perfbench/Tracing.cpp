//===- perfbench/Tracing.cpp - Spans and hook timing for the traced run ----===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//

#include "Tracing.h"

#include <cstdio>

using namespace riobench;

int SpanLog::open(const char *Name) {
  Spans.push_back({Name, Cur, nowNs(), 0, 0});
  Cur = int(Spans.size() - 1);
  return Cur;
}

void SpanLog::close(int Id) {
  Record &R = Spans[size_t(Id)];
  R.EndNs = nowNs();
  if (R.Parent >= 0)
    Spans[size_t(R.Parent)].ChildNs += R.EndNs - R.StartNs;
  Cur = R.Parent;
}

void SpanLog::addHookNs(int64_t Ns) {
  if (Cur >= 0)
    Spans[size_t(Cur)].ChildNs += Ns;
}

std::map<std::string, double> SpanLog::selfMs() const {
  std::map<std::string, double> Out;
  for (const Record &R : Spans)
    Out[R.Name] += double(R.EndNs - R.StartNs - R.ChildNs) / 1e6;
  return Out;
}

bool SpanLog::writeChromeTrace(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  int64_t Origin = Spans.empty() ? 0 : Spans.front().StartNs;
  std::fprintf(F, "{\"traceEvents\": [\n");
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Record &R = Spans[I];
    std::fprintf(F,
                 "  {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                 "\"parent\": %d, \"self_us\": %.3f}}%s\n",
                 R.Name, double(R.StartNs - Origin) / 1e3,
                 double(R.EndNs - R.StartNs) / 1e3, I, R.Parent,
                 double(R.EndNs - R.StartNs - R.ChildNs) / 1e3,
                 I + 1 == Spans.size() ? "" : ",");
  }
  std::fprintf(F, "]}\n");
  return std::fclose(F) == 0;
}

namespace riobench {

/// Times one forwarded hook call into \p Bucket and charges it to the
/// enclosing span.
class HookTimer {
public:
  HookTimer(TimedClient &C, int64_t &Bucket)
      : C(C), Bucket(Bucket), StartNs(nowNs()) {
    ++C.Tally.Calls;
  }
  ~HookTimer() {
    int64_t Ns = nowNs() - StartNs;
    Bucket += Ns;
    C.Log.addHookNs(Ns);
  }
  HookTimer(const HookTimer &) = delete;
  HookTimer &operator=(const HookTimer &) = delete;

private:
  TimedClient &C;
  int64_t &Bucket;
  int64_t StartNs;
};

} // namespace riobench

void TimedClient::onInit(rio::Runtime &RT) {
  HookTimer T(*this, Tally.OtherNs);
  Inner.onInit(RT);
}

void TimedClient::onExit(rio::Runtime &RT) {
  HookTimer T(*this, Tally.OtherNs);
  Inner.onExit(RT);
}

void TimedClient::onThreadInit(rio::Runtime &RT) {
  HookTimer T(*this, Tally.OtherNs);
  Inner.onThreadInit(RT);
}

void TimedClient::onThreadExit(rio::Runtime &RT) {
  HookTimer T(*this, Tally.OtherNs);
  Inner.onThreadExit(RT);
}

void TimedClient::onBasicBlock(rio::Runtime &RT, rio::AppPc Tag,
                               rio::InstrList &Block) {
  HookTimer T(*this, Tally.BbNs);
  Inner.onBasicBlock(RT, Tag, Block);
}

void TimedClient::onTrace(rio::Runtime &RT, rio::AppPc Tag,
                          rio::InstrList &Trace) {
  HookTimer T(*this, Tally.TraceNs);
  Inner.onTrace(RT, Tag, Trace);
}

void TimedClient::onFragmentDeleted(rio::Runtime &RT, rio::AppPc Tag) {
  HookTimer T(*this, Tally.OtherNs);
  Inner.onFragmentDeleted(RT, Tag);
}

bool TimedClient::onIndirectResolved(rio::Runtime &RT, int BranchOp,
                                     rio::AppPc Target) {
  HookTimer T(*this, Tally.OtherNs);
  return Inner.onIndirectResolved(RT, BranchOp, Target);
}

rio::Client::EndTrace TimedClient::onEndTrace(rio::Runtime &RT,
                                              rio::AppPc TraceTag,
                                              rio::AppPc NextTag) {
  HookTimer T(*this, Tally.OtherNs);
  return Inner.onEndTrace(RT, TraceTag, NextTag);
}

void TimedClient::onSidelinePublish(rio::Runtime &RT, rio::AppPc Tag,
                                    rio::InstrList &IL) {
  HookTimer T(*this, Tally.OtherNs);
  Inner.onSidelinePublish(RT, Tag, IL);
}
