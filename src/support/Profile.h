//===- support/Profile.h - Cycle-driven sampling profiler ------------------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A sampling profiler driven by the *simulated* cycle clock: every N
/// cycles the runtime records which fragment (by application tag) is
/// executing, aggregating per-tag execution profiles. Because the clock is
/// deterministic, so is the profile — the same workload yields the same
/// sample counts on any host, which is what makes the text report a CI
/// artifact rather than a vague hint. Sampling charges no simulated
/// cycles.
///
/// The profiler also owns the distribution histograms the runtime feeds as
/// a side effect of normal operation: fragment sizes at emission, trace
/// lengths at trace build, eviction ages at capacity eviction.
///
//===----------------------------------------------------------------------===//

#ifndef RIO_SUPPORT_PROFILE_H
#define RIO_SUPPORT_PROFILE_H

#include "support/Histogram.h"

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

namespace rio {

class OutStream;

/// See file comment.
class SampleProfile {
public:
  /// Per-tag aggregate. Tag 0 collects samples that hit runtime-internal
  /// code (dispatcher, stubs of retired slots, emission) rather than a
  /// live fragment.
  struct Entry {
    uint32_t Tag = 0;
    uint64_t Samples = 0;      ///< all samples attributed to this tag
    uint64_t TraceSamples = 0; ///< subset taken while a trace was executing
  };

  explicit SampleProfile(uint64_t IntervalCycles = 1000)
      : Interval(IntervalCycles ? IntervalCycles : 1),
        NextAt(Interval) {}

  uint64_t interval() const { return Interval; }

  /// True when the clock has crossed the next sampling point. The hot-path
  /// check; the runtime calls sample() only when it fires.
  bool due(uint64_t Cycles) const { return Cycles >= NextAt; }
  /// The cycle count at which due() next turns true.
  uint64_t nextAt() const { return NextAt; }

  /// Records one sample and advances the sampling point past \p Cycles
  /// (one sample per crossing, however far the clock jumped).
  void sample(uint64_t Cycles, uint32_t Tag, bool IsTrace) {
    Entry &E = ByTag[Tag];
    E.Tag = Tag;
    ++E.Samples;
    if (IsTrace)
      ++E.TraceSamples;
    ++Count;
    if (IsTrace && TraceSampleHook)
      TraceSampleHook(Tag, E.TraceSamples);
    do
      NextAt += Interval;
    while (NextAt <= Cycles);
  }

  /// Continuous consumer of the profile stream: fires on every sample that
  /// lands in a trace, with the tag and its running trace-sample count.
  /// Sampling rides the simulated clock, so the firing sequence is
  /// deterministic; the hook itself must stay host-side (charge nothing).
  void setTraceSampleHook(std::function<void(uint32_t, uint64_t)> Hook) {
    TraceSampleHook = std::move(Hook);
  }

  uint64_t totalSamples() const { return Count; }
  uint64_t samplesFor(uint32_t Tag) const {
    auto It = ByTag.find(Tag);
    return It == ByTag.end() ? 0 : It->second.Samples;
  }

  /// Entries sorted hottest first (ties broken by ascending tag, so the
  /// order — and any report built from it — is deterministic).
  std::vector<Entry> hottest() const;

  /// Discards samples and histograms; the interval is kept and the next
  /// sampling point restarts at \p StartCycles + interval.
  void reset(uint64_t StartCycles = 0) {
    ByTag.clear();
    Count = 0;
    NextAt = StartCycles + Interval;
    FragmentSizes = Histogram();
    TraceLengths = Histogram();
    EvictionAges = Histogram();
  }

  /// Distributions fed by the runtime (see file comment).
  Histogram FragmentSizes; ///< emitted body+stub bytes per fragment
  Histogram TraceLengths;  ///< constituent basic blocks per built trace
  Histogram EvictionAges;  ///< cycles between emission and eviction

private:
  uint64_t Interval;
  uint64_t NextAt;
  uint64_t Count = 0;
  std::unordered_map<uint32_t, Entry> ByTag;
  std::function<void(uint32_t, uint64_t)> TraceSampleHook;
};

/// Writes the deterministic text report: top-\p TopK hot fragments with
/// source-tag attribution and trace/bb split, then the histogram tables.
void writeProfileReport(OutStream &OS, const SampleProfile &Profile,
                        size_t TopK = 20);

} // namespace rio

#endif // RIO_SUPPORT_PROFILE_H
