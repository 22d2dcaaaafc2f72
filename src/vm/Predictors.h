//===- vm/Predictors.h - Branch prediction structures ----------------------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three predictor structures of the simulated front end. Their
/// asymmetry carries a key result of the paper: "The Pentium processors
/// have return address predictors, but not indirect jump predictors,
/// penalizing DynamoRIO" — native `ret`s ride the return-address stack,
/// while translated indirect jumps only get a last-target BTB.
///
//===----------------------------------------------------------------------===//

#ifndef RIO_VM_PREDICTORS_H
#define RIO_VM_PREDICTORS_H

#include "isa/Operand.h"

#include <cstdint>

namespace rio {

/// Two-bit-counter conditional predictor, a last-target BTB for indirect
/// jumps/calls, and a return-address stack.
class BranchPredictors {
public:
  /// Predicts the conditional branch at \p Pc and updates the counter.
  /// \returns true if the prediction was correct.
  bool predictCond(AppPc Pc, bool Taken) {
    uint8_t &Counter = CondTable[hash(Pc)];
    bool Predicted = Counter >= 2;
    if (Taken) {
      if (Counter < 3)
        ++Counter;
    } else {
      if (Counter > 0)
        --Counter;
    }
    return Predicted == Taken;
  }

  /// Predicts the indirect branch at \p Pc via the BTB and updates it.
  /// \returns true on a correct last-target prediction.
  bool predictIndirect(AppPc Pc, AppPc Target) {
    uint32_t &Entry = Btb[hash(Pc)];
    bool Correct = Entry == Target;
    Entry = Target;
    return Correct;
  }

  /// Records a call's return address on the return-address stack.
  void pushReturn(AppPc ReturnAddr) {
    Ras[RasTop & (RasDepth - 1)] = ReturnAddr;
    ++RasTop;
  }

  /// Pops the return-address stack at a `ret`; \returns true if the
  /// predicted return address matches \p Target.
  bool popReturn(AppPc Target) {
    if (RasTop == 0)
      return false;
    --RasTop;
    return Ras[RasTop & (RasDepth - 1)] == Target;
  }

  void reset() {
    for (auto &C : CondTable)
      C = 1; // weakly not-taken
    for (auto &B : Btb)
      B = 0;
    for (auto &R : Ras)
      R = 0; // never predicted from, but saved in cache images
    RasTop = 0;
  }

  BranchPredictors() { reset(); }

  static constexpr unsigned TableBits = 12;
  static constexpr unsigned CondEntries = 1u << TableBits;
  static constexpr unsigned BtbEntries = 1u << TableBits;
  static constexpr unsigned RasDepth = 64;

  /// Raw predictor state, exposed for the persistent cache image
  /// (src/persist). The image snapshots the simulated front end along with
  /// the code caches: a freshly reset two-bit counter can settle into a
  /// different — costlier — limit cycle on a periodic branch pattern, so
  /// restoring the tables is what makes a warm start reproduce the saved
  /// run's steady-state cycle accounting exactly.
  uint8_t *condTable() { return CondTable; }
  uint32_t *btb() { return Btb; }
  uint32_t *ras() { return Ras; }
  uint32_t &rasTop() { return RasTop; }

private:
  static uint32_t hash(AppPc Pc) {
    return (Pc ^ (Pc >> TableBits)) & ((1u << TableBits) - 1);
  }

  uint8_t CondTable[CondEntries];
  uint32_t Btb[BtbEntries];
  uint32_t Ras[RasDepth];
  uint32_t RasTop = 0;
};

} // namespace rio

#endif // RIO_VM_PREDICTORS_H
