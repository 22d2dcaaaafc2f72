//===- ir/Emit.h - InstrList emission with label resolution ---------------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Emits an InstrList to a flat byte buffer, resolving label operands and
/// choosing short branch forms where permitted. Unmodified instructions
/// (valid raw bits) are copied byte-for-byte — the core fast path of the
/// paper's level-of-detail design; only Level 4 instructions and relocated
/// direct CTIs go through the full encoder.
///
/// Emission is one layout, which fixes every offset and pre-encodes all but
/// the direct CTIs, then one write, which encodes those at their final pcs.
/// Without short branches no length depends on the base, so the runtime
/// lays a list out before it has cache space.
///
//===----------------------------------------------------------------------===//

#ifndef RIO_IR_EMIT_H
#define RIO_IR_EMIT_H

#include "ir/InstrList.h"

#include <cstddef>
#include <utility>
#include <vector>

namespace rio {

/// The layout of one InstrList, indexed by each Instr's position in the
/// list (labels included).
struct EmitResult {
  unsigned TotalSize = 0;
  std::vector<Instr *> Instrs;   ///< the list, by position
  std::vector<unsigned> Offsets; ///< offset of Instrs[Pos] from the base
  std::vector<unsigned> Lengths; ///< bytes reserved for Instrs[Pos]

  /// The laid-out bytes, with the direct CTIs in Ctis still to be encoded.
  std::vector<uint8_t> Bytes;
  /// Positions of the direct CTIs writeInstrList encodes at its base.
  std::vector<unsigned> Ctis;
  /// Each label and its position, for resolving label operands.
  std::vector<std::pair<const Instr *, unsigned>> Labels;
  bool AllowShortBranches = false;
};

/// Lays \p IL out as if placed at \p BaseAddr. With \p AllowShortBranches
/// off, every branch takes its rel32 form (rel8-only jecxz aside) and the
/// layout is valid at any base above the application code.
/// \returns false on encoding failure (including a label out of reach).
bool layoutInstrList(InstrList &IL, AppPc BaseAddr, bool AllowShortBranches,
                     EmitResult &Layout);

/// Writes \p Layout at \p BaseAddr into \p Out (Layout.TotalSize bytes).
/// \p BaseAddr must be the layout's base when it allows short branches.
/// \returns false if a branch cannot reach its target from there.
bool writeInstrList(const EmitResult &Layout, AppPc BaseAddr, uint8_t *Out);

} // namespace rio

#endif // RIO_IR_EMIT_H
