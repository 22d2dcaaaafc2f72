//===- ir/Build.h - Lifting raw bytes into InstrLists ---------------------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Builders that lift a basic block's raw bytes into an InstrList at a
/// chosen level of detail. The runtime's default mirrors the paper's
/// example: "the InstrList for a basic block might contain only two
/// Instrs" — a Level 0 bundle for the straight-line body and a Level 3
/// Instr for the block-ending control transfer.
///
//===----------------------------------------------------------------------===//

#ifndef RIO_IR_BUILD_H
#define RIO_IR_BUILD_H

#include "ir/InstrList.h"

#include "vm/Memory.h"

namespace rio {

/// How a lifted block should be represented.
enum class LiftLevel {
  Bundle0,  ///< one Level 0 bundle + Level 3 terminating CTI
  Raw1,     ///< Level 1 Instr per instruction (+ Level 3 CTI)
  Opcode2,  ///< Level 2 Instr per instruction (+ Level 3 CTI)
  Decoded3, ///< Level 3 Instr per instruction
  Synth4,   ///< Level 4: fully decoded with raw bits invalidated
};

/// Result of scanning one basic block.
struct BlockScan {
  unsigned ByteLength = 0;    ///< total bytes including the terminator
  unsigned NumInstrs = 0;     ///< instruction count
  bool EndsInCti = false;     ///< block ends with a control transfer
  bool EndsInSyscall = false; ///< block ends with int/hlt (OS boundary)
  AppPc FallThrough = 0;      ///< address after the final instruction
};

/// Scans the basic block starting at \p Pc in \p Bytes (of \p Size bytes,
/// where Bytes[0] is address \p Base): instructions up to and including the
/// first control transfer or syscall (the OS boundary ends a block, as
/// DynamoRIO must intercept kernel transfers). Stops after \p MaxInstrs
/// instructions.
/// \returns false on undecodable bytes.
bool scanBlock(const uint8_t *Bytes, size_t Size, AppPc Base, AppPc Pc,
               unsigned MaxInstrs, BlockScan &Scan);

/// Lifts the basic block at \p Pc into \p IL at the given level of detail.
/// \p Bytes/\p Size/\p Base describe the application image as in scanBlock.
/// The raw bytes behind every created Instr — bundles included — are
/// copied into the InstrList's arena, so the Instrs never reference the
/// caller's bytes.
/// \returns false on undecodable bytes.
bool liftBlock(InstrList &IL, const uint8_t *Bytes, size_t Size, AppPc Base,
               AppPc Pc, unsigned MaxInstrs, LiftLevel Level);

/// liftBlock over the paged memory image, also filling in \p Scan as
/// scanBlock would, so a builder decodes the block once. Only addresses
/// below \p Limit (the application-region size) are decodable. Fetches go
/// through bounded windows, so page-straddling instructions are handled;
/// the arena copies matter, as copy-on-write pages may move on a write.
bool liftBlock(InstrList &IL, const MemoryImage &Mem, uint32_t Limit,
               AppPc Pc, unsigned MaxInstrs, LiftLevel Level, BlockScan &Scan);

} // namespace rio

#endif // RIO_IR_BUILD_H
