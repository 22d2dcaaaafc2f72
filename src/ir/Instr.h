//===- ir/Instr.h - Adaptive level-of-detail instructions -----------------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Instr data structure with the paper's five adaptive levels of detail
/// (Section 3.1, Figure 2):
///
///   Level 0  a *bundle*: raw bytes of a whole series of un-decoded
///            instructions; only the final boundary is recorded.
///   Level 1  raw bytes of a single instruction, un-decoded.
///   Level 2  opcode and eflags effects known (enough to tell whether
///            eflags must be preserved around inserted code).
///   Level 3  fully decoded operands, raw bytes still valid -> encoding is
///            a byte copy.
///   Level 4  modified or newly created; raw bytes invalid -> encoding must
///            run the full (expensive) encoder.
///
/// Levels adjust automatically: querying the opcode of a Level 1 Instr
/// performs a Level 2 decode; touching an operand invalidates the raw bytes
/// and moves the Instr to Level 4. "Switching incrementally between levels
/// costs no more than a single switch spanning multiple levels."
///
//===----------------------------------------------------------------------===//

#ifndef RIO_IR_INSTR_H
#define RIO_IR_INSTR_H

#include "isa/Decode.h"
#include "isa/Eflags.h"
#include "isa/Opcodes.h"
#include "isa/Operand.h"

#include "support/Arena.h"

namespace rio {

class InstrList;

/// A single instruction (or Level 0 bundle of instructions) in an InstrList.
///
/// Instrs are arena-allocated; create them through the static factory
/// functions (or the INSTR_CREATE_* client macros, which forward here).
class Instr {
public:
  enum class Level : uint8_t {
    Bundle = 0,  ///< raw bytes of several instructions
    Raw = 1,     ///< raw bytes of one instruction
    OpcodeKnown = 2, ///< + opcode and eflags effects
    Decoded = 3, ///< + full operands; raw bytes still valid
    Synth = 4,   ///< full operands; raw bytes invalid
  };

  //===--------------------------------------------------------------------===
  // Creation
  //===--------------------------------------------------------------------===

  /// Creates a Level 0 bundle covering \p Len raw bytes at \p Bytes, whose
  /// original application address is \p AppAddr. The bytes are *referenced*,
  /// not copied (they belong to the application image or code cache).
  static Instr *createBundle(Arena &A, const uint8_t *Bytes, unsigned Len,
                             AppPc AppAddr);

  /// Creates a Level 1 Instr for the single instruction at \p Bytes.
  static Instr *createRaw(Arena &A, const uint8_t *Bytes, unsigned Len,
                          AppPc AppAddr);

  /// Creates a Level 2 Instr (opcode + eflags known, operands not decoded).
  static Instr *createOpcodeKnown(Arena &A, const uint8_t *Bytes, unsigned Len,
                                  AppPc AppAddr, Opcode Op, uint32_t Eflags);

  /// Creates a Level 3 Instr from a completed full decode whose raw bytes
  /// live at \p Bytes.
  static Instr *createDecoded(Arena &A, const DecodedInstr &DI,
                              const uint8_t *Bytes, AppPc AppAddr);

  /// Creates a Level 4 Instr from explicit operands (the INSTR_CREATE_*
  /// path). Returns nullptr if the operands fit no form of \p Op.
  static Instr *createSynth(Arena &A, Opcode Op,
                            std::initializer_list<Operand> Explicit);

  /// Creates a Level 4 label pseudo-instruction (branch target inside an
  /// InstrList under construction).
  static Instr *createLabel(Arena &A);

  //===--------------------------------------------------------------------===
  // Level management
  //===--------------------------------------------------------------------===

  Level level() const { return TheLevel; }
  bool isBundle() const { return TheLevel == Level::Bundle; }
  bool rawBitsValid() const { return TheLevel != Level::Synth; }

  /// Raises this Instr to at least Level 2 (decoding if needed).
  void upgradeToOpcode();

  /// Raises this Instr to at least Level 3 (full decode if needed).
  void upgradeToDecoded();

  /// Invalidates the raw bytes, moving this Instr to Level 4. Called
  /// automatically by every mutator.
  void invalidateRawBits();

  //===--------------------------------------------------------------------===
  // Queries (raise the level as required)
  //===--------------------------------------------------------------------===

  /// The opcode (Level >= 2; upgrades on demand).
  Opcode getOpcode() {
    if (TheLevel < Level::OpcodeKnown)
      upgradeToOpcode();
    return Op;
  }

  /// Combined EFLAGS_READ_* | EFLAGS_WRITE_* effect mask (Level >= 2).
  uint32_t getEflags() {
    if (TheLevel < Level::OpcodeKnown)
      upgradeToOpcode();
    return Eflags;
  }

  uint8_t getPrefixes() {
    if (TheLevel < Level::OpcodeKnown)
      upgradeToOpcode();
    return Prefixes;
  }
  void setPrefixes(uint8_t NewPrefixes);

  unsigned numSrcs() {
    upgradeToDecoded();
    return NumSrcs;
  }
  unsigned numDsts() {
    upgradeToDecoded();
    return NumDsts;
  }
  const Operand &getSrc(unsigned Idx) {
    upgradeToDecoded();
    assert(Idx < NumSrcs && "source index out of range");
    return Srcs[Idx];
  }
  const Operand &getDst(unsigned Idx) {
    upgradeToDecoded();
    assert(Idx < NumDsts && "destination index out of range");
    return Dsts[Idx];
  }

  /// Mutators: move the Instr to Level 4.
  void setSrc(unsigned Idx, const Operand &Op);
  void setDst(unsigned Idx, const Operand &Op);

  /// The original application address (0 for synthesized instructions).
  AppPc appAddr() const { return AppAddr; }
  void setAppAddr(AppPc Pc) { AppAddr = Pc; }

  /// Raw encoded bytes (valid when rawBitsValid()).
  const uint8_t *rawBits() const {
    assert(rawBitsValid() && "raw bits are invalid at Level 4");
    return Bytes;
  }
  unsigned rawLength() const {
    assert(rawBitsValid() && "raw bits are invalid at Level 4");
    return RawLen;
  }

  //===--------------------------------------------------------------------===
  // Classification (needs Level >= 2)
  //===--------------------------------------------------------------------===

  bool isCti() { return opcodeIsCti(getOpcode()); }
  bool isCondBranch() { return opcodeIsCondBranch(getOpcode()); }
  bool isCall() { return opcodeIsCall(getOpcode()); }
  bool isReturn() { return opcodeIsReturn(getOpcode()); }
  bool isIndirectCti() { return opcodeIsIndirectCti(getOpcode()); }
  bool isDirectCti() { return isCti() && !isIndirectCti(); }
  bool isLabel() { return TheLevel == Level::Synth && Op == OP_label; }
  bool isSyscall() {
    return (opcodeInfo(getOpcode()).Flags & OPF_SYSCALL) != 0;
  }

  /// True if any source operand reads memory (address operands of stores
  /// count as address computation, not reads).
  bool readsMemory();
  /// True if any destination operand writes memory.
  bool writesMemory();

  /// The direct branch target (requires a direct CTI whose target operand
  /// is a resolved pc).
  AppPc branchTarget() {
    upgradeToDecoded();
    assert(isDirectCti() && Srcs[0].isPc() && "not a resolved direct CTI");
    return Srcs[0].getPc();
  }

  /// Replaces the direct branch target (stays a pc operand).
  void setBranchTarget(AppPc Target);

  /// For CTIs whose target is a label Instr in the same list.
  void setBranchTargetLabel(Instr *Label);

  //===--------------------------------------------------------------------===
  // Exit annotations (used by the runtime for cache-bound lists)
  //===--------------------------------------------------------------------===

  /// Marks this CTI as a fragment exit. \p ExitIndex identifies the exit
  /// stub it is associated with.
  void setExitCti(bool IsExit) { ExitCti = IsExit; }
  bool isExitCti() const { return ExitCti; }

  /// Marks a direct CTI as the match arm of an adaptive indirect-branch
  /// inline chain: the emitter gives its exit a pass-through stub that
  /// re-routes via IbTargetSlot -> IBL instead of the dispatcher, so the
  /// arm can be unlinked without touching the chain owner.
  void setIbArmCti(bool IsArm) { IbArmCti = IsArm; }
  bool isIbArmCti() const { return IbArmCti; }

  /// Marks the indirect CTI that terminates an inline chain (the
  /// fall-through to the IBL when no arm matched); the runtime counts its
  /// arrivals as chain misses and never rewrites it again.
  void setIbMissCti(bool IsMiss) { IbMissCti = IsMiss; }
  bool isIbMissCti() const { return IbMissCti; }

  /// Client annotation slot (paper Section 3.2: "a field in the Instr data
  /// structure that can be used by the client for annotations").
  void setNote(void *N) { Note = N; }
  void *note() const { return Note; }

  //===--------------------------------------------------------------------===
  // Encoding
  //===--------------------------------------------------------------------===

  /// Encodes into \p Out (>= MaxInstrLength bytes, or rawLength() for
  /// bundles). Returns the byte count, or -1 on failure.
  int encode(AppPc Pc, uint8_t *Out, bool AllowShortBranches);

  //===--------------------------------------------------------------------===
  // List linkage
  //===--------------------------------------------------------------------===

  Instr *next() const { return Next; }
  Instr *prev() const { return Prev; }

private:
  friend class InstrList;

  Instr() = default;

  Instr *Prev = nullptr;
  Instr *Next = nullptr;
  InstrList *Parent = nullptr;

  const uint8_t *Bytes = nullptr; ///< raw encoded bytes (not owned)
  unsigned RawLen = 0;
  AppPc AppAddr = 0;

  Level TheLevel = Level::Raw;
  Opcode Op = OP_INVALID;
  uint8_t Prefixes = 0;
  uint32_t Eflags = 0;

  uint8_t NumSrcs = 0;
  uint8_t NumDsts = 0;
  Operand *Srcs = nullptr; ///< arena-allocated when decoded
  Operand *Dsts = nullptr;

  bool ExitCti = false;
  bool IbArmCti = false;
  bool IbMissCti = false;
  void *Note = nullptr;

  Arena *TheArena = nullptr; ///< arena that owns this Instr's operand arrays
};

} // namespace rio

#endif // RIO_IR_INSTR_H
