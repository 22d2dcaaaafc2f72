//===- ir/Emit.cpp - InstrList emission with label resolution --------------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//

#include "ir/Emit.h"

#include "isa/Encode.h"
#include "support/Compiler.h"

#include <algorithm>
#include <cstring>

using namespace rio;

namespace {

/// True if \p I cannot simply have its raw bits copied when placed at a new
/// address: Level 4 instructions, and direct CTIs being relocated (their
/// pc-relative displacement would otherwise point at the wrong place).
bool needsReencode(Instr &I, AppPc PlacedAt) {
  if (I.isBundle())
    return false; // bundles never contain CTIs (bb-builder invariant)
  if (!I.rawBitsValid())
    return true;
  if (I.level() < Instr::Level::OpcodeKnown) {
    // Cheap check without decoding: only CTIs are position-dependent, and
    // every CTI the runtime handles is at least Level 2 already. Raw Level 1
    // instructions in the middle of a block are position-independent.
    return false;
  }
  return I.isDirectCti() && PlacedAt != I.appAddr();
}

/// The label a direct CTI targets, or null for a pc target.
const Instr *targetLabel(Instr &I) {
  const Operand &Op = I.getSrc(0);
  return Op.isInstr() ? static_cast<const Instr *>(Op.getInstr()) : nullptr;
}

/// Encodes direct CTI \p I at \p Pc branching to \p Target, on a copy of its
/// operands so a label operand need not be mutated. Returns the length or -1.
int encodeCti(Instr &I, AppPc Pc, AppPc Target, bool AllowShort,
              uint8_t *Out) {
  EncodeOptions Opts;
  Opts.AllowShortBranches = AllowShort;
  Operand Srcs[MaxSrcs];
  unsigned NumSrcs = I.numSrcs();
  for (unsigned Idx = 0; Idx != NumSrcs; ++Idx)
    Srcs[Idx] = I.getSrc(Idx);
  Srcs[0] = Operand::pc(Target);
  Operand Dsts[MaxDsts];
  unsigned NumDsts = I.numDsts();
  for (unsigned Idx = 0; Idx != NumDsts; ++Idx)
    Dsts[Idx] = I.getDst(Idx);
  return encodeInstr(I.getOpcode(), I.getPrefixes(), Srcs, NumSrcs, Dsts,
                     NumDsts, Pc, Out, Opts);
}

/// Encodes the CTI at position \p Pos of \p L with its target resolved
/// against the layout's current offsets. Returns the length or -1.
int encodeCtiAt(const EmitResult &L, unsigned Pos, AppPc BaseAddr,
                uint8_t *Out) {
  Instr &I = *L.Instrs[Pos];
  AppPc Target;
  if (const Instr *Label = targetLabel(I)) {
    unsigned LabelPos = ~0u;
    for (const auto &[Candidate, At] : L.Labels)
      if (Candidate == Label)
        LabelPos = At;
    if (LabelPos == ~0u)
      return -1; // label not in this list
    Target = AppPc(BaseAddr + L.Offsets[LabelPos]);
  } else {
    Target = I.getSrc(0).getPc();
  }
  return encodeCti(I, AppPc(BaseAddr + L.Offsets[Pos]), Target,
                   L.AllowShortBranches, Out);
}

} // namespace

bool rio::layoutInstrList(InstrList &IL, AppPc BaseAddr,
                          bool AllowShortBranches, EmitResult &L) {
  L = EmitResult();
  L.AllowShortBranches = AllowShortBranches;
  const unsigned N = IL.size();
  L.Instrs.reserve(N);
  L.Offsets.reserve(N);
  L.Lengths.reserve(N);

  // One pass at conservative lengths: every branch in its rel32 form (a
  // label target stands in as the branch's own pc, which every form
  // reaches), so relaxation below can only shrink. Everything but a
  // direct CTI encodes the same at any pc and lands in Bytes now.
  bool LabelCtis = false;
  unsigned Offset = 0;
  uint8_t Scratch[MaxInstrLength];
  for (Instr &I : IL) {
    auto Pos = unsigned(L.Instrs.size());
    L.Instrs.push_back(&I);
    L.Offsets.push_back(Offset);
    int Len = 0;
    if (I.isLabel()) {
      L.Labels.push_back({&I, Pos});
    } else if (!needsReencode(I, BaseAddr + Offset)) {
      Len = int(I.rawLength());
      L.Bytes.resize(Offset + unsigned(Len));
      std::memcpy(L.Bytes.data() + Offset, I.rawBits(), unsigned(Len));
    } else if (I.isDirectCti()) {
      AppPc Pc = BaseAddr + Offset;
      bool ToLabel = targetLabel(I) != nullptr;
      LabelCtis |= ToLabel;
      Len = encodeCti(I, Pc, ToLabel ? Pc : I.getSrc(0).getPc(),
                      /*AllowShort=*/false, Scratch);
      L.Ctis.push_back(Pos);
    } else {
      L.Bytes.resize(Offset + MaxInstrLength);
      Len = I.encode(BaseAddr + Offset, L.Bytes.data() + Offset,
                     /*AllowShortBranches=*/false);
    }
    if (Len < 0)
      return false;
    L.Lengths.push_back(unsigned(Len));
    Offset += unsigned(Len);
  }
  L.TotalSize = Offset;
  L.Bytes.resize(Offset);
  if (!AllowShortBranches && !LabelCtis)
    return true;

  // Resolve label targets against real offsets, taking short forms where
  // allowed, until the layout settles. Lengths only shrink, so a branch
  // stays in reach once it is, and this converges. Without short forms no
  // length changes: one round checks that every label is in reach.
  std::vector<unsigned> Conservative;
  if (AllowShortBranches)
    Conservative = L.Offsets;
  bool Shrunk = false;
  for (unsigned Iter = 0; Iter != 8; ++Iter) {
    bool Changed = false;
    for (unsigned Pos : L.Ctis) {
      if (!AllowShortBranches && !targetLabel(*L.Instrs[Pos]))
        continue; // a rel32 branch to a pc reaches it from anywhere
      int Len = encodeCtiAt(L, Pos, BaseAddr, Scratch);
      if (Len < 0)
        return false;
      if (unsigned(Len) < L.Lengths[Pos]) {
        L.Lengths[Pos] = unsigned(Len);
        Changed = Shrunk = true;
      }
    }
    if (!Changed)
      break;
    Offset = 0;
    for (unsigned Pos = 0; Pos != L.Instrs.size(); ++Pos) {
      L.Offsets[Pos] = Offset;
      Offset += L.Lengths[Pos];
    }
  }
  if (!Shrunk)
    return true;

  // Slide the pre-encoded bytes to their settled offsets (offsets only
  // decrease, so a forward copy never overwrites what it still needs).
  for (unsigned Pos = 0; Pos != L.Instrs.size(); ++Pos)
    std::memmove(L.Bytes.data() + L.Offsets[Pos],
                 L.Bytes.data() + Conservative[Pos], L.Lengths[Pos]);
  L.TotalSize = Offset;
  L.Bytes.resize(Offset);
  return true;
}

bool rio::writeInstrList(const EmitResult &L, AppPc BaseAddr, uint8_t *Out) {
  std::copy(L.Bytes.begin(), L.Bytes.end(), Out);
  for (unsigned Pos : L.Ctis) {
    unsigned At = L.Offsets[Pos];
    int Len = encodeCtiAt(L, Pos, BaseAddr, Out + At);
    if (Len < 0 || unsigned(Len) > L.Lengths[Pos])
      return false;
    // A short form may come in under the reserved size; pad with nops so
    // the following instruction lands at its computed offset.
    std::memset(Out + At + Len, 0x90, L.Lengths[Pos] - unsigned(Len));
  }
  return true;
}
