//===- ir/Instr.cpp - Adaptive level-of-detail instructions ----------------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//

#include "ir/Instr.h"

#include "isa/Encode.h"
#include "support/Compiler.h"

using namespace rio;

Instr *Instr::createBundle(Arena &A, const uint8_t *Bytes, unsigned Len,
                           AppPc AppAddr) {
  auto *I = new (A.allocate(sizeof(Instr), alignof(Instr))) Instr();
  I->TheArena = &A;
  I->Bytes = Bytes;
  I->RawLen = Len;
  I->AppAddr = AppAddr;
  I->TheLevel = Level::Bundle;
  return I;
}

Instr *Instr::createRaw(Arena &A, const uint8_t *Bytes, unsigned Len,
                        AppPc AppAddr) {
  Instr *I = createBundle(A, Bytes, Len, AppAddr);
  I->TheLevel = Level::Raw;
  return I;
}

Instr *Instr::createOpcodeKnown(Arena &A, const uint8_t *Bytes, unsigned Len,
                                AppPc AppAddr, Opcode Op, uint32_t Eflags) {
  Instr *I = createRaw(A, Bytes, Len, AppAddr);
  I->TheLevel = Level::OpcodeKnown;
  I->Op = Op;
  I->Eflags = Eflags;
  return I;
}

Instr *Instr::createDecoded(Arena &A, const DecodedInstr &DI,
                            const uint8_t *Bytes, AppPc AppAddr) {
  Instr *I = createRaw(A, Bytes, DI.Length, AppAddr);
  I->TheLevel = Level::Decoded;
  I->Op = DI.Op;
  I->Prefixes = DI.Prefixes;
  I->Eflags = DI.Eflags;
  I->NumSrcs = DI.NumSrcs;
  I->NumDsts = DI.NumDsts;
  // The paper calls out that operand arrays are dynamically allocated
  // (IA-32 instructions carry zero to eight operands); ours come from the
  // owning arena so Table 2 can count the bytes.
  if (DI.NumSrcs) {
    I->Srcs = A.allocateArray<Operand>(DI.NumSrcs);
    for (unsigned Idx = 0; Idx != DI.NumSrcs; ++Idx)
      I->Srcs[Idx] = DI.Srcs[Idx];
  }
  if (DI.NumDsts) {
    I->Dsts = A.allocateArray<Operand>(DI.NumDsts);
    for (unsigned Idx = 0; Idx != DI.NumDsts; ++Idx)
      I->Dsts[Idx] = DI.Dsts[Idx];
  }
  return I;
}

Instr *Instr::createSynth(Arena &A, Opcode Op,
                          std::initializer_list<Operand> Explicit) {
  Operand Ex[MaxExplicit];
  unsigned NumEx = 0;
  for (const Operand &O : Explicit) {
    assert(NumEx < MaxExplicit && "too many explicit operands");
    Ex[NumEx++] = O;
  }
  Operand Srcs[MaxSrcs], Dsts[MaxDsts];
  unsigned NumSrcs = 0, NumDsts = 0;
  if (!buildCanonicalOperands(Op, Ex, NumEx, Srcs, NumSrcs, Dsts, NumDsts))
    return nullptr;

  auto *I = new (A.allocate(sizeof(Instr), alignof(Instr))) Instr();
  I->TheArena = &A;
  I->TheLevel = Level::Synth;
  I->Op = Op;
  I->Eflags = opcodeInfo(Op).EflagsEffect;
  I->NumSrcs = uint8_t(NumSrcs);
  I->NumDsts = uint8_t(NumDsts);
  if (NumSrcs) {
    I->Srcs = A.allocateArray<Operand>(NumSrcs);
    for (unsigned Idx = 0; Idx != NumSrcs; ++Idx)
      I->Srcs[Idx] = Srcs[Idx];
  }
  if (NumDsts) {
    I->Dsts = A.allocateArray<Operand>(NumDsts);
    for (unsigned Idx = 0; Idx != NumDsts; ++Idx)
      I->Dsts[Idx] = Dsts[Idx];
  }
  // Refine shift-by-immediate eflags the same way the decoder does.
  if ((Op == OP_shl || Op == OP_shr || Op == OP_sar) && I->Srcs[0].isImm())
    I->Eflags = (I->Srcs[0].getImm() & 31) == 0 ? 0u
                                                : uint32_t(EFLAGS_WRITE_ARITH);

  // Validate encodability now so clients get an early null instead of a
  // late emission failure. CTIs are exempt: their targets (labels,
  // short-range jecxz) only settle at placement time.
  if (Op != OP_label && !opcodeIsCti(Op)) {
    uint8_t Scratch[MaxInstrLength];
    if (encodeInstr(Op, 0, I->Srcs, I->NumSrcs, I->Dsts, I->NumDsts,
                    /*Pc=*/0, Scratch) < 0)
      return nullptr;
  }
  return I;
}

Instr *Instr::createLabel(Arena &A) {
  Instr *I = createSynth(A, OP_label, {});
  assert(I && "label creation cannot fail");
  return I;
}

void Instr::upgradeToOpcode() {
  if (TheLevel >= Level::OpcodeKnown)
    return;
  assert(TheLevel == Level::Raw && "cannot decode a bundle as one opcode");
  Opcode DecodedOp;
  uint32_t DecodedEflags;
  int Len;
  bool Ok = decodeOpcodeAndEflags(Bytes, RawLen, DecodedOp, DecodedEflags, Len);
  assert(Ok && unsigned(Len) == RawLen && "raw bits failed to re-decode");
  (void)Ok;
  Op = DecodedOp;
  Eflags = DecodedEflags;
  TheLevel = Level::OpcodeKnown;
}

void Instr::upgradeToDecoded() {
  if (TheLevel >= Level::Decoded)
    return;
  assert(TheLevel != Level::Bundle && "cannot fully decode a bundle in place");
  DecodedInstr DI;
  bool Ok = decodeInstr(Bytes, RawLen, AppAddr, DI);
  assert(Ok && DI.Length == RawLen && "raw bits failed to re-decode");
  (void)Ok;
  Op = DI.Op;
  Prefixes = DI.Prefixes;
  Eflags = DI.Eflags;
  NumSrcs = DI.NumSrcs;
  NumDsts = DI.NumDsts;
  if (NumSrcs) {
    Srcs = TheArena->allocateArray<Operand>(NumSrcs);
    for (unsigned Idx = 0; Idx != NumSrcs; ++Idx)
      Srcs[Idx] = DI.Srcs[Idx];
  }
  if (NumDsts) {
    Dsts = TheArena->allocateArray<Operand>(NumDsts);
    for (unsigned Idx = 0; Idx != NumDsts; ++Idx)
      Dsts[Idx] = DI.Dsts[Idx];
  }
  TheLevel = Level::Decoded;
}

void Instr::invalidateRawBits() {
  upgradeToDecoded();
  TheLevel = Level::Synth;
}

void Instr::setPrefixes(uint8_t NewPrefixes) {
  upgradeToDecoded();
  if (Prefixes == NewPrefixes)
    return;
  Prefixes = NewPrefixes;
  TheLevel = Level::Synth;
}

void Instr::setSrc(unsigned Idx, const Operand &O) {
  upgradeToDecoded();
  assert(Idx < NumSrcs && "source index out of range");
  Srcs[Idx] = O;
  TheLevel = Level::Synth;
}

void Instr::setDst(unsigned Idx, const Operand &O) {
  upgradeToDecoded();
  assert(Idx < NumDsts && "destination index out of range");
  Dsts[Idx] = O;
  TheLevel = Level::Synth;
}

bool Instr::readsMemory() {
  upgradeToDecoded();
  for (unsigned Idx = 0; Idx != NumSrcs; ++Idx)
    if (Srcs[Idx].isMem())
      return true;
  return false;
}

bool Instr::writesMemory() {
  upgradeToDecoded();
  for (unsigned Idx = 0; Idx != NumDsts; ++Idx)
    if (Dsts[Idx].isMem())
      return true;
  return false;
}

void Instr::setBranchTarget(AppPc Target) {
  upgradeToDecoded();
  assert(NumSrcs >= 1 && (Srcs[0].isPc() || Srcs[0].isInstr()) &&
         "instruction has no branch-target operand");
  Srcs[0] = Operand::pc(Target);
  TheLevel = Level::Synth;
}

void Instr::setBranchTargetLabel(Instr *Label) {
  upgradeToDecoded();
  assert(NumSrcs >= 1 && "instruction has no branch-target operand");
  Srcs[0] = Operand::instr(Label);
  TheLevel = Level::Synth;
}

int Instr::encode(AppPc Pc, uint8_t *Out, bool AllowShortBranches) {
  if (rawBitsValid()) {
    // The fast path the paper's Level 0-3 exist for: a straight byte copy.
    std::memcpy(Out, Bytes, RawLen);
    return int(RawLen);
  }
  EncodeOptions Opts;
  Opts.AllowShortBranches = AllowShortBranches;
  return encodeInstr(Op, Prefixes, Srcs, NumSrcs, Dsts, NumDsts, Pc, Out,
                     Opts);
}
