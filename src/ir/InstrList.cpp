//===- ir/InstrList.cpp - Linear instruction sequences ---------------------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//

#include "ir/InstrList.h"

#include "support/Compiler.h"

using namespace rio;

unsigned InstrList::size() const {
  unsigned N = 0;
  for (Instr *I = First; I; I = I->next())
    ++N;
  return N;
}

void InstrList::append(Instr *I) {
  assert(!I->Parent && "Instr is already in a list");
  I->Parent = this;
  I->Prev = Last;
  I->Next = nullptr;
  if (Last)
    Last->Next = I;
  else
    First = I;
  Last = I;
}

void InstrList::prepend(Instr *I) {
  assert(!I->Parent && "Instr is already in a list");
  I->Parent = this;
  I->Next = First;
  I->Prev = nullptr;
  if (First)
    First->Prev = I;
  else
    Last = I;
  First = I;
}

void InstrList::insertAfter(Instr *Where, Instr *I) {
  assert(Where->Parent == this && "anchor not in this list");
  assert(!I->Parent && "Instr is already in a list");
  I->Parent = this;
  I->Prev = Where;
  I->Next = Where->Next;
  if (Where->Next)
    Where->Next->Prev = I;
  else
    Last = I;
  Where->Next = I;
}

void InstrList::insertBefore(Instr *Where, Instr *I) {
  assert(Where->Parent == this && "anchor not in this list");
  assert(!I->Parent && "Instr is already in a list");
  I->Parent = this;
  I->Next = Where;
  I->Prev = Where->Prev;
  if (Where->Prev)
    Where->Prev->Next = I;
  else
    First = I;
  Where->Prev = I;
}

void InstrList::remove(Instr *I) {
  assert(I->Parent == this && "Instr not in this list");
  if (I->Prev)
    I->Prev->Next = I->Next;
  else
    First = I->Next;
  if (I->Next)
    I->Next->Prev = I->Prev;
  else
    Last = I->Prev;
  I->Prev = I->Next = nullptr;
  I->Parent = nullptr;
}

void InstrList::replace(Instr *Old, Instr *New) {
  insertAfter(Old, New);
  remove(Old);
}

void InstrList::splice(InstrList &Other) {
  assert(TheArena == Other.TheArena && "lists must share an arena");
  for (Instr *I = Other.First; I;) {
    Instr *Next = I->Next;
    Other.remove(I);
    append(I);
    I = Next;
  }
}
