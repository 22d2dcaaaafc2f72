//===- ir/InstrList.h - Linear instruction sequences ----------------------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// InstrList: the doubly linked list of Instrs that represents a basic
/// block or a trace. Both are linear: a single entrance, possibly multiple
/// exits, and no internal join points (paper Section 3.1) — which is what
/// keeps client analyses simple and cheap.
///
//===----------------------------------------------------------------------===//

#ifndef RIO_IR_INSTRLIST_H
#define RIO_IR_INSTRLIST_H

#include "ir/Instr.h"

namespace rio {

/// An intrusive doubly linked list of Instrs. Instrs are arena-allocated,
/// so removal just unlinks (the arena reclaims memory wholesale).
class InstrList {
public:
  explicit InstrList(Arena &A) : TheArena(&A) {}

  InstrList(const InstrList &) = delete;
  InstrList &operator=(const InstrList &) = delete;

  Instr *first() const { return First; }
  Instr *last() const { return Last; }
  bool empty() const { return First == nullptr; }
  Arena &arena() const { return *TheArena; }

  /// Number of Instrs (O(n); bundles count as one).
  unsigned size() const;

  void append(Instr *I);
  void prepend(Instr *I);
  void insertAfter(Instr *Where, Instr *I);
  void insertBefore(Instr *Where, Instr *I);

  /// Unlinks \p I from the list (does not free; arena-owned).
  void remove(Instr *I);

  /// Replaces \p Old with \p New in place.
  void replace(Instr *Old, Instr *New);

  /// Moves every Instr of \p Other to the end of this list, leaving
  /// \p Other empty. Both lists must share an arena.
  void splice(InstrList &Other);

  /// Iteration support (range-for over Instr&).
  class iterator {
  public:
    explicit iterator(Instr *I) : Cur(I) {}
    Instr &operator*() const { return *Cur; }
    Instr *operator->() const { return Cur; }
    iterator &operator++() {
      Cur = Cur->next();
      return *this;
    }
    bool operator!=(const iterator &Other) const { return Cur != Other.Cur; }

  private:
    Instr *Cur;
  };
  iterator begin() const { return iterator(First); }
  iterator end() const { return iterator(nullptr); }

private:
  Arena *TheArena;
  Instr *First = nullptr;
  Instr *Last = nullptr;
};

} // namespace rio

#endif // RIO_IR_INSTRLIST_H
