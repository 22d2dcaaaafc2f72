//===- support/Arena.h - Bump-pointer allocation arenas ------------------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A bump-pointer arena with byte accounting.
///
/// The paper stresses *transparency*: a dynamic optimizer cannot share the
/// application's memory allocator (Section 1, Section 3.2). All runtime and
/// client allocations in this reproduction therefore come from Arena
/// instances owned by the runtime, which also gives us exact byte counts for
/// the Table 2 memory measurements.
///
//===----------------------------------------------------------------------===//

#ifndef RIO_SUPPORT_ARENA_H
#define RIO_SUPPORT_ARENA_H

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

namespace rio {

/// A bump-pointer arena. Individual objects are not freed; the arena is
/// released as a whole (or via reset()). Allocation is O(1) and every byte
/// handed out is counted, including alignment padding, so callers can report
/// precise memory usage.
class Arena {
public:
  explicit Arena(size_t SlabSize = 64 * 1024) : SlabSize(SlabSize) {}

  Arena(const Arena &) = delete;
  Arena &operator=(const Arena &) = delete;

  /// Allocates \p Size uninitialized bytes aligned to \p Align. Never
  /// returns null.
  void *allocate(size_t Size, size_t Align = alignof(std::max_align_t)) {
    size_t Aligned = (CurOffset + Align - 1) & ~(Align - 1);
    if (Slabs.empty() || Aligned + Size > CurSlabSize) {
      newSlab(Size + Align);
      Aligned = (CurOffset + Align - 1) & ~(Align - 1);
    }
    BytesUsed += (Aligned - CurOffset) + Size;
    void *Result = Slabs.back().get() + Aligned;
    CurOffset = Aligned + Size;
    ++NumAllocations;
    return Result;
  }

  /// Allocates and value-initializes an array of \p N objects of type T.
  template <typename T> T *allocateArray(size_t N) {
    T *Ptr = static_cast<T *>(allocate(sizeof(T) * N, alignof(T)));
    for (size_t I = 0; I != N; ++I)
      new (Ptr + I) T();
    return Ptr;
  }

  /// Allocates a copy of the byte range [Data, Data+Size).
  uint8_t *copyBytes(const uint8_t *Data, size_t Size) {
    auto *Ptr = static_cast<uint8_t *>(allocate(Size, 1));
    std::memcpy(Ptr, Data, Size);
    return Ptr;
  }

  /// Discards all allocations but keeps the first slab for reuse.
  void reset() {
    if (Slabs.size() > 1)
      Slabs.resize(1);
    CurOffset = 0;
    CurSlabSize = Slabs.empty() ? 0 : SlabSize;
    BytesUsed = 0;
    NumAllocations = 0;
  }

  /// Total payload bytes handed out since construction or reset(), including
  /// alignment padding.
  size_t bytesUsed() const { return BytesUsed; }

  /// Number of allocate() calls since construction or reset().
  size_t numAllocations() const { return NumAllocations; }

private:
  void newSlab(size_t MinSize) {
    size_t Size = MinSize > SlabSize ? MinSize : SlabSize;
    // Uninitialized, like malloc: every caller writes what it allocates
    // before reading it, so zero-filling the slab is wasted work.
    Slabs.push_back(std::make_unique_for_overwrite<uint8_t[]>(Size));
    CurSlabSize = Size;
    CurOffset = 0;
  }

  size_t SlabSize;
  std::vector<std::unique_ptr<uint8_t[]>> Slabs;
  size_t CurSlabSize = 0;
  size_t CurOffset = 0;
  size_t BytesUsed = 0;
  size_t NumAllocations = 0;
};

} // namespace rio

#endif // RIO_SUPPORT_ARENA_H
