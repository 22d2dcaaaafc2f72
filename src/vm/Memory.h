//===- vm/Memory.h - Simulated paged copy-on-write memory image ------------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The simulated 32-bit little-endian address space. One image holds both
/// the application region and the runtime region (code cache, spill slots):
/// DynamoRIO runs in the same address space as the app ("application code
/// and DynamoRIO code all runs in the same process and address space",
/// paper Figure 1), and so do we.
///
/// The image is *paged and copy-on-write capable* rather than one flat
/// allocation. Fixed power-of-two pages (CowBlockBytes) sit behind two
/// parallel page tables:
///
///   - `Pages[i]`  — the read pointer for page i. Never null: pages no one
///     has written yet all point at one immortal all-zero block, so a fresh
///     image allocates nothing and reads zeroes everywhere (the calloc
///     semantics of the old flat image, lazier still).
///   - `Writable[i]` — the write pointer: equal to `Pages[i]` when this
///     image privately owns the page, null otherwise. The write fast path
///     is one indexed load + null test; a null falls into faultIn(), which
///     copies a shared page (bumping the cow_page_copies counter), hands a
///     fresh zeroed page to a first write, or — when every peer that shared
///     the page has died — reclaims the now sole-owned page in place
///     without copying.
///
/// Forking an image (the copy constructor) retains every page and clears
/// *both* images' write tables: the source loses write permission too, so
/// a later write on either side faults exactly one private copy of exactly
/// one page — libriscv's forking constructor "loans all memory using
/// Copy-on-Write mechanisms" (SNIPPETS.md snippet 3), at page granularity.
///
/// Because pages are not contiguous, raw `data()` escapes are gone. Callers
/// use the bounds-checked accessors: readWindow() for a short contiguous
/// window (decoder fetch), readBlock()/writeBlock() for copies, and
/// forEachSpan() to visit a range as per-page runs (hashing,
/// serialization). Pointers returned by readWindow()/forEachSpan() are
/// invalidated by any CoW fault on their page; mutEpoch() lets debug builds
/// assert no caller holds one across a fault.
///
//======---------------------------------------------------------------------===//

#ifndef RIO_VM_MEMORY_H
#define RIO_VM_MEMORY_H

#include "isa/Operand.h"

#include "support/Compiler.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <type_traits>
#include <vector>

namespace rio {

/// Page / CoW-chunk size. 64KB keeps the page tables tiny (512 entries for
/// the default 32MB machine) while still copying at most 64KB per faulted
/// write.
constexpr uint32_t CowBlockShift = 16;
constexpr uint32_t CowBlockBytes = 1u << CowBlockShift;

namespace cow {

/// Refcount header preceding every heap block's data. 64 bytes keeps the
/// data cache-line aligned.
struct BlockHeader {
  std::atomic<uint32_t> Refs;
};
constexpr size_t BlockHeaderBytes = 64;
static_assert(sizeof(BlockHeader) <= BlockHeaderBytes, "header overflow");

/// The immortal all-zero block every untouched page aliases. Lives in
/// read-only storage: a write that bypasses the CoW protocol traps on the
/// host instead of corrupting every sharer. Identified by address, so it
/// carries no header and is never retained, released, or freed.
inline uint8_t *zeroBlock() {
  alignas(64) static const uint8_t Zero[CowBlockBytes] = {};
  return const_cast<uint8_t *>(Zero);
}

inline BlockHeader *headerOf(uint8_t *Data) {
  assert(Data != zeroBlock() && "the zero block has no header");
  return reinterpret_cast<BlockHeader *>(Data - BlockHeaderBytes);
}

/// A fresh zeroed block with refcount 1; returns the data pointer.
inline uint8_t *newBlock() {
  void *Raw = std::calloc(1, BlockHeaderBytes + CowBlockBytes);
  if (!Raw)
    throw std::bad_alloc();
  auto *H = new (Raw) BlockHeader;
  H->Refs.store(1, std::memory_order_relaxed);
  return static_cast<uint8_t *>(Raw) + BlockHeaderBytes;
}

inline void retainBlock(uint8_t *Data) {
  if (Data != zeroBlock())
    headerOf(Data)->Refs.fetch_add(1, std::memory_order_relaxed);
}

inline void releaseBlock(uint8_t *Data) {
  if (Data == zeroBlock())
    return;
  BlockHeader *H = headerOf(Data);
  if (H->Refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    H->~BlockHeader();
    std::free(H);
  }
}

inline uint32_t blockRefs(uint8_t *Data) {
  return Data == zeroBlock()
             ? ~0u // pinned: never privately owned
             : headerOf(Data)->Refs.load(std::memory_order_relaxed);
}

} // namespace cow

/// Bounds-checked byte-addressable memory over refcounted CoW pages (see
/// file comment). All accessors return false on an out-of-range access (the
/// Machine converts that into a simulated fault).
class MemoryImage {
public:
  explicit MemoryImage(uint32_t Size) : Sz(Size) {
    size_t NumPages = (size_t(Size) + CowBlockBytes - 1) / CowBlockBytes;
    Pages.assign(NumPages ? NumPages : 1, cow::zeroBlock());
    Writable.assign(Pages.size(), nullptr);
  }

  /// Forks \p Other: every page is loaned copy-on-write. Both images lose
  /// write permission on every page (the source's write table is mutable
  /// for exactly this demotion); the first write on either side copies just
  /// that page.
  MemoryImage(const MemoryImage &Other)
      : Sz(Other.Sz), Pages(Other.Pages) {
    for (uint8_t *Page : Pages)
      cow::retainBlock(Page);
    Writable.assign(Pages.size(), nullptr);
    std::fill(Other.Writable.begin(), Other.Writable.end(), nullptr);
  }

  MemoryImage &operator=(const MemoryImage &) = delete;

  ~MemoryImage() {
    for (uint8_t *Page : Pages)
      cow::releaseBlock(Page);
  }

  uint32_t size() const { return Sz; }

  bool inBounds(uint32_t Addr, uint32_t Len) const {
    return Addr <= Sz && Len <= Sz - Addr;
  }

  /// Pages copied by CoW faults on shared pages since construction. First
  /// writes to untouched (all-zero) pages and sole-owner reclamations are
  /// not copies and do not count.
  uint64_t cowPageCopies() const { return CowCopies; }

  /// Pages this image privately owns (its resident footprint beyond what
  /// it shares with forks, in CowBlockBytes units).
  uint32_t privatePages() const {
    uint32_t N = 0;
    for (uint8_t *Page : Pages)
      if (Page != cow::zeroBlock() && cow::blockRefs(Page) == 1)
        ++N;
    return N;
  }

  /// Bumped whenever a page's data pointer changes (CoW fault). Debug
  /// builds assert readWindow()/forEachSpan() pointers do not outlive an
  /// epoch change.
  uint64_t mutEpoch() const { return MutEpoch; }

  bool read8(uint32_t Addr, uint8_t &Value) const {
    if (RIO_UNLIKELY(Addr >= Sz))
      return false;
    Value = Pages[Addr >> CowBlockShift][Addr & (CowBlockBytes - 1)];
    return true;
  }
  bool read16(uint32_t Addr, uint16_t &Value) const { return readN(Addr, &Value); }
  bool read32(uint32_t Addr, uint32_t &Value) const { return readN(Addr, &Value); }
  bool read64(uint32_t Addr, uint64_t &Value) const { return readN(Addr, &Value); }
  bool readF64(uint32_t Addr, double &Value) const { return readN(Addr, &Value); }

  bool write8(uint32_t Addr, uint8_t Value) {
    if (RIO_UNLIKELY(Addr >= Sz))
      return false;
    uint32_t Page = Addr >> CowBlockShift;
    uint8_t *Data = Writable[Page];
    if (RIO_UNLIKELY(!Data))
      Data = faultIn(Page);
    Data[Addr & (CowBlockBytes - 1)] = Value;
    return true;
  }
  bool write16(uint32_t Addr, uint16_t Value) { return writeN(Addr, &Value); }
  bool write32(uint32_t Addr, uint32_t Value) { return writeN(Addr, &Value); }
  bool write64(uint32_t Addr, uint64_t Value) { return writeN(Addr, &Value); }
  bool writeF64(uint32_t Addr, double Value) { return writeN(Addr, &Value); }

  /// Copies a block out of the image; returns false on overflow.
  bool readBlock(uint32_t Addr, uint8_t *Dst, uint32_t Len) const {
    if (!inBounds(Addr, Len))
      return false;
    while (Len) {
      uint32_t Off = Addr & (CowBlockBytes - 1);
      uint32_t Run = std::min(Len, CowBlockBytes - Off);
      std::memcpy(Dst, Pages[Addr >> CowBlockShift] + Off, Run);
      Addr += Run;
      Dst += Run;
      Len -= Run;
    }
    return true;
  }

  /// Copies a block into the image; returns false on overflow. A
  /// zero-length write is a bounds probe only (succeeds even at
  /// Addr == size()) and touches no page.
  bool writeBlock(uint32_t Addr, const uint8_t *Src, uint32_t Len) {
    if (!inBounds(Addr, Len))
      return false;
    while (Len) {
      uint32_t Page = Addr >> CowBlockShift;
      uint32_t Off = Addr & (CowBlockBytes - 1);
      uint32_t Run = std::min(Len, CowBlockBytes - Off);
      uint8_t *Data = Writable[Page];
      if (!Data)
        Data = faultIn(Page);
      std::memcpy(Data + Off, Src, Run);
      Addr += Run;
      Src += Run;
      Len -= Run;
    }
    return true;
  }

  /// A contiguous read-only view of [Addr, Addr+Len): a direct page pointer
  /// when the window does not straddle a page boundary, else the bytes
  /// copied into \p Scratch (the caller guarantees \p Scratch holds \p Len
  /// bytes). Null when out of bounds. The returned pointer is valid only
  /// until the next write to the image (a CoW fault may retire the page;
  /// see mutEpoch()).
  const uint8_t *readWindow(uint32_t Addr, uint32_t Len,
                            uint8_t *Scratch) const {
    if (RIO_UNLIKELY(!inBounds(Addr, Len)))
      return nullptr;
    uint32_t Off = Addr & (CowBlockBytes - 1);
    if (RIO_LIKELY(CowBlockBytes - Off >= Len))
      return Pages[Addr >> CowBlockShift] + Off;
    readBlock(Addr, Scratch, Len);
    return Scratch;
  }

  /// Visits [Addr, Addr+Len) as successive maximal single-page runs:
  /// Visit(const uint8_t *Run, uint32_t RunLen). Returns false (visiting
  /// nothing) when the range is out of bounds. Run pointers obey the same
  /// lifetime rule as readWindow().
  template <typename Fn>
  bool forEachSpan(uint32_t Addr, uint32_t Len, Fn &&Visit) const {
    if (!inBounds(Addr, Len))
      return false;
    while (Len) {
      uint32_t Off = Addr & (CowBlockBytes - 1);
      uint32_t Run = std::min(Len, CowBlockBytes - Off);
      Visit(static_cast<const uint8_t *>(Pages[Addr >> CowBlockShift] + Off),
            Run);
      Addr += Run;
      Len -= Run;
    }
    return true;
  }

private:
  template <typename T> bool readN(uint32_t Addr, T *Value) const {
    uint32_t Off = Addr & (CowBlockBytes - 1);
    if (RIO_LIKELY(Off <= CowBlockBytes - sizeof(T) && Addr <= Sz - sizeof(T) &&
                   Addr <= Sz)) // Addr<=Sz guards the Sz-sizeof(T) underflow
      return std::memcpy(Value, Pages[Addr >> CowBlockShift] + Off, sizeof(T)),
             true;
    return readBlock(Addr, reinterpret_cast<uint8_t *>(Value), sizeof(T));
  }

  template <typename T> bool writeN(uint32_t Addr, const T *Value) {
    uint32_t Off = Addr & (CowBlockBytes - 1);
    if (RIO_LIKELY(Off <= CowBlockBytes - sizeof(T) && Addr <= Sz - sizeof(T) &&
                   Addr <= Sz)) {
      uint32_t Page = Addr >> CowBlockShift;
      uint8_t *Data = Writable[Page];
      if (RIO_UNLIKELY(!Data))
        Data = faultIn(Page);
      std::memcpy(Data + Off, Value, sizeof(T));
      return true;
    }
    return writeBlock(Addr, reinterpret_cast<const uint8_t *>(Value),
                      sizeof(T));
  }

  /// Makes page \p Page privately writable: reclaims a sole-owned page in
  /// place (no copy), materializes a fresh page for a first write to the
  /// zero page (no copy), or copies a genuinely shared page (counted in
  /// cowPageCopies()).
  uint8_t *faultIn(uint32_t Page) {
    uint8_t *Cur = Pages[Page];
    if (Cur != cow::zeroBlock() && cow::blockRefs(Cur) == 1) {
      // Every fork that shared this page is gone: it is private again.
      Writable[Page] = Cur;
      return Cur;
    }
    uint8_t *Fresh = cow::newBlock();
    if (Cur != cow::zeroBlock()) {
      std::memcpy(Fresh, Cur, CowBlockBytes);
      ++CowCopies;
    }
    cow::releaseBlock(Cur);
    Pages[Page] = Writable[Page] = Fresh;
    ++MutEpoch;
    return Fresh;
  }

  uint32_t Sz;
  std::vector<uint8_t *> Pages;            ///< read table; never null
  mutable std::vector<uint8_t *> Writable; ///< write table; null = shared
  uint64_t CowCopies = 0;
  uint64_t MutEpoch = 0;
};

/// A CoW-forkable array of trivially-copyable elements, chunked on the same
/// refcounted blocks as MemoryImage pages. The Machine keeps its derived
/// host-side tables (decode cache, write-monitor state) in these so that forking a machine shares them too: a fork costs two
/// pointer tables, not megabytes of eagerly copied metadata. Elements whose
/// all-zero state is meaningful ("empty", "invalid") cost nothing until
/// first written — untouched chunks alias the shared zero block.
template <typename T> class CowArray {
  static_assert(std::is_trivially_copyable<T>::value &&
                    std::is_trivially_destructible<T>::value,
                "CowArray elements are raw memory");
  static_assert(sizeof(T) <= CowBlockBytes, "element larger than a chunk");

  /// Elements per chunk: the largest power of two that fits a block, so
  /// index math is shift-and-mask.
  static constexpr uint32_t elemsPerChunkLog2() {
    uint32_t Log = 0;
    while ((2ull << Log) * sizeof(T) <= CowBlockBytes)
      ++Log;
    return Log;
  }
  static constexpr uint32_t ChunkShift = elemsPerChunkLog2();
  static constexpr uint32_t ChunkElems = 1u << ChunkShift;

public:
  explicit CowArray(size_t N = 0) { resize(N); }

  CowArray(const CowArray &Other) : N(Other.N), Chunks(Other.Chunks) {
    for (uint8_t *Chunk : Chunks)
      cow::retainBlock(Chunk);
    Writable.assign(Chunks.size(), nullptr);
    std::fill(Other.Writable.begin(), Other.Writable.end(), nullptr);
  }

  CowArray &operator=(const CowArray &) = delete;

  ~CowArray() {
    for (uint8_t *Chunk : Chunks)
      cow::releaseBlock(Chunk);
  }

  /// Sets the element count, zero-filling everything (all chunks return to
  /// the shared zero block).
  void resize(size_t NewN) {
    for (uint8_t *Chunk : Chunks)
      cow::releaseBlock(Chunk);
    N = NewN;
    Chunks.assign((NewN + ChunkElems - 1) / ChunkElems, cow::zeroBlock());
    Writable.assign(Chunks.size(), nullptr);
  }

  size_t size() const { return N; }

  const T &operator[](size_t Idx) const {
    assert(Idx < N && "CowArray index out of range");
    return *reinterpret_cast<const T *>(
        Chunks[Idx >> ChunkShift] +
        (Idx & (ChunkElems - 1)) * sizeof(T));
  }

  /// Mutable access; faults the chunk private on first write.
  T &mut(size_t Idx) {
    assert(Idx < N && "CowArray index out of range");
    size_t Chunk = Idx >> ChunkShift;
    uint8_t *Data = Writable[Chunk];
    if (RIO_UNLIKELY(!Data))
      Data = faultIn(Chunk);
    return *reinterpret_cast<T *>(Data + (Idx & (ChunkElems - 1)) * sizeof(T));
  }

private:
  uint8_t *faultIn(size_t Chunk) {
    uint8_t *Cur = Chunks[Chunk];
    if (Cur != cow::zeroBlock() && cow::blockRefs(Cur) == 1) {
      Writable[Chunk] = Cur;
      return Cur;
    }
    uint8_t *Fresh = cow::newBlock();
    if (Cur != cow::zeroBlock())
      std::memcpy(Fresh, Cur, CowBlockBytes);
    cow::releaseBlock(Cur);
    Chunks[Chunk] = Writable[Chunk] = Fresh;
    return Fresh;
  }

  size_t N = 0;
  std::vector<uint8_t *> Chunks;
  mutable std::vector<uint8_t *> Writable;
};

} // namespace rio

#endif // RIO_VM_MEMORY_H
