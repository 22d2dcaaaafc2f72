//===- workloads/WorkloadsCache.cpp - Cache-management workloads -------------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Workloads that stress the code-cache management subsystem rather than a
/// SPEC-like code property:
///
///   smc           self-modifying code: the program repeatedly patches a
///                 small function between two 8-byte templates and calls
///                 it, so the consistency machinery must invalidate and
///                 re-translate the overwritten code or the checksum is
///                 wrong (bench_cache_mgmt asserts it against native).
///
///   cachepressure a hot core plus a pseudo-random stream of calls into a
///                 table of functions whose combined bodies exceed any
///                 reasonably bounded basic-block cache: the
///                 FIFO-vs-flush-all comparison workload.
///
//===----------------------------------------------------------------------===//

#include "workloads/Workloads.h"

#include "support/Compiler.h"

#include <cstdio>

namespace rio::workloads {

static const char *const ChecksumExit = R"(
    mov ebx, esi
    mov eax, 2
    int 0x80
    mov ebx, 0
    mov eax, 1
    int 0x80
)";

/// smc: each outer iteration copies one of two 8-byte code templates
/// (mov eax, imm / ret / 2x nop) over `patchfn`, then calls it from a hot
/// inner loop. The patched value feeds the checksum, so executing stale
/// code is immediately visible in the output.
std::string smcSource(int Scale) {
  std::string S = R"(
    .entry main
    main:
      mov esi, 0
      mov edi, )" + std::to_string(Scale) + R"(
    outer:
      mov eax, edi
      and eax, 1
      jz evencase
      mov eax, [tmpl1]
      mov edx, [tmpl1+4]
      jmp dopatch
    evencase:
      mov eax, [tmpl2]
      mov edx, [tmpl2+4]
    dopatch:
      mov [patchfn], eax
      mov [patchfn+4], edx
      mov ecx, 12
    inner:
      call patchfn
      add esi, eax
      and esi, 0xFFFFFF
      dec ecx
      jnz inner
      dec edi
      jnz outer
)";
  S += ChecksumExit;
  // patchfn starts identical to tmpl2 so the first (odd-edi) patch really
  // changes the bytes. All three are the same 8-byte shape:
  //   mov eax, imm32 (5) ; ret (1) ; nop ; nop
  S += R"(
    patchfn:
      mov eax, 1111
      ret
      nop
      nop
    tmpl1:
      mov eax, 3333
      ret
      nop
      nop
    tmpl2:
      mov eax, 1111
      ret
      nop
      nop
  )";
  return S;
}

/// cachepressure: every iteration runs a hot core (eight small functions
/// called back to back) and one function picked pseudo-randomly from a
/// table of 128 bulky bodies whose combined fragments overflow a bounded
/// block cache. Incremental eviction retires only the oldest fragments
/// when room is needed, so most of the working set stays translated
/// across each overflow.
std::string cachePressureSource(int Scale) {
  constexpr int NumCold = 128;
  std::string S = "    .entry main\n    coldtab: .word";
  for (int I = 0; I != NumCold; ++I)
    S += " c" + std::to_string(I);
  S += R"(
    main:
      mov esi, 0
      mov ebp, 12345
      mov edi, )" + std::to_string(Scale) + R"(
    mainloop:
      call h0
      call h1
      call h2
      call h3
      call h4
      call h5
      call h6
      call h7
      imul ebp, ebp, 1103515245
      add ebp, 12345
      mov edx, ebp
      shr edx, 16
      and edx, 127
      call [coldtab+edx*4]
      add esi, eax
      and esi, 0xFFFFFF
      dec edi
      jnz mainloop
)";
  S += ChecksumExit;
  for (int I = 0; I != 8; ++I) {
    S += "    h" + std::to_string(I) + ":\n";
    S += "      mov eax, " + std::to_string(1000 + 37 * I) + "\n";
    S += "      add esi, eax\n";
    S += "      and esi, 0xFFFFFF\n";
    S += "      ret\n";
  }
  for (int I = 0; I != NumCold; ++I) {
    // Bulky bodies: several dependent ops so each cold fragment costs
    // real cache bytes and build cycles.
    unsigned Seed = (unsigned(I) * 2654435761u >> 7) & 0xFFFF;
    S += "    c" + std::to_string(I) + ":\n";
    S += "      mov eax, " + std::to_string(Seed) + "\n";
    for (int J = 0; J != 6; ++J) {
      S += "      imul eax, eax, 33\n";
      S += "      add eax, " + std::to_string((Seed >> J) | 1) + "\n";
      S += "      and eax, 0xFFFFFF\n";
    }
    S += "      ret\n";
  }
  return S;
}

} // namespace rio::workloads

const std::vector<rio::Workload> &rio::cacheWorkloads() {
  using namespace rio::workloads;
  static const std::vector<Workload> Table = {
      {"smc", false, 300, 40, "self-modifying code", smcSource},
      {"cachepressure", false, 400, 40, "bounded-cache fragment churn",
       cachePressureSource},
  };
  return Table;
}
