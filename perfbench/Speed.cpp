//===- perfbench/Speed.cpp - Host speed measured beside the timed work -----===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//

#include "Speed.h"
#include "Tracing.h"

#include <array>
#include <utility>

using namespace riobench;

namespace {

constexpr unsigned BlockIters = 1024;
constexpr unsigned CodeLen = 4096;     ///< bytecode ops, a power of two
constexpr unsigned DataWords = 1 << 14; ///< 64 KB
constexpr unsigned NumFns = 4096;
/// Blocks run at least at once (about a millisecond at reference speed).
constexpr double MinBlocks = 48;

/// One of NumFns distinct small functions, so that calls through the table
/// spread over the instruction cache.
template <unsigned N>
[[gnu::noinline]] uint32_t callee(uint32_t A, uint32_t B) {
  switch ((A ^ N) & 3) {
  case 0:
    return A * (2 * N + 1) + B;
  case 1:
    return (A >> (N % 7 + 1)) ^ B ^ N;
  case 2:
    return A + B * 3 - N * 5;
  default:
    return A ^ (B >> 2) ^ (N * 2654435761u);
  }
}

using Callee = uint32_t (*)(uint32_t, uint32_t);

template <unsigned... Ns>
constexpr std::array<Callee, sizeof...(Ns)>
calleeTable(std::integer_sequence<unsigned, Ns...>) {
  return {&callee<Ns>...};
}

const std::array<Callee, NumFns> Callees =
    calleeTable(std::make_integer_sequence<unsigned, NumFns>());

struct Kernel {
  std::array<uint8_t, CodeLen> Code;
  std::array<uint32_t, DataWords> Data{};
  uint32_t A = 1, B = 2, Pc = 0;

  Kernel() {
    uint32_t X = 7;
    for (uint8_t &Op : Code) {
      X = X * 1664525u + 1013904223u;
      Op = uint8_t(X >> 29);
    }
  }

  /// Touches all of the kernel's code and data, so that a measurement
  /// does not include refilling what the timed work evicted (which would
  /// tie the reading to the runtime's own cache footprint).
  void warm() {
    for (unsigned I = 0; I != NumFns; ++I)
      A = Callees[I](A, B);
    for (unsigned I = 0; I < DataWords; I += 16)
      B += Data[I];
    for (unsigned I = 0; I < CodeLen; I += 64)
      B += Code[I];
  }

  /// The state carries over from block to block, so every block does the
  /// same kind of work and the compiler can drop none of it.
  void block() {
    for (unsigned I = 0; I != BlockIters; ++I) {
      switch (Code[Pc]) {
      case 0:
        A += B;
        break;
      case 1:
        B ^= A >> 3;
        break;
      case 2:
        A = Data[(A ^ B) & (DataWords - 1)];
        break;
      case 3:
        Data[B & (DataWords - 1)] = A;
        break;
      case 4:
        A = Callees[(A >> 7) & (NumFns - 1)](A, B);
        break;
      case 5:
        if (A & 1)
          Pc = (Pc + 17) & (CodeLen - 1);
        break;
      case 6:
        B = B * 3 + A;
        break;
      default:
        A -= B >> 1;
        break;
      }
      Pc = (Pc + 1) & (CodeLen - 1);
    }
  }
};

Kernel &kernel() {
  static Kernel K;
  return K;
}

} // namespace

void Speedometer::pace(int64_t TimedNs) {
  Credit += double(TimedNs) * Share / RefBlockNs;
  if (Credit < MinBlocks)
    return;
  uint64_t N = uint64_t(Credit);
  Credit -= double(N);
  Kernel &K = kernel();
  K.warm();
  int64_t T0 = nowNs();
  for (uint64_t I = 0; I != N; ++I)
    K.block();
  Ns += nowNs() - T0;
  Blocks += N;
}
