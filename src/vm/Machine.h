//===- vm/Machine.h - The simulated machine --------------------------------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The simulated IA-32-like machine: flat memory (application region plus a
/// runtime region for the code cache and spill slots), one CPU context,
/// branch predictors, a deterministic cycle counter, and an interpreter for
/// RIO-32. This is the "hardware" substitute for the paper's Pentium 4
/// testbed (DESIGN.md §1).
///
/// The Machine is policy-free: it executes whatever the pc points at and
/// charges microarchitectural costs. The DynamoRIO-style runtime (src/core)
/// drives it — placing code in the runtime region, watching the pc cross
/// region boundaries, and charging runtime overheads via chargeCycles().
///
//===----------------------------------------------------------------------===//

#ifndef RIO_VM_MACHINE_H
#define RIO_VM_MACHINE_H

#include "vm/CostModel.h"
#include "vm/Cpu.h"
#include "vm/Memory.h"
#include "vm/Predictors.h"

#include "support/Compiler.h"

#include <string>
#include <unordered_set>
#include <vector>

namespace rio {

struct MachineConfig {
  uint32_t AppRegionSize = 8u << 20;      ///< app code + data + stack
  uint32_t RuntimeRegionSize = 24u << 20; ///< code cache + runtime slots
  CostModel Cost;
  uint64_t MaxInstructions = 2'000'000'000ull; ///< runaway-execution guard
};

enum class RunStatus { Running, Exited, Faulted };

/// How the last instruction of a run() or step() ended.
enum class StepKind {
  Ok,           ///< completed normally; run() then stopped for a stop
                ///< condition or a stop mark
  Exited,       ///< program exited (status() == Exited)
  Faulted,      ///< simulated fault (status() == Faulted)
  ClientCall,   ///< executed OP_clientcall; the runtime must service it
  ThreadExited, ///< the *current thread* ended; the program may live on
  ThreadSpawned ///< the instruction also created a new thread
};

struct StepResult {
  StepKind Kind = StepKind::Ok;
  uint32_t ClientCallId = 0;
};

/// Where Machine::run() hands control back to its caller. run() tests the
/// deadline and the cycle limit on entry and after each instruction, and
/// after each instruction also the pc conditions and whether that
/// instruction grew the code-write log past the caller's cursor. The
/// defaults disable every condition, so a default StopSet runs until a
/// step returns something other than StepKind::Ok.
struct StopSet {
  /// Stop once instructionsExecuted() reaches this count. Takes precedence
  /// over MachineConfig::MaxInstructions, so a deadline at the budget
  /// suspends rather than faults, as it always has.
  uint64_t InstrLimit = ~0ull;
  /// Stop once cycles() reaches this value (a profiler's next sample).
  uint64_t CycleLimit = ~0ull;
  /// Stop after an instruction that leaves codeWriteLog() longer than this.
  size_t CodeWriteCursor = ~size_t(0);
  /// Stop on reaching this pc (a runtime's dispatcher entry).
  AppPc StopPc = ~0u;
  /// Stop on reaching a pc below this (cache code branching to the app).
  AppPc LowPc = 0;
};

/// One operand of a pre-decoded instruction, reduced to what execution
/// needs: register-file slots instead of register names, and 32-bit
/// immediates and branch targets.
struct PredecodedOp {
  enum Kind : uint8_t {
    None, ///< no operand; every access fails
    Gpr,  ///< Reg = Gpr[] slot
    Gpr8, ///< Reg = Gpr[] slot of the containing register; Aux = shift
    Xmm,  ///< Reg = Xmm[] slot
    Imm,  ///< Value = immediate or direct branch target
    Mem   ///< [Gpr[Reg] + Gpr[Index] * Aux + Value]
  };
  static constexpr uint8_t NoSlot = 0xFF; ///< Mem: no base / no index

  Kind K = None;
  uint8_t Reg = NoSlot;
  uint8_t Index = NoSlot;
  uint8_t Aux = 0;
  uint32_t Value = 0;
};

/// A decode-cache record: the instruction as the interpreter runs it, its
/// memoized cycle cost, whether the pc is stop-marked (see
/// Machine::setStopPc), and its form: the handler Machine::run() dispatches
/// on, chosen from the opcode and its operand kinds when the record fills
/// (see Machine.cpp). Operand slots follow the canonical layout of
/// isa/OperandLayout.h; the interpreter uses at most two sources and two
/// destinations.
struct PredecodedInstr {
  Opcode Op = OP_INVALID;
  uint8_t Length = 0;
  bool Stop = false;
  uint32_t Cost = 0;
  uint8_t Form = 0;
  PredecodedOp Src[2];
  PredecodedOp Dst[2];
};

/// The simulated machine. See file comment.
class Machine {
public:
  explicit Machine(const MachineConfig &Config = MachineConfig());

  /// Forks \p Template: memory pages and the host-side derived tables
  /// (decode cache, write-monitor state) are loaned copy-on-write — the
  /// first write to a shared page on either side copies just that page
  /// (observable via mem().cowPageCopies()) — while the architectural
  /// state (threads, predictors, cycle clock) is copied privately. The
  /// fork is an exact replica: resume it, reset it with resetForRun(), or
  /// hand it to Runtime::forkFrom for a warm tenant.
  Machine(const Machine &Template);
  Machine &operator=(const Machine &) = delete;

  MemoryImage &mem() { return Mem; }
  const MemoryImage &mem() const { return Mem; }
  CpuState &cpu() { return *CurCpu; }
  const CpuState &cpu() const { return *CurCpu; }
  BranchPredictors &predictors() { return Pred; }
  /// The cost model. Mutate it only before execution starts: decode-cache
  /// lines memoize per-instruction costs at fill time.
  CostModel &cost() { return Config.Cost; }
  const MachineConfig &config() const { return Config; }

  /// First address of the runtime (code cache) region.
  uint32_t runtimeBase() const { return Config.AppRegionSize; }
  bool inRuntimeRegion(AppPc Pc) const { return Pc >= runtimeBase(); }

  //===--------------------------------------------------------------------===
  // Execution
  //===--------------------------------------------------------------------===

  /// Executes instructions from cpu().Pc, charging their cycle costs and
  /// branch-prediction penalties, until a condition of \p Stops holds,
  /// the pc reaches a stop-marked address (not counting the first
  /// instruction), or an instruction returns a kind other than Ok. Returns
  /// Ok when it stopped for \p Stops or a stop mark. Every instruction
  /// keeps its own bounds checks, budget check, write monitoring and
  /// self-modifying-code invalidation.
  StepResult run(const StopSet &Stops);

  /// Executes the one instruction at cpu().Pc: a run() bounded to one
  /// instruction.
  StepResult step();

  /// Adds runtime-overhead cycles (context switches, IBL, block builds...).
  void chargeCycles(uint64_t N) { Cycles += N; }

  /// Removes cycles that turned out not to be on the application's
  /// critical path (sideline optimization, paper Section 3.4).
  void refundCycles(uint64_t N) { Cycles -= N > Cycles ? Cycles : N; }

  RunStatus status() const { return Status; }
  int exitCode() const { return ExitCode; }
  const std::string &faultReason() const { return FaultReason; }

  /// All bytes the application wrote via the write/print syscalls. The
  /// transparency tests compare this across execution configurations.
  const std::string &output() const { return Output; }

  uint64_t cycles() const { return Cycles; }
  uint64_t instructionsExecuted() const { return InstrsExecuted; }

  /// Pc of the most recently executed instruction, or of the instruction
  /// at which execution faulted.
  AppPc lastPc() const { return LastPc; }

  /// Snapshots the current pc and stack pointer as the program's entry
  /// state. The loader calls this once after placing the program;
  /// resetForRun() returns to it.
  void recordResetState() {
    ResetPc = CurCpu->Pc;
    ResetSp = CurCpu->readGpr32(REG_ESP);
  }

  /// Re-arms the machine to run the loaded program again from its entry
  /// state: one fresh thread at the recorded pc/stack, status Running.
  /// Memory, the cycle clock, predictors, and captured output are
  /// deliberately kept — callers measuring steady-state cost diff the
  /// clock across runs, and a forked tenant must see exactly the
  /// template's warmed state.
  void resetForRun();

  //===--------------------------------------------------------------------===
  // Decode caching
  //===--------------------------------------------------------------------===

  /// Number of lines in the direct-mapped decode cache. A pc maps to line
  /// `pc & (DecodeCacheLines - 1)`; pcs that far apart alias (and evict
  /// each other on fill — never serving a wrong decode, because each line
  /// is tagged with its exact pc).
  static constexpr uint32_t DecodeCacheLines = 1u << 15;

  /// Decode-cache lookup (a software stand-in for the hardware's
  /// instruction/uop cache). Returns null on undecodable bytes. The
  /// returned record is valid until the next fetchDecode or execution (an
  /// aliasing pc may refill the same line).
  RIO_ALWAYS_INLINE const PredecodedInstr *fetchDecode(AppPc Pc) {
    if (RIO_UNLIKELY(Pc >= Mem.size()))
      return nullptr;
    const DecodeLine &L = DecodeCache[Pc & (DecodeCacheLines - 1)];
    if (RIO_LIKELY(L.Tag == Pc + 1))
      return &L.R;
    return fillDecode(Pc);
  }

  /// Invalidates cached decodes in [Lo, Hi); the runtime calls this when it
  /// places or patches cache code. Empties the line of every pc in the
  /// range that holds that pc: O(min(Hi - Lo, DecodeCacheLines)), and a
  /// probe compares one tag.
  void invalidateDecodeRange(uint32_t Lo, uint32_t Hi);

  //===--------------------------------------------------------------------===
  // Code-write monitoring (cache consistency; self-modifying code)
  //===--------------------------------------------------------------------===

  /// Granularity of write monitoring: one counter per aligned line.
  static constexpr uint32_t WriteWatchLine = 256;

  /// One store that hit a watched line (byte range [Lo, Hi)).
  struct CodeWriteEvent {
    uint32_t Lo;
    uint32_t Hi;
  };

  /// Registers [Lo, Hi) as executable code backing live cache fragments.
  /// Watches are counted per line, so overlapping registrations nest.
  void addWriteWatch(uint32_t Lo, uint32_t Hi);
  void removeWriteWatch(uint32_t Lo, uint32_t Hi);

  /// Append-only log of stores into watched lines. Consumers (one per
  /// runtime — several runtimes may share one machine) keep their own
  /// cursor into it.
  const std::vector<CodeWriteEvent> &codeWriteLog() const {
    return CodeWrites;
  }

  /// Marks (or unmarks) \p Pc so that run() returns before executing it,
  /// unless it is the first instruction of the run. The mark lives in the
  /// pc's decode record, set when the line fills; changing it drops the
  /// line, so an aliasing refill can never lose it.
  void setStopPc(AppPc Pc, bool Stop);

  /// Raises a simulated fault (also used by the runtime for internal
  /// errors it wants surfaced as program failures).
  void fault(const std::string &Reason);

  //===--------------------------------------------------------------------===
  // Threads (cooperative; a scheduler such as core/ThreadedRunner rotates)
  //===--------------------------------------------------------------------===

  unsigned numThreads() const { return unsigned(Threads.size()); }
  unsigned currentThread() const { return CurThread; }
  bool threadAlive(unsigned Tid) const { return Threads[Tid].Alive; }

  /// Switches the architectural context to thread \p Tid (must be alive).
  void switchToThread(unsigned Tid) {
    assert(Tid < Threads.size() && Threads[Tid].Alive && "bad thread");
    CurThread = Tid;
    CurCpu = &Threads[Tid].Cpu;
  }

  /// Creates a thread (entry pc + stack top); returns its id. Exposed for
  /// tests and the thread_create syscall.
  unsigned createThread(AppPc Entry, uint32_t StackTop);

private:
  enum class SyscallResult { Ok, Fault, ThreadExited, Spawned };

  /// Fills the decode line of \p Pc; null on undecodable bytes.
  const PredecodedInstr *fillDecode(AppPc Pc);
  /// Empties the decode line of \p Pc if it holds \p Pc.
  void dropDecode(AppPc Pc) {
    const uint32_t Idx = Pc & (DecodeCacheLines - 1);
    if (DecodeCache[Idx].Tag == Pc + 1)
      DecodeCache.mut(Idx).Tag = 0;
  }

  /// Records a store for write monitoring: drops the cached decodes the
  /// store may overlap when the target line ever held cached decodes
  /// (self-modifying code must not execute stale decodes, natively or
  /// under a runtime) and logs an event when the line is watched.
  ///
  /// The fast path is a single indexed load: LineState packs the sticky
  /// decoded bit and the watch count per line, and is zero for ordinary
  /// data lines (the stack, the heap). Callers guarantee [Addr, Addr+Len)
  /// is in bounds (they note only successful writes) and Len <= 8, so a
  /// store spans at most two lines.
  RIO_ALWAYS_INLINE void noteWrite(uint32_t Addr, uint32_t Len) {
    uint32_t L0 = Addr / WriteWatchLine;
    uint32_t State = LineState[L0]; // CowArray const read: no chunk fault
    uint32_t L1 = (Addr + Len - 1) / WriteWatchLine;
    if (RIO_UNLIKELY(L1 != L0))
      State |= LineState[L1];
    if (RIO_UNLIKELY(State != 0))
      noteWriteSlow(Addr, Len, State);
  }
  void noteWriteSlow(uint32_t Addr, uint32_t Len, uint32_t State);

  // Operand access on pre-decoded operands of any kind, for the generic
  // cases of run()'s switch (see Machine.cpp). Register classes were
  // checked when the record was filled.
  RIO_ALWAYS_INLINE bool read32(const PredecodedOp &Op, uint32_t &Value);
  RIO_ALWAYS_INLINE bool write32(const PredecodedOp &Op, uint32_t Value);
  RIO_ALWAYS_INLINE bool read8(const PredecodedOp &Op, uint8_t &Value);
  RIO_ALWAYS_INLINE bool write8(const PredecodedOp &Op, uint8_t Value);
  RIO_ALWAYS_INLINE bool readF64(const PredecodedOp &Op, double &Value);
  RIO_ALWAYS_INLINE bool writeF64(const PredecodedOp &Op, double Value);

  SyscallResult doSyscall();

  struct Thread {
    CpuState Cpu;
    bool Alive = true;
  };

  MachineConfig Config;
  MemoryImage Mem;
  std::vector<Thread> Threads{1};
  unsigned CurThread = 0;
  BranchPredictors Pred;

  RunStatus Status = RunStatus::Running;
  int ExitCode = 0;
  std::string FaultReason;
  std::string Output;

  // run() keeps these and the current thread's pc in locals while it runs
  // and writes them back before it returns.
  uint64_t Cycles = 0;
  uint64_t InstrsExecuted = 0;
  AppPc LastPc = 0;

  AppPc ResetPc = 0;    ///< program entry state; see recordResetState()
  uint32_t ResetSp = 0;

  /// One direct-mapped decode-cache line: valid iff Tag is the probe pc
  /// plus one (pcs are below the memory size, so the all-zero line — the
  /// CowArray's untouched state — never reads as valid, and invalidation
  /// stores 0). The record memoizes the (fixed) cost model's cyclesFor at
  /// fill time so the hit path charges cycles with one load instead of an
  /// operand walk.
  struct DecodeLine {
    uint32_t Tag = 0;
    PredecodedInstr R;
  };
  static_assert(sizeof(DecodeLine) <= 64,
                "a 64 KB copy-on-write chunk holds at least 1024 lines");
  // The derived host-side tables live in CowArrays so a forked machine
  // shares them: copying ~5MB of decode cache per tenant would dwarf the
  // tenant's real footprint.
  CowArray<DecodeLine> DecodeCache; ///< DecodeCacheLines entries

  /// Write-monitor state, one word per WriteWatchLine-sized line:
  /// bit 0 is sticky "a decode was cached from this line" (stores there
  /// must invalidate); bits 1+ count live write watches (registrations
  /// nest). Zero means stores to the line are unmonitored — the common
  /// case, and noteWrite's single-load fast path.
  CowArray<uint32_t> LineState;
  std::vector<CodeWriteEvent> CodeWrites;
  bool CodeWritten = false; ///< CodeWrites grew; run() checks its cursor
  std::unordered_set<AppPc> StopPcs;        ///< see setStopPc()

  CpuState *CurCpu = nullptr; ///< &Threads[CurThread].Cpu, cached
};

} // namespace rio

#endif // RIO_VM_MACHINE_H
