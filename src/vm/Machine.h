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

#include <memory>
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
// run() returns this in one register. A larger result went through a
// stack slot that was written in halves and read whole, a store-forwarding
// stall that made a step() loop 45% slower.
static_assert(sizeof(StepResult) == 8, "StepResult fits one register");

/// Where Machine::run() hands control back to its caller. run() returns
/// before the first instruction at which the deadline or the cycle limit
/// is reached or a pc condition holds, and after an instruction that grew
/// the code-write log past the caller's cursor; it tests each condition
/// where it can change, not after every instruction (see Machine::run).
/// The defaults disable every condition, so a default StopSet runs until
/// a step returns something other than StepKind::Ok.
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
/// cycle cost, whether the pc is stop-marked (see Machine::setStopPc), and
/// its form: the id of the handler Machine::run() jumps to, chosen from the
/// opcode and its operand kinds when the record fills (see Machine.cpp; 0
/// is the handler that faults). Operand slots follow the canonical layout
/// of isa/OperandLayout.h; the interpreter uses at most two sources and one
/// destination (xchg's second destination is its second source).
///
/// A record copied into a run also carries what run() needs to settle the
/// run when it leaves at this record: its index in the run, its offset in
/// bytes from the run's entry pc (so its pc is the entry pc plus Off), and
/// CumCost, the costs summed from the run's entry through this record. A
/// decode line's record is a run of one: index 0, offset 0, and CumCost is
/// its own cost. A record's own cost is its CumCost less the previous
/// record's.
struct PredecodedInstr {
  Opcode Op = OP_INVALID;
  uint8_t Length = 0;
  bool Stop = false;
  uint32_t CumCost = 0;
  uint8_t Form = 0;
  uint8_t Index = 0; ///< in the run; run() counts Index + 1 records at exit
  uint8_t Off = 0;   ///< from the run's entry pc (RunMaxSpan fits a byte)
  PredecodedOp Src[2];
  PredecodedOp Dst[1];
};
static_assert(sizeof(PredecodedInstr) <= 36,
              "the run fields fit the record's padding");

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
  /// The cost model. Mutate it only before execution starts: decode records
  /// (decode-cache lines and runs) memoize per-instruction costs.
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
  /// Ok when it stopped for \p Stops or a stop mark. It stops on exactly
  /// the instruction a step() loop testing every condition before every
  /// instruction would stop on.
  ///
  /// Code runs from *runs* (superblocks): up to RunMaxRecords consecutive
  /// decode records within RunMaxSpan bytes, copied contiguously into a
  /// pool and found by their entry pc in a direct-mapped index. A
  /// conditional branch does not end a run: when it falls through the run
  /// goes on, and when it is taken it is a side exit to Next. Inside a run
  /// the next record is the next array element, and an instruction pays
  /// no bookkeeping: the pc, cycle and instruction counts and the last pc
  /// are settled once, from the record the run leaves at (its offset,
  /// index and cost summed from the entry), at every way out of the run:
  /// a side exit, a jump, call, return or indirect branch, the end of the
  /// run, int, clientcall, hlt and every fault. The stop conditions move
  /// to run entry, where they stay exact: a run is
  /// entered only if the deadline leaves room for all of it, the
  /// code-write log is not ahead of the cursor, the cycle count stays
  /// below the limit through the last record's start even if every branch
  /// before it mispredicts, no record after the entry is stop-marked (a
  /// run ends before a stop-marked pc) and StopPc is none of its later
  /// pcs. The pcs of a run ascend, and a side exit only shortens it.
  /// Otherwise its records run alone from the pool, each after every test,
  /// until the run ends or a side exit leaves it; a record running alone
  /// settles at the next record. step() runs only a run's first record,
  /// and at a pc that is no run's entry it builds a run of one record.
  /// Mid-run, only a store can change a condition or the code — by
  /// writing a run's bytes or a watched line — and it sets RunBreak, which
  /// the handlers that can store test, so the run leaves after the store.
  /// (invalidateDecodeRange() and setStopPc() set it between calls.) Every
  /// instruction keeps its own bounds checks, write monitoring and
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
  /// Whether run() faulted before the instruction at the pc ran: its bytes
  /// did not decode or the instruction budget was spent. That instruction
  /// is not counted in instructionsExecuted(), as every other faulting
  /// instruction is.
  bool faultedBeforeInstruction() const { return FaultedBefore; }

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
  /// aliasing pc may refill the same line). run() executes from runs and
  /// fills no line; a run built over a filled line copies its record.
  RIO_ALWAYS_INLINE const PredecodedInstr *fetchDecode(AppPc Pc) {
    if (RIO_UNLIKELY(Pc >= Mem.size()))
      return nullptr;
    const DecodeLine &L = DecodeCache[Pc & (DecodeCacheLines - 1)];
    if (RIO_LIKELY(L.Tag == Pc + 1))
      return &L.R;
    return fillDecode(Pc);
  }

  /// The opcode of the instruction at \p Pc, OP_INVALID on undecodable
  /// bytes. Reads a cached decode but fills no line: for queries about code
  /// that need not run.
  Opcode opcodeAt(AppPc Pc) const;

  /// Invalidates cached decodes in [Lo, Hi); the runtime calls this when it
  /// places or patches cache code. Empties the line of every pc in the
  /// range that holds that pc: O(min(Hi - Lo, DecodeCacheLines)), and a
  /// probe compares one tag. Drops every run whose bytes overlap the range
  /// (see run()).
  void invalidateDecodeRange(uint32_t Lo, uint32_t Hi);

  //===--------------------------------------------------------------------===
  // Runs (see run())
  //===--------------------------------------------------------------------===

  /// Most bytes one run covers: a run's bytes lie within RunMaxSpan bytes
  /// of its entry pc.
  static constexpr uint32_t RunMaxSpan = 255;
  /// Most records in one run.
  static constexpr uint32_t RunMaxRecords = 48;
  /// Entries in the direct-mapped run index; entry pcs that hash alike
  /// replace each other.
  static constexpr uint32_t RunIndexEntries = 1u << 10;
  /// Records in the run pool, end-of-run markers included. A build that
  /// finds the pool full first drops every run: storage never grows past
  /// the index and the pool.
  static constexpr uint32_t RunPoolRecords = 1024;

  /// Host bytes this machine holds for runs: zero until it builds its
  /// first run and again once its program has ended, and never more than
  /// the index plus the pool. A fork starts with none; its decode cache is
  /// still loaned copy-on-write from the template.
  size_t runBytes() const {
    return RunPoolStore ? RunIndexEntries * sizeof(RunSlot) +
                              RunPoolRecords * sizeof(PredecodedInstr)
                        : 0;
  }

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
  /// pc's decode record, set when the record is decoded; changing it drops
  /// the pc's line, so an aliasing refill can never lose it, and the runs
  /// that hold the pc.
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

  /// Decodes the instruction at \p Pc (below the memory size) from its
  /// bounded fetch window; false on undecodable bytes.
  bool decodeWindow(AppPc Pc, DecodedInstr &DI) const;
  /// Decodes the instruction at \p Pc into \p R; false on undecodable
  /// bytes.
  bool decodeAt(AppPc Pc, PredecodedInstr &R);
  /// Fills the decode line of \p Pc and marks the lines of its bytes as
  /// holding decodes; null on undecodable bytes.
  const PredecodedInstr *fillDecode(AppPc Pc);
  /// Empties the decode line of \p Pc if it holds \p Pc.
  void dropDecode(AppPc Pc) {
    const uint32_t Idx = Pc & (DecodeCacheLines - 1);
    if (DecodeCache[Idx].Tag == Pc + 1)
      DecodeCache.mut(Idx).Tag = 0;
  }

  /// Records a store for write monitoring: drops the runs and decode lines
  /// the store may overlap when a run was built over a written segment or
  /// a line was filled from the written line (self-modifying code must not
  /// execute stale decodes, natively or under a runtime) and logs an event
  /// when the line is watched.
  ///
  /// The fast path is a single indexed load: LineState packs the sticky
  /// decoded and run bits and the watch count per line, and is zero for
  /// ordinary data lines (the stack, the heap). Callers guarantee
  /// [Addr, Addr+Len) is in bounds (they note only successful writes) and
  /// Len <= 8, so a store spans at most two lines.
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
  /// Empties the decode line of every pc in [Lo, Hi) that holds that pc.
  void dropDecodeRange(uint32_t Lo, uint32_t Hi);

  /// One run-index entry: the run whose entry pc is Tag - 1 (0: empty),
  /// with what run() tests before entering it.
  struct RunSlot {
    uint32_t Tag;
    /// Most cycles every record but the last can charge when each falls
    /// through: its cost, plus the mispredict penalty for a branch.
    uint32_t HeadCost;
    uint16_t First;  ///< pool index of the entry record
    uint8_t N;       ///< records, the end-of-run marker not counted
    uint8_t LastOff; ///< entry pc to the last record's pc, in bytes
    uint8_t Span;    ///< entry pc to the end of the last record's bytes
  };
  static_assert(RunPoolRecords <= 0x10000 && RunMaxRecords <= 0xFF &&
                    RunMaxSpan <= 0xFF,
                "RunSlot fields hold every pool index, count and run span");

  /// The index entry of \p Pc: distinct for the pcs of any aligned
  /// RunIndexEntries-byte window, and windows map to different rotations.
  RIO_ALWAYS_INLINE RunSlot &runSlot(AppPc Pc) {
    return RunIndex[(Pc ^ (Pc >> RunIndexBits)) & (RunIndexEntries - 1)];
  }
  /// Builds the run of at most \p MaxRecords records that starts at \p Pc;
  /// null if \p Pc does not decode.
  const RunSlot *buildRun(AppPc Pc, uint32_t MaxRecords);
  /// The run that starts at \p Pc, built on a miss with at most
  /// \p MaxRecords records; null if \p Pc is out of range or does not
  /// decode. The bound comes first: pc ~0u would match the empty tag 0.
  RIO_ALWAYS_INLINE const RunSlot *findRun(AppPc Pc,
                                           uint32_t MaxRecords = RunMaxRecords) {
    if (RIO_UNLIKELY(Pc >= Mem.size()))
      return nullptr;
    const RunSlot &S = runSlot(Pc);
    if (RIO_LIKELY(S.Tag == Pc + 1))
      return &S;
    return buildRun(Pc, MaxRecords);
  }
  /// Drops every run whose bytes overlap [Lo, Hi); sets RunBreak if it
  /// drops one. (A run executing or being followed is in the index.) A
  /// range over which no run was ever built costs a few LineState reads.
  void dropRuns(uint32_t Lo, uint32_t Hi);
  /// Frees the run index and pool.
  void releaseRuns();

  // Operand access on pre-decoded operands of any kind, for run()'s
  // generic handlers (see Machine.cpp). Register classes were checked when
  // the record was filled.
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
  bool FaultedBefore = false; ///< see faultedBeforeInstruction()
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
  /// LineDecoded is sticky "a decode line was filled from this line"
  /// (stores there must invalidate); bits 1 to 8 (LineRunBits) are sticky
  /// "a run was built over this RunSegmentBytes-byte segment of the line"
  /// (only stores there can drop runs, so data beside code stays cheap);
  /// the bits from LineWatchOne up count live write watches (registrations
  /// nest). Zero means stores to the line are unmonitored — the common
  /// case, and noteWrite's single-load fast path.
  static constexpr uint32_t LineDecoded = 1;
  static constexpr uint32_t RunSegmentBytes = WriteWatchLine / 8;
  static constexpr uint32_t LineWatchOne = 1u << 9;
  static constexpr uint32_t LineRunBits = LineWatchOne - 2;
  /// The LineState bit of the run segment holding \p Addr.
  static constexpr uint32_t runSegmentBit(uint32_t Addr) {
    return 2u << (Addr % WriteWatchLine / RunSegmentBytes);
  }
  CowArray<uint32_t> LineState;
  std::vector<CodeWriteEvent> CodeWrites;
  bool CodeWritten = false; ///< CodeWrites grew; run() checks its cursor
  std::unordered_set<AppPc> StopPcs;        ///< see setStopPc()

  // Runs (see run()). Until the first build the index is a shared, never
  // written all-empty table, so a probe needs no null test; the pool is
  // allocated uninitialized, so only the records built ever become
  // resident.
  static constexpr uint32_t RunIndexBits = 10;
  static_assert(RunIndexEntries == 1u << RunIndexBits, "index size");
  static const RunSlot EmptyRunIndex[RunIndexEntries];
  RunSlot *RunIndex = const_cast<RunSlot *>(EmptyRunIndex);
  PredecodedInstr *RunPool = nullptr;
  uint32_t RunPoolUsed = 0;
  std::unique_ptr<RunSlot[]> RunIndexStore;
  std::unique_ptr<uint8_t[]> RunPoolStore;
  /// Set by whatever may change a stop condition or the code mid-run: a
  /// dropped run or a store into a watched line. Only a store can set it
  /// while a run executes, so only the handlers that can store test it,
  /// and leave the run after their instruction when it is set. run()
  /// clears it on entering a run or a record alone, and follows a run
  /// alone only while it stays clear.
  bool RunBreak = false;

  CpuState *CurCpu = nullptr; ///< &Threads[CurThread].Cpu, cached
};

} // namespace rio

#endif // RIO_VM_MACHINE_H
