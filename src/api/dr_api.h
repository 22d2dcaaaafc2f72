//===- api/dr_api.h - The DynamoRIO-style client API ------------------------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The C-style client API mirroring the published DynamoRIO interface, so
/// the paper's example client (Figure 3) can be written nearly line for
/// line. It is a thin veneer over the C++ classes:
///
///   void *context          <-> rio::Runtime*
///   Instr / InstrList      <-> rio::Instr / rio::InstrList
///   opnd_t                 <-> rio::Operand (by value)
///   app_pc                 <-> rio::AppPc
///
/// All allocation behind this API is transparent with respect to the
/// simulated application: instructions and client data come from runtime
/// arenas, and dr_printf writes to a runtime-owned stream, never to the
/// application's output (paper Section 3.2).
///
//===----------------------------------------------------------------------===//

#ifndef RIO_API_DR_API_H
#define RIO_API_DR_API_H

#include "core/Runtime.h"
#include "ir/InstrList.h"
#include "support/Metrics.h"

#include <cstdarg>

namespace rio {

using opnd_t = Operand;
using app_pc = AppPc;

//===----------------------------------------------------------------------===//
// Client registration (the hook table of the paper's Table 3)
//===----------------------------------------------------------------------===//

/// Return values for dynamorio_end_trace.
enum {
  TRACE_END_DEFAULT = 0, ///< use the runtime's standard test
  TRACE_END_NOW = 1,     ///< end the trace before adding next_tag
  TRACE_CONTINUE = 2,    ///< keep extending the trace
};

/// A client expressed as the paper's free functions. Unused hooks stay
/// null. Pass to makeFunctionClient() to obtain a Client for the Runtime.
struct DrClientFunctions {
  void (*dynamorio_init)() = nullptr;
  void (*dynamorio_exit)() = nullptr;
  void (*dynamorio_thread_init)(void *context) = nullptr;
  void (*dynamorio_thread_exit)(void *context) = nullptr;
  void (*dynamorio_basic_block)(void *context, app_pc tag,
                                InstrList *bb) = nullptr;
  void (*dynamorio_trace)(void *context, app_pc tag,
                          InstrList *trace) = nullptr;
  void (*dynamorio_fragment_deleted)(void *context, app_pc tag) = nullptr;
  int (*dynamorio_end_trace)(void *context, app_pc trace_tag,
                             app_pc next_tag) = nullptr;
};

/// Wraps a table of paper-style hook functions as a Client. The returned
/// object is heap-allocated and owned by the caller.
Client *makeFunctionClient(const DrClientFunctions &Hooks);

//===----------------------------------------------------------------------===//
// InstrList traversal and mutation
//===----------------------------------------------------------------------===//

Instr *instrlist_first(InstrList *il);
Instr *instrlist_last(InstrList *il);
void instrlist_append(InstrList *il, Instr *instr);
void instrlist_prepend(InstrList *il, Instr *instr);
void instrlist_preinsert(InstrList *il, Instr *where, Instr *instr);
void instrlist_postinsert(InstrList *il, Instr *where, Instr *instr);
void instrlist_replace(InstrList *il, Instr *old_instr, Instr *new_instr);
void instrlist_remove(InstrList *il, Instr *instr);

/// Expands Level 0 bundles in \p il into per-instruction Instrs at the
/// requested level (1, 2 or 3). Clients that need to walk every
/// instruction call this first; clients that do not, skip the cost.
void instrlist_expand(void *context, InstrList *il, int level);

/// Number of instructions in the list, counting bundle contents (cheap
/// boundary scan; does not raise any levels).
unsigned instrlist_num_instrs(InstrList *il);

//===----------------------------------------------------------------------===//
// Instr queries (mirroring the paper's Figure 3 usage)
//===----------------------------------------------------------------------===//

Instr *instr_get_next(Instr *instr);
Instr *instr_get_prev(Instr *instr);
int instr_get_opcode(Instr *instr);
uint32_t instr_get_eflags(Instr *instr);
uint32_t instr_get_prefixes(Instr *instr);
void instr_set_prefixes(Instr *instr, uint32_t prefixes);
unsigned instr_num_srcs(Instr *instr);
unsigned instr_num_dsts(Instr *instr);
opnd_t instr_get_src(Instr *instr, unsigned index);
opnd_t instr_get_dst(Instr *instr, unsigned index);
void instr_set_src(Instr *instr, unsigned index, opnd_t opnd);
void instr_set_dst(Instr *instr, unsigned index, opnd_t opnd);
bool instr_is_cti(Instr *instr);
bool instr_is_exit_cti(Instr *instr);
bool instr_reads_memory(Instr *instr);
bool instr_writes_memory(Instr *instr);
app_pc instr_get_app_pc(Instr *instr);
void instr_set_note(Instr *instr, void *note);
void *instr_get_note(Instr *instr);
/// Frees an Instr removed from a list. Arena-backed: bookkeeping no-op,
/// kept for API fidelity with the paper's Figure 3.
void instr_destroy(void *context, Instr *instr);

//===----------------------------------------------------------------------===//
// Instruction and operand creation
//===----------------------------------------------------------------------===//

/// Generic creation from explicit operands (the macros below forward
/// here). Returns null if the operands fit no form of the opcode.
Instr *instr_create(void *context, int opcode,
                    std::initializer_list<opnd_t> explicit_opnds);

// Operand queries (DynamoRIO opnd_t accessor family). opnd_t is a value
// type; these are thin readable wrappers over rio::Operand's methods.
bool opnd_is_reg(opnd_t opnd);
bool opnd_is_immed_int(opnd_t opnd);
bool opnd_is_memory_reference(opnd_t opnd);
bool opnd_is_pc(opnd_t opnd);
Register opnd_get_reg(opnd_t opnd);
int64_t opnd_get_immed_int(opnd_t opnd);
Register opnd_get_base(opnd_t opnd);
Register opnd_get_index(opnd_t opnd);
int opnd_get_scale(opnd_t opnd);
int opnd_get_disp(opnd_t opnd);
app_pc opnd_get_pc(opnd_t opnd);
int opnd_size_in_bytes(opnd_t opnd);
bool opnd_same(opnd_t a, opnd_t b);
/// True if \p opnd reads \p reg when evaluated (register operands and
/// address computations).
bool opnd_uses_reg(opnd_t opnd, Register reg);

opnd_t opnd_create_reg(Register reg);
opnd_t opnd_create_immed_int(int64_t value, int size_bytes);
opnd_t opnd_create_base_disp(Register base, Register index, int scale,
                             int disp, int size_bytes);
opnd_t opnd_create_abs_mem(uint32_t addr, int size_bytes);
opnd_t opnd_create_pc(app_pc pc);

#define OPND_CREATE_INT8(v) ::rio::opnd_create_immed_int((v), 1)
#define OPND_CREATE_INT32(v) ::rio::opnd_create_immed_int((v), 4)
#define OPND_CREATE_MEM32(base, disp)                                         \
  ::rio::opnd_create_base_disp((base), ::rio::REG_NULL, 1, (disp), 4)
#define OPND_CREATE_ABSMEM32(addr) ::rio::opnd_create_abs_mem((addr), 4)

// A creation macro for every RIO-32 instruction, paper style: explicit
// operands only, implicit ones filled automatically.
#define INSTR_CREATE_mov(dc, d, s) ::rio::instr_create(dc, ::rio::OP_mov, {d, s})
#define INSTR_CREATE_mov_b(dc, d, s)                                          \
  ::rio::instr_create(dc, ::rio::OP_mov_b, {d, s})
#define INSTR_CREATE_movzx_b(dc, d, s)                                        \
  ::rio::instr_create(dc, ::rio::OP_movzx_b, {d, s})
#define INSTR_CREATE_movzx_w(dc, d, s)                                        \
  ::rio::instr_create(dc, ::rio::OP_movzx_w, {d, s})
#define INSTR_CREATE_movsx_b(dc, d, s)                                        \
  ::rio::instr_create(dc, ::rio::OP_movsx_b, {d, s})
#define INSTR_CREATE_movsx_w(dc, d, s)                                        \
  ::rio::instr_create(dc, ::rio::OP_movsx_w, {d, s})
#define INSTR_CREATE_lea(dc, d, s) ::rio::instr_create(dc, ::rio::OP_lea, {d, s})
#define INSTR_CREATE_xchg(dc, a, b)                                           \
  ::rio::instr_create(dc, ::rio::OP_xchg, {a, b})
#define INSTR_CREATE_push(dc, s) ::rio::instr_create(dc, ::rio::OP_push, {s})
#define INSTR_CREATE_pop(dc, d) ::rio::instr_create(dc, ::rio::OP_pop, {d})
#define INSTR_CREATE_add(dc, d, s) ::rio::instr_create(dc, ::rio::OP_add, {d, s})
#define INSTR_CREATE_or(dc, d, s) ::rio::instr_create(dc, ::rio::OP_or, {d, s})
#define INSTR_CREATE_adc(dc, d, s) ::rio::instr_create(dc, ::rio::OP_adc, {d, s})
#define INSTR_CREATE_sbb(dc, d, s) ::rio::instr_create(dc, ::rio::OP_sbb, {d, s})
#define INSTR_CREATE_and(dc, d, s) ::rio::instr_create(dc, ::rio::OP_and, {d, s})
#define INSTR_CREATE_sub(dc, d, s) ::rio::instr_create(dc, ::rio::OP_sub, {d, s})
#define INSTR_CREATE_xor(dc, d, s) ::rio::instr_create(dc, ::rio::OP_xor, {d, s})
#define INSTR_CREATE_cmp(dc, a, b) ::rio::instr_create(dc, ::rio::OP_cmp, {a, b})
#define INSTR_CREATE_inc(dc, d) ::rio::instr_create(dc, ::rio::OP_inc, {d})
#define INSTR_CREATE_dec(dc, d) ::rio::instr_create(dc, ::rio::OP_dec, {d})
#define INSTR_CREATE_neg(dc, d) ::rio::instr_create(dc, ::rio::OP_neg, {d})
#define INSTR_CREATE_not(dc, d) ::rio::instr_create(dc, ::rio::OP_not, {d})
#define INSTR_CREATE_test(dc, a, b)                                           \
  ::rio::instr_create(dc, ::rio::OP_test, {a, b})
#define INSTR_CREATE_imul(dc, d, s)                                           \
  ::rio::instr_create(dc, ::rio::OP_imul, {d, s})
#define INSTR_CREATE_imul_imm(dc, d, s, i)                                    \
  ::rio::instr_create(dc, ::rio::OP_imul, {d, s, i})
#define INSTR_CREATE_mul(dc, s) ::rio::instr_create(dc, ::rio::OP_mul, {s})
#define INSTR_CREATE_idiv(dc, s) ::rio::instr_create(dc, ::rio::OP_idiv, {s})
#define INSTR_CREATE_cdq(dc) ::rio::instr_create(dc, ::rio::OP_cdq, {})
#define INSTR_CREATE_shl(dc, d, c) ::rio::instr_create(dc, ::rio::OP_shl, {d, c})
#define INSTR_CREATE_shr(dc, d, c) ::rio::instr_create(dc, ::rio::OP_shr, {d, c})
#define INSTR_CREATE_sar(dc, d, c) ::rio::instr_create(dc, ::rio::OP_sar, {d, c})
#define INSTR_CREATE_jmp(dc, t) ::rio::instr_create(dc, ::rio::OP_jmp, {t})
#define INSTR_CREATE_jcc(dc, cc_opcode, t)                                    \
  ::rio::instr_create(dc, (cc_opcode), {t})
#define INSTR_CREATE_call(dc, t) ::rio::instr_create(dc, ::rio::OP_call, {t})
#define INSTR_CREATE_ret(dc) ::rio::instr_create(dc, ::rio::OP_ret, {})
#define INSTR_CREATE_nop(dc) ::rio::instr_create(dc, ::rio::OP_nop, {})
#define INSTR_CREATE_savef(dc, m)                                             \
  ::rio::instr_create(dc, ::rio::OP_savef, {m})
#define INSTR_CREATE_restf(dc, m)                                             \
  ::rio::instr_create(dc, ::rio::OP_restf, {m})
#define INSTR_CREATE_label(dc) ::rio::instr_create(dc, ::rio::OP_label, {})

//===----------------------------------------------------------------------===//
// Transparency services
//===----------------------------------------------------------------------===//

/// printf to the runtime-owned client stream (never the application's
/// output). Without an explicit stream, output goes to stdout.
void dr_printf(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/// Redirects dr_printf for the current runtime (used by tests).
void dr_set_client_out(void *context, OutStream *os);

/// Transparent allocation from the runtime's client arena. Like malloc,
/// the bytes are uninitialized.
void *dr_global_alloc(void *context, size_t size);
void *dr_thread_alloc(void *context, size_t size);

/// Generic client thread-local field (a runtime slot, paper Section 3.2).
/// Under shared caches (dr_using_shared_cache) the slot is banked per
/// thread by the scheduler, so reads/writes always see the field of the
/// thread the runtime is currently executing as.
void dr_set_tls_field(void *context, uint32_t value);
uint32_t dr_get_tls_field(void *context);

//===----------------------------------------------------------------------===//
// Threads and cache sharing (paper Section 2)
//===----------------------------------------------------------------------===//

/// True when this runtime serves every application thread from one shared
/// pair of code caches (RuntimeConfig::CacheSharing::Shared) instead of the
/// paper's thread-private caches: "the cost of duplicating [shared code]
/// for each thread was far outweighed by the savings of not having to
/// synchronize changes in the cache" (Section 2). Clients caring about
/// per-fragment thread affinity (a fragment is executed by every thread in
/// shared mode) can branch on this.
bool dr_using_shared_cache(void *context);

/// Id of the application thread this runtime is currently executing as.
/// Always 0 under thread-private caches (each thread has its own runtime,
/// each considering itself thread 0); under a shared cache, the id of the
/// active thread context.
unsigned dr_get_thread_id(void *context);

/// Whether the runtime's adaptive indirect-branch inline caches are on
/// (RuntimeConfig::IbInline). When they are, spill slot 7 is reserved for
/// the chain's ecx spill, so clients using dr_save_reg should keep to the
/// lower slots; a client rewriting indirect-branch dispatch itself
/// (e.g. ibdispatch) may prefer to stand down when the runtime already
/// inlines hot targets.
bool dr_ib_inlining_enabled(void *context);

//===----------------------------------------------------------------------===//
// Observability (support/EventTrace.h, support/Profile.h)
//===----------------------------------------------------------------------===//

/// Records a client-defined marker event into the runtime's event trace,
/// timestamped with the simulated cycle clock and attributed to the active
/// thread. \p label is interned (stable id per distinct string) and shows
/// up by name in the Chrome trace export. No-op when no trace is attached
/// (RuntimeConfig::Trace) or tracing is disabled. Host-side only: never
/// charges simulated cycles.
void dr_trace_event(void *context, const char *label, uint32_t value);

/// Registers \p hook to be called synchronously for every event the
/// runtime records — the adaptive-tool analogue of the paper's counter
/// export: a client can watch evictions or IBL misses as they happen and
/// react (e.g. dr_mark_trace_head). One hook per trace; re-registering
/// replaces it. Returns false when no trace is attached.
bool dr_register_event_hook(void *context,
                            std::function<void(const TraceEvent &)> hook);

/// One row of the cycle-sampled execution profile.
struct dr_profile_entry {
  app_pc tag;            ///< fragment tag (0 = runtime-internal time)
  uint64_t samples;      ///< samples attributed to the tag
  uint64_t trace_samples; ///< subset taken while a trace was executing
};

/// The per-tag profile accumulated by the attached sampling profiler
/// (RuntimeConfig::Profiler), hottest first with deterministic tie-breaks.
/// Empty when no profiler is attached.
std::vector<dr_profile_entry> dr_get_profile(void *context);

//===----------------------------------------------------------------------===//
// Register spill slots and clean calls
//===----------------------------------------------------------------------===//

/// Address of the \p index-th runtime spill slot; usable as an absolute
/// memory operand in inserted code.
uint32_t dr_spill_slot_addr(void *context, unsigned index);

/// Inserts "mov [slot_index] <- reg" before \p where.
void dr_save_reg(void *context, InstrList *il, Instr *where, Register reg,
                 unsigned slot_index);
/// Inserts "mov reg <- [slot_index]" before \p where.
void dr_restore_reg(void *context, InstrList *il, Instr *where, Register reg,
                    unsigned slot_index);

/// Registers \p fn and inserts a clean call to it before \p where.
void dr_insert_clean_call(void *context, InstrList *il, Instr *where,
                          std::function<void(CleanCallContext &)> fn);

/// The pending indirect-branch target during an IB-miss profiling call.
app_pc dr_get_ib_target(CleanCallContext &ctx);

//===----------------------------------------------------------------------===//
// Custom exit stubs (paper Section 3.2)
//===----------------------------------------------------------------------===//

/// Allocates an empty InstrList (from the runtime's arena) for building a
/// custom exit stub or replacement code.
InstrList *dr_newlist(void *context);

/// Attaches \p stub as the custom exit stub of \p exit_cti in the list the
/// client is currently processing. If \p always_through is set, control
/// flows through the stub even when the exit is linked.
void dr_set_exit_stub(void *context, Instr *exit_cti, InstrList *stub,
                      bool always_through);

//===----------------------------------------------------------------------===//
// Adaptive optimization (paper Section 3.4)
//===----------------------------------------------------------------------===//

InstrList *dr_decode_fragment(void *context, app_pc tag);
bool dr_replace_fragment(void *context, app_pc tag, InstrList *il);

//===----------------------------------------------------------------------===//
// Versioned publication & sideline queries (paper Sections 3.4, 6.4)
//===----------------------------------------------------------------------===//

/// Publishes \p il as the next version of the fragment at \p tag: the new
/// body is emitted beside the old one, the link graph and fragment table
/// are swapped to it atomically (from the simulated machine's view), and
/// the superseded body is retired — its cache bytes are reclaimed only
/// once no thread's guard pc (resume or clean-call pc) lies inside it. A
/// thread suspended in the old body runs it to its next exit, which no
/// longer links anywhere, and re-enters through the new version. Unlike
/// dr_replace_fragment it charges no per-instruction transform cost, only
/// SidelinePublishCost.
/// Returns false if \p tag has no live fragment.
bool dr_publish_fragment(void *context, app_pc tag, InstrList *il);

/// Version number of the live fragment at \p tag (0 for a body that has
/// never been superseded), or -1 if no fragment exists for \p tag.
int dr_fragment_version(void *context, app_pc tag);

/// Number of versions published so far (dr_publish_fragment, sideline
/// publication). 0 in a runtime that has never republished.
uint64_t dr_publication_epoch(void *context);

/// Cache consistency: deletes every fragment built from application code in
/// [start, start + size) — e.g. after the client observes the application
/// generating or patching code. Safe to call from a clean call even while
/// execution is logically inside an affected fragment: the fragment's cache
/// bytes are reclaimed only once execution has left them, and the next
/// dispatch of the flushed tags re-translates the current code.
void dr_flush_region(void *context, app_pc start, uint32_t size);

//===----------------------------------------------------------------------===//
// Custom traces (paper Section 3.5)
//===----------------------------------------------------------------------===//

void dr_mark_trace_head(void *context, app_pc tag);

//===----------------------------------------------------------------------===//
// Persistent code caches (src/persist; ROADMAP "persistent code caches")
//===----------------------------------------------------------------------===//

/// Serializes the warmed code caches — fragments, links, trace-head
/// counters, indirect-branch profiles — into a versioned `.riocache` image
/// at \p path. Returns false (writing nothing) if the runtime cannot be
/// snapshotted right now (client attached, execution suspended inside the
/// cache, mid-trace-recording, pending code-write events) or the file
/// cannot be written. Charges no simulated cycles.
bool dr_cache_save(void *context, const char *path);

/// Restores a `.riocache` image into a *cold* runtime (no fragments built
/// yet), so execution warm-starts with the previous run's caches. Any
/// validation failure — wrong version, corrupted payload, changed
/// configuration or application code, a runtime that already ran — leaves
/// the runtime untouched and returns false; the run proceeds as a normal
/// cold start (observable via the cache_warm_rejects statistic and the
/// persist_reject trace event). Charges no simulated cycles.
bool dr_cache_load(void *context, const char *path);

/// True if \p path holds an image that dr_cache_load would accept into
/// this runtime. Pure query: no stats, no events, no state changes.
bool dr_cache_image_valid(void *context, const char *path);

//===----------------------------------------------------------------------===//
// Copy-on-write machine forking (src/persist/Fork.cpp)
//===----------------------------------------------------------------------===//

/// Freezes \p template_context's runtime as a fork template: its warmed
/// state is serialized once and retained, after which dr_fork_machine can
/// spawn tenants from it. Requires quiescence (no client, cache mode, no
/// execution suspended in the cache, no pending code writes). Idempotent
/// once frozen. Returns false when the runtime cannot be frozen.
bool dr_freeze_template(void *template_context);

/// Spawns a warmed tenant off \p template_context (freezing it first if
/// needed): a copy-on-write fork of the template's machine plus a runtime
/// sharing the template's frozen code cache, fragment table, link graph,
/// and IB chains. The tenant pays only for pages it writes; the first
/// mutation of shared cache state deep-copies the cache (observable via
/// its fork_cache_unshares statistic). Returns the tenant's context —
/// usable with every other dr_ call, and castable to rio::Runtime* to run
/// it — or null on failure. The tenant and its machine stay alive (owned
/// by the API) until dr_fork_delete; the template must outlive them.
void *dr_fork_machine(void *template_context);

/// True while \p context is a forked tenant still sharing its template's
/// cache (false once it unshares — or was never forked at all).
bool dr_is_forked(void *context);

/// The forked tenant's machine (null if \p context did not come from
/// dr_fork_machine): where its output, cycle counts, and CoW page
/// statistics live.
Machine *dr_fork_machine_of(void *context);

/// Destroys a tenant created by dr_fork_machine, releasing its runtime and
/// machine (copy-on-write pages return to the template). No-op on contexts
/// that did not come from dr_fork_machine.
void dr_fork_delete(void *context);

//===----------------------------------------------------------------------===//
// Production telemetry (support/Metrics.h) — API.md §16
//===----------------------------------------------------------------------===//

/// The runtime's metrics registry, created on first use with the runtime
/// registered under the label "main". Clients may add their own gauges and
/// counters to it; snapshot deltas accumulate across calls because the
/// registry lives as long as the runtime. Purely host-side: touching it
/// never charges simulated cycles.
MetricsRegistry &dr_metrics(void *context);

/// Takes a point-in-time snapshot of dr_metrics(context): every statistic
/// and gauge, with the fleet rollup, deltas since the previous snapshot,
/// and any registered histograms. Deterministic ordering (see
/// support/Metrics.h), safe mid-run.
MetricSnapshot dr_metrics_snapshot(void *context);

/// Snapshots dr_metrics(context) and writes the export to \p path:
/// \p format "prom" for Prometheus text exposition, "json" for the JSON
/// document. Returns false on an unknown format or when the file cannot
/// be written.
bool dr_metrics_export(void *context, const char *path, const char *format);

/// The flight recorder: dumps one self-contained JSON post-mortem to
/// \p path — \p reason, a fresh metric snapshot, the last trace events
/// (when an event ring is attached), and the hottest profile entries
/// (when a profiler is attached). The mid-run "what just happened" export
/// for guard-rail trips and budget overruns. Returns false when the file
/// cannot be written.
bool dr_flight_dump(void *context, const char *path, const char *reason);

//===----------------------------------------------------------------------===//
// Processor identification (paper Section 3.2 / Figure 3)
//===----------------------------------------------------------------------===//

enum {
  FAMILY_PENTIUM_III = 6,
  FAMILY_PENTIUM_IV = 15,
};

/// Family of the processor the application is running on.
int proc_get_family(void *context);

} // namespace rio

#endif // RIO_API_DR_API_H
