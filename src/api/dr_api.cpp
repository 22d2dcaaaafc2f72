//===- api/dr_api.cpp - The DynamoRIO-style client API -----------------------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//

#include "api/dr_api.h"

#include "persist/CacheImage.h"
#include "support/Compiler.h"
#include "support/OutStream.h"

#include <cstdio>
#include <cstring>

using namespace rio;

namespace {

Runtime &runtimeOf(void *Context) {
  assert(Context && "null dr context");
  return *static_cast<Runtime *>(Context);
}

/// Adapter from the paper's free-function hook table to the C++ Client.
class FunctionClient : public Client {
public:
  explicit FunctionClient(const DrClientFunctions &Hooks) : Hooks(Hooks) {}

  void onInit(Runtime &) override {
    if (Hooks.dynamorio_init)
      Hooks.dynamorio_init();
  }
  void onExit(Runtime &) override {
    if (Hooks.dynamorio_exit)
      Hooks.dynamorio_exit();
  }
  void onThreadInit(Runtime &RT) override {
    if (Hooks.dynamorio_thread_init)
      Hooks.dynamorio_thread_init(&RT);
  }
  void onThreadExit(Runtime &RT) override {
    if (Hooks.dynamorio_thread_exit)
      Hooks.dynamorio_thread_exit(&RT);
  }
  void onBasicBlock(Runtime &RT, AppPc Tag, InstrList &Block) override {
    if (Hooks.dynamorio_basic_block)
      Hooks.dynamorio_basic_block(&RT, Tag, &Block);
  }
  void onTrace(Runtime &RT, AppPc Tag, InstrList &Trace) override {
    if (Hooks.dynamorio_trace)
      Hooks.dynamorio_trace(&RT, Tag, &Trace);
  }
  void onFragmentDeleted(Runtime &RT, AppPc Tag) override {
    if (Hooks.dynamorio_fragment_deleted)
      Hooks.dynamorio_fragment_deleted(&RT, Tag);
  }
  EndTrace onEndTrace(Runtime &RT, AppPc TraceTag, AppPc NextTag) override {
    if (!Hooks.dynamorio_end_trace)
      return EndTrace::Default;
    switch (Hooks.dynamorio_end_trace(&RT, TraceTag, NextTag)) {
    case TRACE_END_NOW:
      return EndTrace::End;
    case TRACE_CONTINUE:
      return EndTrace::Continue;
    default:
      return EndTrace::Default;
    }
  }

private:
  DrClientFunctions Hooks;
};

// dr_printf sink. The paper's dr_printf takes no context parameter, so the
// destination is process state; tests capture it via dr_set_client_out.
OutStream *ClientOut = nullptr;

} // namespace

Client *rio::makeFunctionClient(const DrClientFunctions &Hooks) {
  return new FunctionClient(Hooks);
}

//===----------------------------------------------------------------------===//
// InstrList traversal and mutation
//===----------------------------------------------------------------------===//

Instr *rio::instrlist_first(InstrList *Il) { return Il->first(); }
Instr *rio::instrlist_last(InstrList *Il) { return Il->last(); }
void rio::instrlist_append(InstrList *Il, Instr *I) { Il->append(I); }
void rio::instrlist_prepend(InstrList *Il, Instr *I) { Il->prepend(I); }
void rio::instrlist_preinsert(InstrList *Il, Instr *Where, Instr *I) {
  Il->insertBefore(Where, I);
}
void rio::instrlist_postinsert(InstrList *Il, Instr *Where, Instr *I) {
  Il->insertAfter(Where, I);
}
void rio::instrlist_replace(InstrList *Il, Instr *Old, Instr *New) {
  Il->replace(Old, New);
}
void rio::instrlist_remove(InstrList *Il, Instr *I) { Il->remove(I); }

void rio::instrlist_expand(void *Context, InstrList *Il, int Level) {
  (void)Context;
  Arena &A = Il->arena();
  for (Instr *I = Il->first(); I;) {
    Instr *Next = I->next();
    if (I->isBundle()) {
      const uint8_t *Bytes = I->rawBits();
      unsigned Len = I->rawLength();
      AppPc Pc = I->appAddr();
      unsigned Off = 0;
      while (Off < Len) {
        Instr *NewInstr = nullptr;
        if (Level >= 3) {
          DecodedInstr DI;
          if (!decodeInstr(Bytes + Off, Len - Off, Pc + Off, DI))
            break;
          NewInstr = Instr::createDecoded(A, DI, Bytes + Off, Pc + Off);
          Off += DI.Length;
        } else if (Level == 2) {
          Opcode Op;
          uint32_t Eflags;
          int L;
          if (!decodeOpcodeAndEflags(Bytes + Off, Len - Off, Op, Eflags, L))
            break;
          NewInstr = Instr::createOpcodeKnown(A, Bytes + Off, unsigned(L),
                                              Pc + Off, Op, Eflags);
          Off += unsigned(L);
        } else {
          int L = decodeLength(Bytes + Off, Len - Off);
          if (L < 0)
            break;
          NewInstr = Instr::createRaw(A, Bytes + Off, unsigned(L), Pc + Off);
          Off += unsigned(L);
        }
        Il->insertBefore(I, NewInstr);
      }
      Il->remove(I);
    } else if (Level >= 2 && I->level() < Instr::Level::OpcodeKnown) {
      I->upgradeToOpcode();
      if (Level >= 3)
        I->upgradeToDecoded();
    } else if (Level >= 3 && I->level() < Instr::Level::Decoded) {
      I->upgradeToDecoded();
    }
    I = Next;
  }
}

unsigned rio::instrlist_num_instrs(InstrList *Il) {
  unsigned N = 0;
  for (Instr &I : *Il) {
    if (!I.isBundle()) {
      if (!I.isLabel())
        ++N;
      continue;
    }
    const uint8_t *Bytes = I.rawBits();
    unsigned Len = I.rawLength();
    unsigned Off = 0;
    while (Off < Len) {
      int L = decodeLength(Bytes + Off, Len - Off);
      if (L < 0)
        break;
      Off += unsigned(L);
      ++N;
    }
  }
  return N;
}

//===----------------------------------------------------------------------===//
// Instr queries
//===----------------------------------------------------------------------===//

Instr *rio::instr_get_next(Instr *I) { return I->next(); }
Instr *rio::instr_get_prev(Instr *I) { return I->prev(); }
int rio::instr_get_opcode(Instr *I) { return I->getOpcode(); }
uint32_t rio::instr_get_eflags(Instr *I) { return I->getEflags(); }
uint32_t rio::instr_get_prefixes(Instr *I) { return I->getPrefixes(); }
void rio::instr_set_prefixes(Instr *I, uint32_t Prefixes) {
  I->setPrefixes(uint8_t(Prefixes));
}
unsigned rio::instr_num_srcs(Instr *I) { return I->numSrcs(); }
unsigned rio::instr_num_dsts(Instr *I) { return I->numDsts(); }
opnd_t rio::instr_get_src(Instr *I, unsigned Index) { return I->getSrc(Index); }
opnd_t rio::instr_get_dst(Instr *I, unsigned Index) { return I->getDst(Index); }
void rio::instr_set_src(Instr *I, unsigned Index, opnd_t Op) {
  I->setSrc(Index, Op);
}
void rio::instr_set_dst(Instr *I, unsigned Index, opnd_t Op) {
  I->setDst(Index, Op);
}
bool rio::instr_is_cti(Instr *I) { return !I->isBundle() && I->isCti(); }
bool rio::instr_is_exit_cti(Instr *I) {
  if (I->isBundle() || I->isLabel() || !I->isCti())
    return false;
  if (I->isIndirectCti())
    return true;
  return !I->getSrc(0).isInstr(); // label targets are intra-fragment
}
bool rio::instr_reads_memory(Instr *I) { return I->readsMemory(); }
bool rio::instr_writes_memory(Instr *I) { return I->writesMemory(); }
app_pc rio::instr_get_app_pc(Instr *I) { return I->appAddr(); }
void rio::instr_set_note(Instr *I, void *Note) { I->setNote(Note); }
void *rio::instr_get_note(Instr *I) { return I->note(); }
void rio::instr_destroy(void *Context, Instr *I) {
  (void)Context;
  (void)I; // arena-owned; freed wholesale
}

//===----------------------------------------------------------------------===//
// Creation
//===----------------------------------------------------------------------===//

Instr *rio::instr_create(void *Context, int Op,
                         std::initializer_list<opnd_t> Explicit) {
  Runtime &RT = runtimeOf(Context);
  if (Op == OP_label)
    return Instr::createLabel(RT.clientArena());
  return Instr::createSynth(RT.clientArena(), Opcode(Op), Explicit);
}

bool rio::opnd_is_reg(opnd_t Op) { return Op.isReg(); }
bool rio::opnd_is_immed_int(opnd_t Op) { return Op.isImm(); }
bool rio::opnd_is_memory_reference(opnd_t Op) { return Op.isMem(); }
bool rio::opnd_is_pc(opnd_t Op) { return Op.isPc(); }
Register rio::opnd_get_reg(opnd_t Op) { return Op.getReg(); }
int64_t rio::opnd_get_immed_int(opnd_t Op) { return Op.getImm(); }
Register rio::opnd_get_base(opnd_t Op) { return Op.getBase(); }
Register rio::opnd_get_index(opnd_t Op) { return Op.getIndex(); }
int rio::opnd_get_scale(opnd_t Op) { return Op.getScale(); }
int rio::opnd_get_disp(opnd_t Op) { return Op.getDisp(); }
app_pc rio::opnd_get_pc(opnd_t Op) { return Op.getPc(); }
int rio::opnd_size_in_bytes(opnd_t Op) { return Op.sizeBytes(); }
bool rio::opnd_same(opnd_t A, opnd_t B) { return A == B; }
bool rio::opnd_uses_reg(opnd_t Op, Register Reg) {
  return Op.usesRegister(Reg);
}

opnd_t rio::opnd_create_reg(Register Reg) { return Operand::reg(Reg); }
opnd_t rio::opnd_create_immed_int(int64_t Value, int SizeBytes) {
  return Operand::imm(Value, uint8_t(SizeBytes));
}
opnd_t rio::opnd_create_base_disp(Register Base, Register Index, int Scale,
                                  int Disp, int SizeBytes) {
  return Operand::mem(Base, Disp, uint8_t(SizeBytes), Index, uint8_t(Scale));
}
opnd_t rio::opnd_create_abs_mem(uint32_t Addr, int SizeBytes) {
  return Operand::memAbs(Addr, uint8_t(SizeBytes));
}
opnd_t rio::opnd_create_pc(app_pc Pc) { return Operand::pc(Pc); }

//===----------------------------------------------------------------------===//
// Transparency services
//===----------------------------------------------------------------------===//

void rio::dr_printf(const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  OutStream &OS = ClientOut ? *ClientOut : outs();
  OS.vprintf(Fmt, Args);
  va_end(Args);
}

void rio::dr_set_client_out(void *Context, OutStream *OS) {
  (void)Context;
  ClientOut = OS;
}

void *rio::dr_global_alloc(void *Context, size_t Size) {
  return runtimeOf(Context).clientArena().allocate(Size);
}

void *rio::dr_thread_alloc(void *Context, size_t Size) {
  // One simulated thread per runtime: thread-private allocation coincides
  // with global allocation (both transparent to the application).
  return dr_global_alloc(Context, Size);
}

void rio::dr_set_tls_field(void *Context, uint32_t Value) {
  Runtime &RT = runtimeOf(Context);
  RT.machine().mem().write32(RT.slots().ClientTlsSlot, Value);
}

uint32_t rio::dr_get_tls_field(void *Context) {
  Runtime &RT = runtimeOf(Context);
  uint32_t Value = 0;
  RT.machine().mem().read32(RT.slots().ClientTlsSlot, Value);
  return Value;
}

bool rio::dr_using_shared_cache(void *Context) {
  return runtimeOf(Context).config().Sharing == CacheSharing::Shared;
}

unsigned rio::dr_get_thread_id(void *Context) {
  return runtimeOf(Context).activeContext().Tid;
}

bool rio::dr_ib_inlining_enabled(void *Context) {
  return runtimeOf(Context).config().IbInline;
}

//===----------------------------------------------------------------------===//
// Observability
//===----------------------------------------------------------------------===//

void rio::dr_trace_event(void *Context, const char *Label, uint32_t Value) {
  Runtime &RT = runtimeOf(Context);
  EventTrace *Trace = RT.eventTrace();
  if (!Trace)
    return;
  RT.noteClientEvent(Trace->internLabel(Label ? Label : ""), Value);
}

bool rio::dr_register_event_hook(
    void *Context, std::function<void(const TraceEvent &)> Hook) {
  EventTrace *Trace = runtimeOf(Context).eventTrace();
  if (!Trace)
    return false;
  Trace->setHook(std::move(Hook));
  return true;
}

std::vector<rio::dr_profile_entry> rio::dr_get_profile(void *Context) {
  std::vector<dr_profile_entry> Out;
  SampleProfile *Prof = runtimeOf(Context).profiler();
  if (!Prof)
    return Out;
  for (const SampleProfile::Entry &E : Prof->hottest())
    Out.push_back({E.Tag, E.Samples, E.TraceSamples});
  return Out;
}

//===----------------------------------------------------------------------===//
// Spill slots and clean calls
//===----------------------------------------------------------------------===//

uint32_t rio::dr_spill_slot_addr(void *Context, unsigned Index) {
  assert(Index < 8 && "spill slot index out of range");
  return runtimeOf(Context).slots().SpillSlots + 4 * Index;
}

void rio::dr_save_reg(void *Context, InstrList *Il, Instr *Where, Register Reg,
                      unsigned SlotIndex) {
  Runtime &RT = runtimeOf(Context);
  Instr *Mov = Instr::createSynth(
      RT.clientArena(), OP_mov,
      {Operand::memAbs(dr_spill_slot_addr(Context, SlotIndex), 4),
       Operand::reg(Reg)});
  Il->insertBefore(Where, Mov);
}

void rio::dr_restore_reg(void *Context, InstrList *Il, Instr *Where,
                         Register Reg, unsigned SlotIndex) {
  Runtime &RT = runtimeOf(Context);
  Instr *Mov = Instr::createSynth(
      RT.clientArena(), OP_mov,
      {Operand::reg(Reg),
       Operand::memAbs(dr_spill_slot_addr(Context, SlotIndex), 4)});
  Il->insertBefore(Where, Mov);
}

void rio::dr_insert_clean_call(void *Context, InstrList *Il, Instr *Where,
                               std::function<void(CleanCallContext &)> Fn) {
  Runtime &RT = runtimeOf(Context);
  uint32_t Id = RT.registerCleanCall(std::move(Fn));
  Instr *Call = Instr::createSynth(RT.clientArena(), OP_clientcall,
                                   {Operand::imm(int64_t(Id), 4)});
  Il->insertBefore(Where, Call);
}

app_pc rio::dr_get_ib_target(CleanCallContext &Ctx) { return Ctx.ibTarget(); }

//===----------------------------------------------------------------------===//
// Custom stubs, adaptive optimization, custom traces
//===----------------------------------------------------------------------===//

InstrList *rio::dr_newlist(void *Context) {
  Arena &A = runtimeOf(Context).clientArena();
  return new (A.allocate(sizeof(InstrList), alignof(InstrList))) InstrList(A);
}

void rio::dr_set_exit_stub(void *Context, Instr *ExitCti, InstrList *Stub,
                           bool AlwaysThrough) {
  runtimeOf(Context).setCustomExitStub(ExitCti, Stub, AlwaysThrough);
}

InstrList *rio::dr_decode_fragment(void *Context, app_pc Tag) {
  Runtime &RT = runtimeOf(Context);
  return RT.decodeFragment(RT.clientArena(), Tag);
}

bool rio::dr_replace_fragment(void *Context, app_pc Tag, InstrList *Il) {
  return runtimeOf(Context).replaceFragment(Tag, *Il);
}

bool rio::dr_publish_fragment(void *Context, app_pc Tag, InstrList *Il) {
  return runtimeOf(Context).publishVersion(Tag, *Il);
}

int rio::dr_fragment_version(void *Context, app_pc Tag) {
  Fragment *F = runtimeOf(Context).lookupFragment(Tag);
  return F ? int(F->Version) : -1;
}

uint64_t rio::dr_publication_epoch(void *Context) {
  return runtimeOf(Context).publicationEpoch();
}

void rio::dr_flush_region(void *Context, app_pc Start, uint32_t Size) {
  runtimeOf(Context).flushRegion(Start, Size);
}

void rio::dr_mark_trace_head(void *Context, app_pc Tag) {
  runtimeOf(Context).markTraceHead(Tag);
}

namespace {

/// Whole-file read for cache images. An unreadable file yields an empty
/// buffer and false; the caller still runs the codec on the empty buffer so
/// the reject is observable (cache_warm_rejects / persist_reject) exactly
/// like a truncated image.
bool readFile(const char *Path, std::vector<uint8_t> &Out) {
  Out.clear();
  std::FILE *F = std::fopen(Path, "rb");
  if (!F)
    return false;
  uint8_t Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Out.insert(Out.end(), Buf, Buf + N);
  bool Ok = !std::ferror(F);
  std::fclose(F);
  if (!Ok)
    Out.clear();
  return Ok;
}

} // namespace

bool rio::dr_cache_save(void *Context, const char *Path) {
  std::vector<uint8_t> Image;
  if (!persist::CacheCodec::save(runtimeOf(Context), Image))
    return false;
  std::FILE *F = std::fopen(Path, "wb");
  if (!F)
    return false;
  bool Ok = std::fwrite(Image.data(), 1, Image.size(), F) == Image.size();
  Ok = (std::fclose(F) == 0) && Ok;
  return Ok;
}

bool rio::dr_cache_load(void *Context, const char *Path) {
  std::vector<uint8_t> Image;
  readFile(Path, Image);
  return persist::CacheCodec::load(runtimeOf(Context), Image.data(),
                                   Image.size()) == persist::LoadStatus::Ok;
}

bool rio::dr_cache_image_valid(void *Context, const char *Path) {
  std::vector<uint8_t> Image;
  if (!readFile(Path, Image))
    return false;
  return persist::CacheCodec::validate(runtimeOf(Context), Image.data(),
                                       Image.size()) == persist::LoadStatus::Ok;
}

//===----------------------------------------------------------------------===//
// Copy-on-write machine forking
//===----------------------------------------------------------------------===//

namespace {

/// A tenant the API owns: the machine must outlive the runtime, so the
/// member order is load-bearing (members destroy in reverse order).
struct ForkedTenant {
  std::unique_ptr<Machine> M;
  std::unique_ptr<Runtime> RT;
};

/// Tenants created through dr_fork_machine, keyed by the context handed
/// back to the caller (the tenant Runtime*). File-scope, like the
/// dr_printf sink: the paper's API has no process object to hang it on.
std::unordered_map<void *, ForkedTenant> ForkRegistry;

} // namespace

bool rio::dr_freeze_template(void *TemplateContext) {
  Runtime &RT = runtimeOf(TemplateContext);
  return RT.isFrozenTemplate() || RT.freezeTemplate();
}

void *rio::dr_fork_machine(void *TemplateContext) {
  Runtime &Template = runtimeOf(TemplateContext);
  if (!dr_freeze_template(TemplateContext))
    return nullptr;
  ForkedTenant T;
  T.M = std::make_unique<Machine>(Template.machine());
  T.RT = Runtime::forkFrom(Template, *T.M);
  if (!T.RT)
    return nullptr;
  void *Context = T.RT.get();
  ForkRegistry.emplace(Context, std::move(T));
  return Context;
}

bool rio::dr_is_forked(void *Context) {
  return runtimeOf(Context).isForked();
}

Machine *rio::dr_fork_machine_of(void *Context) {
  auto It = ForkRegistry.find(Context);
  return It == ForkRegistry.end() ? nullptr : It->second.M.get();
}

void rio::dr_fork_delete(void *Context) { ForkRegistry.erase(Context); }

MetricsRegistry &rio::dr_metrics(void *Context) {
  return runtimeOf(Context).metrics();
}

MetricSnapshot rio::dr_metrics_snapshot(void *Context) {
  return runtimeOf(Context).metrics().snapshot();
}

bool rio::dr_metrics_export(void *Context, const char *Path,
                            const char *Format) {
  bool Prom = std::strcmp(Format, "prom") == 0;
  if (!Prom && std::strcmp(Format, "json") != 0)
    return false;
  std::FILE *File = std::fopen(Path, "w");
  if (!File)
    return false;
  MetricSnapshot Snap = runtimeOf(Context).metrics().snapshot();
  FileOutStream OS(File);
  if (Prom)
    writePrometheus(OS, Snap);
  else
    writeMetricsJson(OS, Snap);
  std::fclose(File);
  return true;
}

bool rio::dr_flight_dump(void *Context, const char *Path, const char *Reason) {
  Runtime &RT = runtimeOf(Context);
  std::FILE *File = std::fopen(Path, "w");
  if (!File)
    return false;
  MetricSnapshot Snap = RT.metrics().snapshot();
  FileOutStream OS(File);
  writeFlightRecord(OS, Reason, Snap, RT.eventTrace(), RT.profiler());
  std::fclose(File);
  return true;
}

int rio::proc_get_family(void *Context) {
  return runtimeOf(Context).machine().cost().Family == CpuFamily::PentiumIV
             ? FAMILY_PENTIUM_IV
             : FAMILY_PENTIUM_III;
}
