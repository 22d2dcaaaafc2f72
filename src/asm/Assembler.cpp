//===- asm/Assembler.cpp - Two-pass RIO-32 assembler ------------------------===//
//
// Part of the RIO-DYN reproduction of "An Infrastructure for Adaptive
// Dynamic Optimization" (CGO 2003).
//
//===----------------------------------------------------------------------===//

#include "asm/Assembler.h"

#include "isa/Encode.h"
#include "isa/OperandLayout.h"
#include "vm/Machine.h"
#include "support/Compiler.h"

#include <cctype>
#include <cerrno>
#include <cstring>

using namespace rio;

namespace {

//===----------------------------------------------------------------------===//
// Lexing helpers
//===----------------------------------------------------------------------===//

struct Token {
  std::string Text;
};

/// Splits a line into tokens; separators are whitespace and commas, while
/// '[' ']' '+' '-' '*' ':' are tokens of their own. Strings are one token.
bool tokenize(const std::string &Line, std::vector<Token> &Toks,
              std::string &Error) {
  size_t I = 0, N = Line.size();
  while (I < N) {
    char C = Line[I];
    if (C == ';' || C == '#')
      break; // comment
    if (C == '/' && I + 1 < N && Line[I + 1] == '/')
      break;
    if (std::isspace(uint8_t(C)) || C == ',') {
      ++I;
      continue;
    }
    if (std::strchr("[]+*:", C)) {
      Toks.push_back({std::string(1, C)});
      ++I;
      continue;
    }
    if (C == '"') {
      std::string S = "\"";
      ++I;
      while (I < N && Line[I] != '"') {
        if (Line[I] == '\\' && I + 1 < N) {
          char Esc = Line[I + 1];
          S += Esc == 'n' ? '\n' : Esc == 't' ? '\t' : Esc == '0' ? '\0' : Esc;
          I += 2;
        } else {
          S += Line[I++];
        }
      }
      if (I == N) {
        Error = "unterminated string";
        return false;
      }
      ++I; // closing quote
      Toks.push_back({S});
      continue;
    }
    if (C == '-') {
      Toks.push_back({"-"});
      ++I;
      continue;
    }
    // Identifier / number / directive.
    size_t Start = I;
    while (I < N && (std::isalnum(uint8_t(Line[I])) || Line[I] == '_' ||
                     Line[I] == '.' || Line[I] == '@'))
      ++I;
    if (I == Start) {
      Error = std::string("unexpected character '") + C + "'";
      return false;
    }
    Toks.push_back({Line.substr(Start, I - Start)});
  }
  return true;
}

bool isNumber(const std::string &S) {
  if (S.empty())
    return false;
  size_t I = 0;
  if (S[0] == '-')
    I = 1;
  if (I >= S.size())
    return false;
  if (S.size() > I + 2 && S[I] == '0' && (S[I + 1] == 'x' || S[I + 1] == 'X'))
    return true;
  return std::isdigit(uint8_t(S[I])) != 0;
}

/// Parses all of \p S as an integer in [Lo, Hi]. False if \p S is
/// malformed or its value is out of range (strtoll's clamp included).
bool parseNumber(const std::string &S, int64_t &V, int64_t Lo = INT64_MIN,
                 int64_t Hi = INT64_MAX) {
  errno = 0;
  char *End = nullptr;
  V = std::strtoll(S.c_str(), &End, 0);
  return errno == 0 && End == S.c_str() + S.size() && V >= Lo && V <= Hi;
}

/// A 32-bit word, signed or unsigned: data words, displacements, addends.
constexpr int64_t WordMin = INT32_MIN, WordMax = UINT32_MAX;

/// The largest image the assembler lays out (eight default application
/// regions); bounds .space, .align and the total before any allocation.
constexpr int64_t MaxImageBytes = 64 << 20;

bool isFloatNumber(const std::string &S) {
  return isNumber(S) || S.find('.') != std::string::npos ||
         S.find('e') != std::string::npos;
}

//===----------------------------------------------------------------------===//
// Parsed items
//===----------------------------------------------------------------------===//

/// A parsed operand, possibly referring to not-yet-defined symbols.
struct POperand {
  enum Kind { Reg, Imm, Sym, Mem, Non } K = Non;
  Register R = REG_NULL;
  int64_t Value = 0;
  std::string Symbol; // for Imm-with-symbol and Mem displacement symbol
  // Memory fields.
  Register Base = REG_NULL;
  Register Index = REG_NULL;
  uint8_t Scale = 1;
  int64_t Disp = 0;
  std::string DispSymbol;
};

struct Item {
  enum Kind { Instruction, Data, Align } K = Instruction;
  unsigned LineNo = 0;
  // Instruction.
  Opcode Op = OP_INVALID;
  std::vector<POperand> Ops;
  // Data.
  std::vector<uint8_t> DataBytes;           // fixed payload (byte/ascii/f64)
  std::vector<std::string> WordSymbols;     // .word entries (symbol or number)
  std::vector<int64_t> WordValues;
  std::vector<bool> WordIsSymbol;
  unsigned AlignTo = 1;
  // Layout.
  AppPc Addr = 0;
  unsigned Size = 0;
};

/// Condition-code spellings the opcode table does not use.
const std::pair<const char *, Opcode> Aliases[] = {
    {"je", OP_jz},   {"jne", OP_jnz}, {"ja", OP_jnbe},
    {"jae", OP_jnb}, {"jge", OP_jnl}, {"jg", OP_jnle},
};

/// The opcode \p Name spells: the first opcode-table entry of that name (so
/// jmp, call and ret name their direct forms), else an alias; OP_INVALID if
/// none.
Opcode opcodeForMnemonic(const std::string &Name) {
  for (unsigned Op = OP_INVALID + 1; Op != NUM_OPCODES; ++Op)
    if (Name == opcodeName(Opcode(Op)))
      return Opcode(Op);
  for (const auto &[Alias, Op] : Aliases)
    if (Name == Alias)
      return Op;
  return OP_INVALID;
}

//===----------------------------------------------------------------------===//
// The assembler
//===----------------------------------------------------------------------===//

class Assembler {
public:
  bool run(const std::string &Source, Program &Out, std::string &Error);

private:
  bool parseLine(const std::string &Line, unsigned LineNo);
  bool parseOperand(const std::vector<Token> &Toks, size_t &I, POperand &Out);
  bool layoutAndEncode(Program &Out);
  bool resolveOperand(const POperand &P, uint8_t MemSize, Operand &Out);
  bool encodeInstruction(const Item &It, bool Sizing, uint8_t *Buf,
                         unsigned &Len);

  bool err(unsigned LineNo, const std::string &Msg) {
    ErrorText = "line " + std::to_string(LineNo) + ": " + Msg;
    return false;
  }

  std::vector<Item> Items;
  std::map<std::string, AppPc> Symbols;
  std::vector<std::pair<std::string, unsigned>> PendingLabels; // name, item idx
  std::map<std::string, unsigned> LabelToItem;
  AppPc OrgAddr = 0x1000;
  std::string EntrySymbol = "main";
  std::string ErrorText;
  unsigned CurLineNo = 0;
};

bool Assembler::parseOperand(const std::vector<Token> &Toks, size_t &I,
                             POperand &Out) {
  if (I >= Toks.size())
    return false;
  const std::string &T = Toks[I].Text;

  // Memory operand.
  if (T == "[") {
    ++I;
    Out.K = POperand::Mem;
    bool Neg = false;
    while (I < Toks.size() && Toks[I].Text != "]") {
      const std::string &P = Toks[I].Text;
      if (P == "+") {
        Neg = false;
        ++I;
        continue;
      }
      if (P == "-") {
        Neg = true;
        ++I;
        continue;
      }
      Register R = registerFromName(P.c_str(), P.size());
      if (R != REG_NULL) {
        // Register term (a 32-bit address register); check for *scale.
        if (!isGpr32(R))
          return false;
        int64_t Scale = 1;
        if (I + 2 < Toks.size() && Toks[I + 1].Text == "*") {
          if (!parseNumber(Toks[I + 2].Text, Scale, 1, 8) ||
              (Scale & (Scale - 1)))
            return false;
          I += 2;
        }
        if (Scale != 1) {
          if (Out.Index != REG_NULL)
            return false;
          Out.Index = R;
          Out.Scale = uint8_t(Scale);
        } else if (Out.Base == REG_NULL) {
          Out.Base = R;
        } else if (Out.Index == REG_NULL) {
          Out.Index = R;
        } else {
          return false;
        }
        if (Out.Index == REG_ESP)
          return false; // esp cannot index
        ++I;
        continue;
      }
      if (isNumber(P)) {
        int64_t V;
        if (!parseNumber(P, V, 0, WordMax))
          return false;
        Out.Disp += Neg ? -V : V;
        ++I;
        continue;
      }
      // Symbol displacement.
      if (!Out.DispSymbol.empty() || Neg)
        return false;
      Out.DispSymbol = P;
      ++I;
    }
    if (I >= Toks.size() || Out.Disp < WordMin || Out.Disp > WordMax)
      return false;
    ++I; // ']'
    return true;
  }

  // Register.
  Register R = registerFromName(T.c_str(), T.size());
  if (R != REG_NULL) {
    Out.K = POperand::Reg;
    Out.R = R;
    ++I;
    return true;
  }

  // Number (possibly negative via separate '-' token).
  if (T == "-" && I + 1 < Toks.size() && isNumber(Toks[I + 1].Text)) {
    Out.K = POperand::Imm;
    if (!parseNumber(Toks[I + 1].Text, Out.Value))
      return false;
    Out.Value = -Out.Value;
    I += 2;
    return true;
  }
  if (isNumber(T)) {
    Out.K = POperand::Imm;
    ++I;
    return parseNumber(T, Out.Value);
  }

  // Symbol (label used as immediate / branch target), with an optional
  // +/- constant addend: "stacks+1024".
  Out.K = POperand::Sym;
  Out.Symbol = T;
  ++I;
  while (I + 1 < Toks.size() &&
         (Toks[I].Text == "+" || Toks[I].Text == "-") &&
         isNumber(Toks[I + 1].Text)) {
    int64_t V;
    if (!parseNumber(Toks[I + 1].Text, V, 0, WordMax))
      return false;
    Out.Value += Toks[I].Text == "+" ? V : -V;
    I += 2;
  }
  return true;
}

bool Assembler::parseLine(const std::string &Line, unsigned LineNo) {
  std::vector<Token> Toks;
  std::string LexError;
  if (!tokenize(Line, Toks, LexError))
    return err(LineNo, LexError);
  size_t I = 0;

  // Leading labels ("name:").
  while (I + 1 < Toks.size() && Toks[I + 1].Text == ":") {
    const std::string &Name = Toks[I].Text;
    if (opcodeForMnemonic(Name) != OP_INVALID || isNumber(Name))
      return err(LineNo, "bad label name '" + Name + "'");
    if (LabelToItem.count(Name))
      return err(LineNo, "duplicate label '" + Name + "'");
    LabelToItem[Name] = unsigned(Items.size());
    I += 2;
  }
  if (I >= Toks.size())
    return true; // label-only or empty line

  const std::string &Head = Toks[I].Text;

  // Directives.
  if (Head[0] == '.') {
    ++I;
    int64_t V;
    if (Head == ".org") {
      if (I >= Toks.size() || !parseNumber(Toks[I].Text, V, 0, UINT32_MAX))
        return err(LineNo, ".org needs an address");
      OrgAddr = AppPc(V);
      return true;
    }
    if (Head == ".entry") {
      if (I >= Toks.size())
        return err(LineNo, ".entry needs a symbol");
      EntrySymbol = Toks[I].Text;
      return true;
    }
    Item It;
    It.LineNo = LineNo;
    if (Head == ".align") {
      if (I >= Toks.size() || !parseNumber(Toks[I].Text, V, 1, MaxImageBytes) ||
          (V & (V - 1)))
        return err(LineNo, ".align needs a power of two");
      It.K = Item::Align;
      It.AlignTo = unsigned(V);
      Items.push_back(std::move(It));
      return true;
    }
    It.K = Item::Data;
    if (Head == ".byte") {
      for (; I < Toks.size(); ++I) {
        if (!parseNumber(Toks[I].Text, V, 0, UINT8_MAX))
          return err(LineNo, ".byte needs numbers 0-255");
        It.DataBytes.push_back(uint8_t(V));
      }
    } else if (Head == ".word" || Head == ".long") {
      for (; I < Toks.size(); ++I) {
        if (isNumber(Toks[I].Text)) {
          if (!parseNumber(Toks[I].Text, V, 0, WordMax))
            return err(LineNo, Head + " value out of range");
          It.WordValues.push_back(V);
          It.WordIsSymbol.push_back(false);
          It.WordSymbols.emplace_back();
        } else {
          It.WordValues.push_back(0);
          It.WordIsSymbol.push_back(true);
          It.WordSymbols.push_back(Toks[I].Text);
        }
      }
    } else if (Head == ".f64" || Head == ".double") {
      for (; I < Toks.size(); ++I) {
        if (!isFloatNumber(Toks[I].Text))
          return err(LineNo, ".f64 needs numbers");
        double D = std::strtod(Toks[I].Text.c_str(), nullptr);
        uint8_t Buf[8];
        std::memcpy(Buf, &D, 8);
        It.DataBytes.insert(It.DataBytes.end(), Buf, Buf + 8);
      }
    } else if (Head == ".space") {
      if (I >= Toks.size() || !parseNumber(Toks[I].Text, V, 0, MaxImageBytes))
        return err(LineNo, ".space needs a size up to " +
                               std::to_string(MaxImageBytes));
      It.DataBytes.assign(size_t(V), 0);
    } else if (Head == ".ascii" || Head == ".asciz") {
      if (I >= Toks.size() || Toks[I].Text[0] != '"')
        return err(LineNo, Head + " needs a string");
      const std::string &S = Toks[I].Text;
      It.DataBytes.insert(It.DataBytes.end(), S.begin() + 1, S.end());
      if (Head == ".asciz")
        It.DataBytes.push_back(0);
    } else {
      return err(LineNo, "unknown directive " + Head);
    }
    Items.push_back(std::move(It));
    return true;
  }

  // Instruction.
  Item It;
  It.LineNo = LineNo;
  It.Op = opcodeForMnemonic(Head);
  if (It.Op == OP_INVALID)
    return err(LineNo, "unknown mnemonic '" + Head + "'");
  ++I;
  while (I < Toks.size()) {
    POperand P;
    if (!parseOperand(Toks, I, P))
      return err(LineNo, "bad operand");
    It.Ops.push_back(P);
  }

  // jmp/call with register or memory operand are the indirect opcodes;
  // "ret n" is ret_imm.
  if (It.Op == OP_jmp &&
      !It.Ops.empty() && It.Ops[0].K != POperand::Sym)
    It.Op = OP_jmp_ind;
  if (It.Op == OP_call && !It.Ops.empty() && It.Ops[0].K != POperand::Sym)
    It.Op = OP_call_ind;
  if (It.Op == OP_ret && !It.Ops.empty())
    It.Op = OP_ret_imm;

  Items.push_back(std::move(It));
  return true;
}

bool Assembler::resolveOperand(const POperand &P, uint8_t MemSize,
                               Operand &Out) {
  switch (P.K) {
  case POperand::Reg:
    Out = Operand::reg(P.R);
    return true;
  case POperand::Imm:
    Out = Operand::imm(P.Value, 4);
    return true;
  case POperand::Sym: {
    auto It = Symbols.find(P.Symbol);
    if (It == Symbols.end())
      return false;
    Out = Operand::imm(int64_t(It->second) + P.Value, 4);
    return true;
  }
  case POperand::Mem: {
    int64_t Disp = P.Disp;
    if (!P.DispSymbol.empty()) {
      auto It = Symbols.find(P.DispSymbol);
      if (It == Symbols.end())
        return false;
      Disp += int64_t(It->second);
    }
    Out = Operand::mem(P.Base, int32_t(Disp), MemSize, P.Index, P.Scale);
    return true;
  }
  case POperand::Non:
    return false;
  }
  return false;
}

/// Encodes instruction item \p It at its address into \p Buf, setting
/// \p Len. In the sizing pass, symbols not yet bound take a far placeholder
/// that forces the wide forms (except for the rel8-only jecxz, which must
/// assume a nearby target).
bool Assembler::encodeInstruction(const Item &It, bool Sizing, uint8_t *Buf,
                                  unsigned &Len) {
  uint8_t MemSize = operandRow(It.Op).MemSize;
  Operand Ex[MaxExplicit];
  unsigned NumEx = 0;
  for (const auto &P : It.Ops) {
    if (NumEx >= MaxExplicit)
      return err(It.LineNo, "too many operands");
    Operand O;
    if (Sizing && P.K == POperand::Sym && !Symbols.count(P.Symbol))
      O = Operand::imm(It.Op == OP_jecxz ? int64_t(It.Addr) : 0x7FFF0000, 4);
    else if (Sizing && P.K == POperand::Mem && !P.DispSymbol.empty() &&
             !Symbols.count(P.DispSymbol))
      O = Operand::mem(P.Base, 0x7FFF0000, MemSize, P.Index, P.Scale);
    else if (!resolveOperand(P, MemSize, O))
      return err(It.LineNo, "undefined symbol in operand");
    Ex[NumEx++] = O;
  }
  // Direct branches take a pc operand.
  if ((It.Op == OP_jmp || It.Op == OP_call || opcodeIsCondBranch(It.Op)) &&
      NumEx == 1 && Ex[0].isImm())
    Ex[0] = Operand::pc(AppPc(Ex[0].getImm()));
  Operand Srcs[MaxSrcs], Dsts[MaxDsts];
  unsigned NumSrcs = 0, NumDsts = 0;
  if (!buildCanonicalOperands(It.Op, Ex, NumEx, Srcs, NumSrcs, Dsts, NumDsts))
    return err(It.LineNo, "operands do not fit instruction");
  EncodeOptions Opts;
  Opts.AllowShortBranches = false;
  int N =
      encodeInstr(It.Op, 0, Srcs, NumSrcs, Dsts, NumDsts, It.Addr, Buf, Opts);
  if (N < 0)
    return err(It.LineNo, "no encoding for operand combination");
  Len = unsigned(N);
  return true;
}

bool Assembler::layoutAndEncode(Program &Out) {
  // Pass 1: sizes with placeholder symbol values that force wide forms.
  // Labels all resolve to >= 0x1000, so no imm/rel form can shrink later.
  // Layout is therefore exact after one pass.
  uint64_t Addr = OrgAddr;
  uint8_t Buf[MaxInstrLength];
  for (auto &It : Items) {
    It.Addr = AppPc(Addr);
    switch (It.K) {
    case Item::Align:
      It.Size = unsigned((It.AlignTo - (Addr % It.AlignTo)) % It.AlignTo);
      break;
    case Item::Data:
      It.Size = unsigned(It.DataBytes.size() + 4 * It.WordValues.size());
      break;
    case Item::Instruction:
      if (!encodeInstruction(It, /*Sizing=*/true, Buf, It.Size))
        return false;
      break;
    }
    Addr += It.Size;
    if (Addr - OrgAddr > uint64_t(MaxImageBytes) || Addr > UINT32_MAX)
      return err(It.LineNo, "image exceeds " + std::to_string(MaxImageBytes) +
                                " bytes or the address space");
  }

  // Bind labels now that every item has an address.
  for (const auto &[Name, ItemIdx] : LabelToItem)
    Symbols[Name] = ItemIdx < Items.size() ? Items[ItemIdx].Addr : AppPc(Addr);

  // Pass 2: encode with real symbol values.
  Out.LoadAddr = OrgAddr;
  Out.Bytes.assign(size_t(Addr - OrgAddr), 0);
  for (auto &It : Items) {
    uint8_t *Dst = Out.Bytes.data() + (It.Addr - OrgAddr);
    switch (It.K) {
    case Item::Align:
      std::memset(Dst, 0x90, It.Size); // nop padding
      break;
    case Item::Data: {
      if (!It.DataBytes.empty())
        std::memcpy(Dst, It.DataBytes.data(), It.DataBytes.size());
      uint8_t *W = Dst + It.DataBytes.size();
      for (size_t K = 0; K != It.WordValues.size(); ++K) {
        uint32_t V;
        if (It.WordIsSymbol[K]) {
          auto SIt = Symbols.find(It.WordSymbols[K]);
          if (SIt == Symbols.end())
            return err(It.LineNo, "undefined symbol " + It.WordSymbols[K]);
          V = SIt->second;
        } else {
          V = uint32_t(It.WordValues[K]);
        }
        std::memcpy(W + 4 * K, &V, 4);
      }
      break;
    }
    case Item::Instruction: {
      unsigned Len;
      if (!encodeInstruction(It, /*Sizing=*/false, Buf, Len))
        return false;
      if (Len > It.Size)
        return err(It.LineNo, "encoding changed size between passes");
      std::memcpy(Dst, Buf, Len);
      // Shrunk encodings (symbol landed in imm8 range) get nop padding.
      std::memset(Dst + Len, 0x90, It.Size - Len);
      break;
    }
    }
  }

  auto EntryIt = Symbols.find(EntrySymbol);
  if (EntryIt == Symbols.end())
    return err(0, "entry symbol '" + EntrySymbol + "' is undefined");
  Out.Entry = EntryIt->second;
  Out.Symbols = Symbols;
  return true;
}

bool Assembler::run(const std::string &Source, Program &Out,
                    std::string &Error) {
  size_t Pos = 0;
  unsigned LineNo = 1;
  while (Pos <= Source.size()) {
    size_t Eol = Source.find('\n', Pos);
    if (Eol == std::string::npos)
      Eol = Source.size();
    std::string Line = Source.substr(Pos, Eol - Pos);
    if (!parseLine(Line, LineNo)) {
      Error = ErrorText;
      return false;
    }
    Pos = Eol + 1;
    ++LineNo;
    if (Eol == Source.size())
      break;
  }
  if (!layoutAndEncode(Out)) {
    Error = ErrorText;
    return false;
  }
  return true;
}

} // namespace

bool rio::assemble(const std::string &Source, Program &Out,
                   std::string &Error) {
  Assembler A;
  return A.run(Source, Out, Error);
}

bool rio::loadProgram(Machine &M, const Program &Prog) {
  if (!M.mem().writeBlock(Prog.LoadAddr, Prog.Bytes.data(),
                          uint32_t(Prog.Bytes.size())))
    return false;
  M.cpu().Pc = Prog.Entry;
  // Stack at the top of the application region, 16-byte aligned, with a
  // little headroom.
  uint32_t StackTop = (M.runtimeBase() - 64) & ~15u;
  M.cpu().writeGpr32(REG_ESP, StackTop);
  M.recordResetState(); // lets Machine::resetForRun() return here
  return true;
}
