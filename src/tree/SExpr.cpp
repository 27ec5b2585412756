//===- tree/SExpr.cpp - S-expression reader and printer --------------------===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//

#include "tree/SExpr.h"

#include <cctype>
#include <cstdlib>

using namespace truediff;

namespace {

/// Recursive-descent s-expression parser. No exceptions: errors set Err and
/// unwind through nullptr returns.
class SExprParser {
public:
  SExprParser(TreeContext &Ctx, std::string_view Text,
              const ParseLimits &Limits)
      : Ctx(Ctx), Sig(Ctx.signatures()), Text(Text), Limits(Limits) {}

  Tree *parse() {
    Tree *T = parseTree();
    if (T == nullptr)
      return nullptr;
    skipSpace();
    if (Pos != Text.size()) {
      fail("trailing input after s-expression");
      return nullptr;
    }
    return T;
  }

  const std::string &error() const { return Err; }
  ParseFail failKind() const { return Err.empty() ? ParseFail::None : Fail; }

private:
  void skipSpace() {
    while (Pos < Text.size()) {
      if (std::isspace(static_cast<unsigned char>(Text[Pos]))) {
        ++Pos;
        continue;
      }
      if (Text[Pos] == ';') { // comment to end of line
        while (Pos < Text.size() && Text[Pos] != '\n')
          ++Pos;
        continue;
      }
      break;
    }
  }

  void fail(const std::string &Message) {
    if (Err.empty()) {
      Fail = ParseFail::Syntax;
      Err = Message + " at offset " + std::to_string(Pos);
    }
  }

  void failTyped(ParseFail Kind, const std::string &Message) {
    if (Err.empty()) {
      Fail = Kind;
      Err = Message;
    }
  }

  bool expect(char C) {
    skipSpace();
    if (Pos < Text.size() && Text[Pos] == C) {
      ++Pos;
      return true;
    }
    fail(std::string("expected '") + C + "'");
    return false;
  }

  std::string_view parseSymbol() {
    skipSpace();
    size_t Start = Pos;
    while (Pos < Text.size() &&
           (std::isalnum(static_cast<unsigned char>(Text[Pos])) ||
            Text[Pos] == '_' || Text[Pos] == '-' || Text[Pos] == '.' ||
            Text[Pos] == '+'))
      ++Pos;
    if (Pos == Start)
      fail("expected symbol");
    return Text.substr(Start, Pos - Start);
  }

  std::optional<Literal> parseLiteral(LitKind Kind) {
    skipSpace();
    if (Pos >= Text.size()) {
      fail("expected literal");
      return std::nullopt;
    }
    switch (Kind) {
    case LitKind::String:
      return parseStringLiteral();
    case LitKind::Bool: {
      std::string_view Sym = parseSymbol();
      if (Sym == "true")
        return Literal(true);
      if (Sym == "false")
        return Literal(false);
      fail("expected 'true' or 'false'");
      return std::nullopt;
    }
    case LitKind::Int: {
      std::string_view Sym = parseSymbol();
      if (Sym.empty())
        return std::nullopt;
      return Literal(static_cast<int64_t>(
          std::strtoll(std::string(Sym).c_str(), nullptr, 10)));
    }
    case LitKind::Float: {
      std::string_view Sym = parseSymbol();
      if (Sym.empty())
        return std::nullopt;
      return Literal(std::strtod(std::string(Sym).c_str(), nullptr));
    }
    }
    fail("unknown literal kind");
    return std::nullopt;
  }

  std::optional<Literal> parseStringLiteral() {
    if (Text[Pos] != '"') {
      fail("expected string literal");
      return std::nullopt;
    }
    ++Pos;
    std::string Value;
    while (Pos < Text.size() && Text[Pos] != '"') {
      char C = Text[Pos];
      if (C == '\\' && Pos + 1 < Text.size()) {
        ++Pos;
        switch (Text[Pos]) {
        case 'n':
          Value.push_back('\n');
          break;
        case 't':
          Value.push_back('\t');
          break;
        default:
          Value.push_back(Text[Pos]);
        }
      } else {
        Value.push_back(C);
      }
      ++Pos;
    }
    if (Pos >= Text.size()) {
      fail("unterminated string literal");
      return std::nullopt;
    }
    ++Pos; // closing quote
    return Literal(std::move(Value));
  }

  Tree *parseTree() {
    // Admission caps fire on the way down: a million-paren hostile input
    // unwinds after MaxDepth stack frames instead of smashing the stack.
    ++Depth;
    if (Limits.MaxDepth != 0 && Depth > Limits.MaxDepth) {
      failTyped(ParseFail::TooDeep, "input nesting exceeds the depth cap of " +
                                        std::to_string(Limits.MaxDepth));
      return nullptr;
    }
    Tree *T = parseTreeBody();
    --Depth;
    return T;
  }

  Tree *parseTreeBody() {
    if (!expect('('))
      return nullptr;
    std::string_view TagName = parseSymbol();
    if (!Err.empty())
      return nullptr;
    Symbol Tag = Sig.lookup(TagName);
    if (Tag == InvalidSymbol || !Sig.hasTag(Tag)) {
      fail("unknown tag '" + std::string(TagName) + "'");
      return nullptr;
    }
    const TagSignature &TagSig = Sig.signature(Tag);

    std::vector<Tree *> Kids;
    Kids.reserve(TagSig.Kids.size());
    for (size_t I = 0, E = TagSig.Kids.size(); I != E; ++I) {
      Tree *Kid = parseTree();
      if (Kid == nullptr)
        return nullptr;
      SortId KidSort = Sig.signature(Kid->tag()).Result;
      if (!Sig.isSubsort(KidSort, TagSig.Kids[I].Sort)) {
        fail("kid sort mismatch under '" + std::string(TagName) + "'");
        return nullptr;
      }
      Kids.push_back(Kid);
    }

    std::vector<Literal> Lits;
    Lits.reserve(TagSig.Lits.size());
    for (size_t I = 0, E = TagSig.Lits.size(); I != E; ++I) {
      std::optional<Literal> Lit = parseLiteral(TagSig.Lits[I].Kind);
      if (!Lit)
        return nullptr;
      Lits.push_back(std::move(*Lit));
    }

    if (!expect(')'))
      return nullptr;
    if (Limits.MaxNodes != 0 && NodesMade >= Limits.MaxNodes) {
      failTyped(ParseFail::TooLarge, "input exceeds the node cap of " +
                                         std::to_string(Limits.MaxNodes) +
                                         " nodes");
      return nullptr;
    }
    if (Ctx.overBudget()) {
      failTyped(ParseFail::OverBudget,
                "memory budget exhausted while parsing input");
      return nullptr;
    }
    ++NodesMade;
    return Ctx.make(Tag, std::move(Kids), std::move(Lits));
  }

  TreeContext &Ctx;
  const SignatureTable &Sig;
  std::string_view Text;
  ParseLimits Limits;
  size_t Pos = 0;
  uint32_t Depth = 0;
  uint32_t NodesMade = 0;
  std::string Err;
  ParseFail Fail = ParseFail::None;
};

/// Prints \p Root iteratively: one POD frame per open node, so a chain as
/// deep as admission allows never recurses on the call stack.
void printTree(const SignatureTable &Sig, const Tree *Root, bool WithUris,
               std::string &Out) {
  struct Frame {
    const Tree *T;
    size_t NextKid;
  };
  std::vector<Frame> Stack;
  auto Open = [&](const Tree *T) {
    Out.push_back('(');
    Out += Sig.name(T->tag());
    if (WithUris) {
      Out.push_back('_');
      Out += std::to_string(T->uri());
    }
    Stack.push_back({T, 0});
  };
  Open(Root);
  while (!Stack.empty()) {
    Frame &Top = Stack.back();
    const Tree *T = Top.T;
    if (Top.NextKid < T->arity()) {
      const Tree *Kid = T->kid(Top.NextKid++);
      Out.push_back(' ');
      if (Kid == nullptr)
        Out += "<hole>";
      else
        Open(Kid);
      continue;
    }
    for (size_t I = 0, E = T->numLits(); I != E; ++I) {
      Out.push_back(' ');
      Out += T->lit(I).toString();
    }
    Out.push_back(')');
    Stack.pop_back();
  }
}

} // namespace

ParseResult truediff::parseSExpr(TreeContext &Ctx, std::string_view Text,
                                 const ParseLimits &Limits) {
  SExprParser Parser(Ctx, Text, Limits);
  ParseResult Result;
  Result.Root = Parser.parse();
  if (Result.Root == nullptr) {
    Result.Error = Parser.error();
    Result.Fail = Parser.failKind();
  }
  return Result;
}

std::string truediff::printSExpr(const SignatureTable &Sig, const Tree *T) {
  std::string Out;
  printTree(Sig, T, /*WithUris=*/false, Out);
  return Out;
}

std::string truediff::printSExprWithUris(const SignatureTable &Sig,
                                         const Tree *T) {
  std::string Out;
  printTree(Sig, T, /*WithUris=*/true, Out);
  return Out;
}
