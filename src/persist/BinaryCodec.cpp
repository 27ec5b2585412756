//===- persist/BinaryCodec.cpp - Binary trees and edit scripts -------------===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//

#include "persist/BinaryCodec.h"

#include "persist/Varint.h"

#include <cstring>
#include <unordered_map>
#include <unordered_set>
#include <vector>

using namespace truediff;
using namespace truediff::persist;

namespace {

//===----------------------------------------------------------------------===//
// Primitive writers and readers
//===----------------------------------------------------------------------===//

/// Bounds-checked reader; after any failure every further read returns
/// zero values and Ok stays false, so decoders can check once at the end
/// of a production instead of after every byte.
class BinReader {
public:
  explicit BinReader(std::string_view Bytes) : Bytes(Bytes) {}

  bool ok() const { return Failed == nullptr; }
  const char *error() const { return Failed; }
  bool atEnd() const { return Pos == Bytes.size(); }

  uint64_t getVarint() {
    uint64_t V = 0;
    for (unsigned Shift = 0; Shift < 64; Shift += 7) {
      if (Pos >= Bytes.size()) {
        fail("truncated varint");
        return 0;
      }
      uint8_t B = static_cast<uint8_t>(Bytes[Pos++]);
      V |= static_cast<uint64_t>(B & 0x7f) << Shift;
      if ((B & 0x80) == 0)
        return V;
    }
    fail("overlong varint");
    return 0;
  }

  uint8_t getByte() {
    if (Pos >= Bytes.size()) {
      fail("truncated byte");
      return 0;
    }
    return static_cast<uint8_t>(Bytes[Pos++]);
  }

  std::string_view getBytes(size_t N) {
    if (N > Bytes.size() - Pos) {
      fail("truncated byte string");
      return {};
    }
    std::string_view V = Bytes.substr(Pos, N);
    Pos += N;
    return V;
  }

  void fail(const char *Why) {
    if (Failed == nullptr)
      Failed = Why;
    Pos = Bytes.size();
  }

private:
  std::string_view Bytes;
  size_t Pos = 0;
  const char *Failed = nullptr;
};

//===----------------------------------------------------------------------===//
// Local symbol tables
//===----------------------------------------------------------------------===//

/// Collects the symbols a blob mentions and assigns dense local indices;
/// the body is built against the local indices while the table grows.
class SymbolSink {
public:
  explicit SymbolSink(const SignatureTable &Sig) : Sig(Sig) {}

  uint64_t localIndex(Symbol S) {
    auto [It, Inserted] = Local.emplace(S, Order.size());
    if (Inserted)
      Order.push_back(S);
    return It->second;
  }

  /// Renders the table: count, then each name length-prefixed.
  std::string render() const {
    std::string Out;
    putVarint(Out, Order.size());
    for (Symbol S : Order) {
      const std::string &Name = Sig.name(S);
      putVarint(Out, Name.size());
      Out += Name;
    }
    return Out;
  }

private:
  const SignatureTable &Sig;
  std::unordered_map<Symbol, uint64_t> Local;
  std::vector<Symbol> Order;
};

/// Upper bound on symbol-table entries and name lengths; corrupt counts
/// must not translate into unbounded allocations.
constexpr uint64_t MaxSymbols = 1 << 20;
constexpr uint64_t MaxNameBytes = 1 << 16;

/// Reads the local symbol table back and resolves every name in \p Sig.
/// Unknown names fail the decode: a blob only makes sense against the
/// signature it was produced for.
bool readSymbolTable(BinReader &R, const SignatureTable &Sig,
                     std::vector<Symbol> &Out, std::string &Error) {
  uint64_t Count = R.getVarint();
  if (!R.ok() || Count > MaxSymbols) {
    Error = R.ok() ? "symbol table too large" : R.error();
    return false;
  }
  Out.reserve(Count);
  for (uint64_t I = 0; I != Count; ++I) {
    uint64_t Len = R.getVarint();
    if (R.ok() && Len > MaxNameBytes)
      R.fail("symbol name too long");
    std::string_view Name = R.getBytes(Len);
    if (!R.ok()) {
      Error = R.error();
      return false;
    }
    Symbol S = Sig.lookup(Name);
    if (S == InvalidSymbol) {
      Error = "unknown symbol '" + std::string(Name) + "'";
      return false;
    }
    Out.push_back(S);
  }
  return true;
}

/// Resolves a body reference into the local table.
Symbol localSymbol(BinReader &R, const std::vector<Symbol> &Table) {
  uint64_t Index = R.getVarint();
  if (!R.ok())
    return InvalidSymbol;
  if (Index >= Table.size()) {
    R.fail("symbol index out of range");
    return InvalidSymbol;
  }
  return Table[Index];
}

//===----------------------------------------------------------------------===//
// Literals
//===----------------------------------------------------------------------===//

void putLiteral(std::string &Out, const Literal &L) {
  Out.push_back(static_cast<char>(L.kind()));
  switch (L.kind()) {
  case LitKind::Int:
    putVarint(Out, zigzag(L.asInt()));
    break;
  case LitKind::Float: {
    uint64_t Bits;
    double V = L.asFloat();
    std::memcpy(&Bits, &V, sizeof(Bits));
    // Fixed eight bytes: float bit patterns have no small-value bias for
    // a varint to exploit.
    for (int I = 0; I != 8; ++I)
      Out.push_back(static_cast<char>(Bits >> (8 * I)));
    break;
  }
  case LitKind::Bool:
    Out.push_back(L.asBool() ? 1 : 0);
    break;
  case LitKind::String:
    putVarint(Out, L.asString().size());
    Out += L.asString();
    break;
  }
}

Literal getLiteral(BinReader &R) {
  uint8_t Kind = R.getByte();
  switch (static_cast<LitKind>(Kind)) {
  case LitKind::Int:
    return Literal(unzigzag(R.getVarint()));
  case LitKind::Float: {
    uint64_t Bits = 0;
    for (int I = 0; I != 8; ++I)
      Bits |= static_cast<uint64_t>(R.getByte()) << (8 * I);
    double V;
    std::memcpy(&V, &Bits, sizeof(V));
    return Literal(V);
  }
  case LitKind::Bool:
    return Literal(R.getByte() != 0);
  case LitKind::String: {
    uint64_t Len = R.getVarint();
    return Literal(std::string(R.getBytes(Len)));
  }
  }
  R.fail("invalid literal kind");
  return Literal();
}

//===----------------------------------------------------------------------===//
// Edit scripts
//===----------------------------------------------------------------------===//

void putNode(std::string &Body, SymbolSink &Syms, const NodeRef &N) {
  putVarint(Body, Syms.localIndex(N.Tag));
  putVarint(Body, N.Uri);
}

NodeRef getNode(BinReader &R, const SignatureTable &Sig,
                const std::vector<Symbol> &Table) {
  NodeRef N;
  N.Tag = localSymbol(R, Table);
  N.Uri = R.getVarint();
  if (R.ok() && !Sig.hasTag(N.Tag))
    R.fail("node symbol is not a constructor tag");
  return N;
}

void putLitRefs(std::string &Body, SymbolSink &Syms,
                const std::vector<LitRef> &Lits) {
  putVarint(Body, Lits.size());
  for (const LitRef &L : Lits) {
    putVarint(Body, Syms.localIndex(L.Link));
    putLiteral(Body, L.Value);
  }
}

/// Caps on list lengths read back from a blob (see MaxSymbols).
constexpr uint64_t MaxListEntries = 1 << 24;

std::vector<LitRef> getLitRefs(BinReader &R,
                               const std::vector<Symbol> &Table) {
  std::vector<LitRef> Out;
  uint64_t Count = R.getVarint();
  if (R.ok() && Count > MaxListEntries)
    R.fail("literal list too long");
  if (!R.ok())
    return Out;
  Out.reserve(Count);
  for (uint64_t I = 0; I != Count && R.ok(); ++I) {
    LinkId Link = localSymbol(R, Table);
    Literal Value = getLiteral(R);
    Out.push_back(LitRef{Link, std::move(Value)});
  }
  return Out;
}

} // namespace

std::string persist::encodeEditScript(const SignatureTable &Sig,
                                      const EditScript &Script) {
  SymbolSink Syms(Sig);
  std::string Body;
  putVarint(Body, Script.size());
  for (const Edit &E : Script.edits()) {
    Body.push_back(static_cast<char>(E.Kind));
    putNode(Body, Syms, E.Node);
    switch (E.Kind) {
    case EditKind::Detach:
    case EditKind::Attach:
      putVarint(Body, Syms.localIndex(E.Link));
      putNode(Body, Syms, E.Parent);
      break;
    case EditKind::Load:
    case EditKind::Unload:
      putVarint(Body, E.Kids.size());
      for (const KidRef &K : E.Kids) {
        putVarint(Body, Syms.localIndex(K.Link));
        putVarint(Body, K.Uri);
      }
      putLitRefs(Body, Syms, E.Lits);
      break;
    case EditKind::Update:
      putLitRefs(Body, Syms, E.OldLits);
      putLitRefs(Body, Syms, E.Lits);
      break;
    }
  }
  return Syms.render() + Body;
}

DecodeScriptResult persist::decodeEditScript(const SignatureTable &Sig,
                                             std::string_view Blob) {
  DecodeScriptResult Result;
  BinReader R(Blob);
  std::vector<Symbol> Table;
  if (!readSymbolTable(R, Sig, Table, Result.Error))
    return Result;

  uint64_t Count = R.getVarint();
  if (R.ok() && Count > MaxListEntries)
    R.fail("edit script too long");
  std::vector<Edit> Edits;
  Edits.reserve(R.ok() ? Count : 0);
  for (uint64_t I = 0; I != Count && R.ok(); ++I) {
    uint8_t KindByte = R.getByte();
    if (KindByte > static_cast<uint8_t>(EditKind::Update)) {
      R.fail("invalid edit kind");
      break;
    }
    EditKind Kind = static_cast<EditKind>(KindByte);
    NodeRef Node = getNode(R, Sig, Table);
    switch (Kind) {
    case EditKind::Detach:
    case EditKind::Attach: {
      LinkId Link = localSymbol(R, Table);
      NodeRef Parent = getNode(R, Sig, Table);
      Edits.push_back(Kind == EditKind::Detach
                          ? Edit::detach(Node, Link, Parent)
                          : Edit::attach(Node, Link, Parent));
      break;
    }
    case EditKind::Load:
    case EditKind::Unload: {
      uint64_t NumKids = R.getVarint();
      if (R.ok() && NumKids > MaxListEntries)
        R.fail("kid list too long");
      std::vector<KidRef> Kids;
      Kids.reserve(R.ok() ? NumKids : 0);
      for (uint64_t K = 0; K != NumKids && R.ok(); ++K) {
        LinkId Link = localSymbol(R, Table);
        URI Uri = R.getVarint();
        Kids.push_back(KidRef{Link, Uri});
      }
      std::vector<LitRef> Lits = getLitRefs(R, Table);
      Edits.push_back(Kind == EditKind::Load
                          ? Edit::load(Node, std::move(Kids), std::move(Lits))
                          : Edit::unload(Node, std::move(Kids),
                                         std::move(Lits)));
      break;
    }
    case EditKind::Update: {
      std::vector<LitRef> Old = getLitRefs(R, Table);
      std::vector<LitRef> Now = getLitRefs(R, Table);
      Edits.push_back(Edit::update(Node, std::move(Old), std::move(Now)));
      break;
    }
    }
  }
  if (!R.ok()) {
    Result.Error = R.error();
    return Result;
  }
  if (!R.atEnd()) {
    Result.Error = "trailing bytes after edit script";
    return Result;
  }
  Result.Ok = true;
  Result.Script = EditScript(std::move(Edits));
  return Result;
}

namespace {

/// Admission bound on the nesting of client-supplied tree blobs (see
/// BinaryCodec.h). Snapshot decodes walk without one.
constexpr unsigned MaxClientTreeDepth = 8192;

/// Builds typed Trees in a TreeContext: the sink for client blobs on the
/// binary wire (fresh URIs) and for callers that want a hashed tree.
class TreeSink {
public:
  using Node = Tree *;

  TreeSink(TreeContext &Ctx, bool PreserveUris)
      : Ctx(Ctx), PreserveUris(PreserveUris) {}

  bool claim(TagId, URI Uri) { return Seen.insert(Uri).second; }

  Tree *build(TagId Tag, URI Uri, const TagSignature &TagSig,
              Tree *const *Kids, std::vector<Literal> Lits) {
    std::vector<Tree *> KidVec(Kids, Kids + TagSig.Kids.size());
    return PreserveUris ? Ctx.adoptWithUri(Tag, Uri, std::move(KidVec),
                                           std::move(Lits))
                        : Ctx.make(Tag, std::move(KidVec), std::move(Lits));
  }

private:
  TreeContext &Ctx;
  bool PreserveUris;
  std::unordered_set<URI> Seen;
};

/// Builds the standard semantics directly: every node is allocated and
/// indexed in the MTree when its header is read (the index doubles as
/// the duplicate-URI check) and wired to its kids and literals when it
/// completes. Nothing is hashed.
class MTreeSink {
public:
  using Node = MNode *;

  explicit MTreeSink(MTree &M) : M(M) {}

  bool claim(TagId Tag, URI Uri) {
    MNode *N = M.addNode(Tag, Uri);
    if (N == nullptr)
      return false;
    Open.push_back(N);
    return true;
  }

  MNode *build(TagId, URI, const TagSignature &TagSig, MNode *const *Kids,
               std::vector<Literal> Lits) {
    MNode *N = Open.back();
    Open.pop_back();
    for (size_t I = 0, E = TagSig.Kids.size(); I != E; ++I)
      N->Kids.emplace(TagSig.Kids[I].Link, Kids[I]);
    for (size_t I = 0, E = Lits.size(); I != E; ++I)
      N->Lits.emplace(TagSig.Lits[I].Link, std::move(Lits[I]));
    return N;
  }

private:
  MTree &M;
  /// Claimed nodes whose kids are still being read, innermost last.
  std::vector<MNode *> Open;
};

/// Walks one encodeTree body (pre-order: tag, URI, kid count, kids,
/// literal count, literals) with an explicit stack, validating every node
/// against the signature before \p S builds it: the symbol is a
/// constructor tag, URIs are non-null and unique within the blob
/// (Sink::claim), the kid count matches the tag's arity, each kid's sort
/// fits its slot, and literal count and kinds match the literal specs.
/// \p MaxDepth (0: none) caps the nesting. Completed kids wait on one
/// shared stack, so \p S receives each node's kids as a contiguous run
/// in slot order.
template <typename Sink>
typename Sink::Node walkTree(BinReader &R, const SignatureTable &Sig,
                             const std::vector<Symbol> &Table,
                             unsigned MaxDepth, Sink &S) {
  struct Frame {
    TagId Tag;
    URI Uri;
    const TagSignature *TagSig;
    size_t NextKid;
    size_t KidBase; // where this node's kids start on Done
  };
  std::vector<Frame> Stack;
  std::vector<typename Sink::Node> Done;

  // Reads one node header and pushes its frame; false once R has failed.
  auto Enter = [&]() {
    if (MaxDepth != 0 && Stack.size() > MaxDepth) {
      R.fail("tree too deep");
      return false;
    }
    TagId Tag = localSymbol(R, Table);
    URI Uri = R.getVarint();
    if (!R.ok())
      return false;
    if (!Sig.hasTag(Tag)) {
      R.fail("node symbol is not a constructor tag");
      return false;
    }
    if (Uri == NullURI) {
      // Null names the virtual root above every tree (MTree's RootLink
      // parent); no encoded node may claim it.
      R.fail("null URI in tree");
      return false;
    }
    if (!S.claim(Tag, Uri)) {
      R.fail("duplicate URI in tree");
      return false;
    }
    const TagSignature &TagSig = Sig.signature(Tag);
    uint64_t NumKids = R.getVarint();
    if (R.ok() && NumKids != TagSig.Kids.size())
      R.fail("kid count does not match tag signature");
    if (!R.ok())
      return false;
    Stack.push_back({Tag, Uri, &TagSig, 0, Done.size()});
    return true;
  };

  if (!Enter())
    return nullptr;
  while (!Stack.empty()) {
    Frame &F = Stack.back();
    if (F.NextKid != F.TagSig->Kids.size()) {
      ++F.NextKid;
      if (!Enter())
        return nullptr;
      continue;
    }

    uint64_t NumLits = R.getVarint();
    if (R.ok() && NumLits != F.TagSig->Lits.size())
      R.fail("literal count does not match tag signature");
    if (!R.ok())
      return nullptr;
    std::vector<Literal> Lits;
    Lits.reserve(NumLits);
    for (uint64_t I = 0; I != NumLits; ++I) {
      Literal L = getLiteral(R);
      if (!R.ok())
        return nullptr;
      if (L.kind() != F.TagSig->Lits[I].Kind) {
        R.fail("literal kind does not match tag signature");
        return nullptr;
      }
      Lits.push_back(std::move(L));
    }
    typename Sink::Node N =
        S.build(F.Tag, F.Uri, *F.TagSig, Done.data() + F.KidBase,
                std::move(Lits));
    Done.resize(F.KidBase);
    SortId Sort = F.TagSig->Result;
    Stack.pop_back();
    if (!Stack.empty()) {
      const Frame &Parent = Stack.back();
      if (!Sig.isSubsort(Sort, Parent.TagSig->Kids[Parent.NextKid - 1].Sort)) {
        R.fail("kid sort does not match slot sort");
        return nullptr;
      }
    }
    Done.push_back(N);
  }
  return Done.back();
}

/// Decodes a whole tree blob into \p S: symbol table, body, no trailing
/// bytes. Returns the root, or nullptr with \p Error set.
template <typename Sink>
typename Sink::Node decodeTreeInto(const SignatureTable &Sig,
                                   std::string_view Blob, unsigned MaxDepth,
                                   Sink &S, std::string &Error) {
  BinReader R(Blob);
  std::vector<Symbol> Table;
  if (!readSymbolTable(R, Sig, Table, Error))
    return nullptr;
  typename Sink::Node Root = walkTree(R, Sig, Table, MaxDepth, S);
  if (Root == nullptr || !R.ok()) {
    Error = R.ok() ? "invalid tree blob" : R.error();
    return nullptr;
  }
  if (!R.atEnd()) {
    Error = "trailing bytes after tree";
    return nullptr;
  }
  return Root;
}

} // namespace

std::string persist::encodeTree(const SignatureTable &Sig, const Tree *T) {
  SymbolSink Syms(Sig);
  std::string Body;
  // Pre-order with an explicit stack: a node's header goes out when it is
  // entered, its literals once its last kid is written.
  struct Frame {
    const Tree *T;
    size_t NextKid;
  };
  std::vector<Frame> Stack;
  auto Enter = [&](const Tree *N) {
    putVarint(Body, Syms.localIndex(N->tag()));
    putVarint(Body, N->uri());
    putVarint(Body, N->arity());
    Stack.push_back({N, 0});
  };
  Enter(T);
  while (!Stack.empty()) {
    Frame &F = Stack.back();
    if (F.NextKid != F.T->arity()) {
      Enter(F.T->kid(F.NextKid++));
      continue;
    }
    putVarint(Body, F.T->numLits());
    for (size_t I = 0, E = F.T->numLits(); I != E; ++I)
      putLiteral(Body, F.T->lit(I));
    Stack.pop_back();
  }
  return Syms.render() + Body;
}

DecodeTreeResult persist::decodeTree(const SignatureTable &Sig,
                                     TreeContext &Ctx,
                                     std::string_view Blob) {
  return decodeTree(Sig, Ctx, Blob, /*PreserveUris=*/true);
}

DecodeTreeResult persist::decodeTree(const SignatureTable &Sig,
                                     TreeContext &Ctx, std::string_view Blob,
                                     bool PreserveUris) {
  DecodeTreeResult Result;
  TreeSink S(Ctx, PreserveUris);
  Result.Root = decodeTreeInto(Sig, Blob,
                               PreserveUris ? 0 : MaxClientTreeDepth, S,
                               Result.Error);
  return Result;
}

DecodeMTreeResult persist::decodeMTree(const SignatureTable &Sig,
                                       std::string_view Blob) {
  DecodeMTreeResult Result;
  auto M = std::make_unique<MTree>(Sig);
  MTreeSink S(*M);
  MNode *Top = decodeTreeInto(Sig, Blob, 0, S, Result.Error);
  if (Top == nullptr)
    return Result;
  M->setTop(Top);
  Result.Tree = std::move(M);
  return Result;
}
