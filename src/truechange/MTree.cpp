//===- truechange/MTree.cpp - Standard semantics of edit scripts -----------===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//

#include "truechange/MTree.h"

#include <cassert>

using namespace truediff;

MTree::MTree(const SignatureTable &Sig) : Sig(Sig) {
  Arena.emplace_back();
  Root = &Arena.back();
  Root->Tag = Sig.rootTag();
  Root->Uri = NullURI;
  Root->Kids.emplace(Sig.rootLink(), nullptr);
  Index.emplace(NullURI, Root);
}

MTree MTree::fromTree(const SignatureTable &Sig, const Tree *T) {
  MTree M(Sig);
  if (T == nullptr)
    return M;
  // Pre-order with POD frames: each frame names the slot its node fills,
  // so a chain as deep as admission allows never recurses.
  struct Frame {
    MNode *Parent;
    LinkId Link;
    const Tree *T;
  };
  M.Index.reserve(T->size() + 1);
  std::vector<Frame> Stack;
  Stack.push_back({M.Root, Sig.rootLink(), T});
  while (!Stack.empty()) {
    Frame F = Stack.back();
    Stack.pop_back();
    MNode *N = M.addNode(F.T->tag(), F.T->uri());
    assert(N != nullptr && "URIs must be unique");
    F.Parent->Kids[F.Link] = N;
    const TagSignature &TagSig = Sig.signature(N->Tag);
    for (size_t I = F.T->arity(); I != 0; --I)
      Stack.push_back({N, TagSig.Kids[I - 1].Link, F.T->kid(I - 1)});
    for (size_t I = 0, E = F.T->numLits(); I != E; ++I)
      N->Lits.emplace(TagSig.Lits[I].Link, F.T->lit(I));
  }
  return M;
}

MNode *MTree::addNode(TagId Tag, URI Uri) {
  auto [It, Fresh] = Index.try_emplace(Uri, nullptr);
  if (!Fresh)
    return nullptr;
  MNode *N = &Arena.emplace_back();
  N->Tag = Tag;
  N->Uri = Uri;
  It->second = N;
  return N;
}

void MTree::setTop(MNode *N) { Root->Kids[Sig.rootLink()] = N; }

const MNode *MTree::lookup(URI Uri) const {
  auto It = Index.find(Uri);
  return It == Index.end() ? nullptr : It->second;
}

const MNode *MTree::top() const {
  auto It = Root->Kids.find(Sig.rootLink());
  return It == Root->Kids.end() ? nullptr : It->second;
}

MTree::PatchResult MTree::processEdit(const Edit &E, size_t Index0) {
  auto Fail = [&](std::string Message) {
    PatchResult R;
    R.Ok = false;
    R.ErrorIndex = Index0;
    R.Error = E.toString(Sig) + ": " + std::move(Message);
    return R;
  };

  switch (E.Kind) {
  case EditKind::Detach: {
    auto It = Index.find(E.Parent.Uri);
    if (It == Index.end())
      return Fail("parent not in index");
    It->second->Kids[E.Link] = nullptr;
    return PatchResult();
  }
  case EditKind::Attach: {
    auto ParentIt = Index.find(E.Parent.Uri);
    if (ParentIt == Index.end())
      return Fail("parent not in index");
    auto NodeIt = Index.find(E.Node.Uri);
    if (NodeIt == Index.end())
      return Fail("node not in index");
    ParentIt->second->Kids[E.Link] = NodeIt->second;
    return PatchResult();
  }
  case EditKind::Load: {
    Arena.emplace_back();
    MNode *N = &Arena.back();
    N->Tag = E.Node.Tag;
    N->Uri = E.Node.Uri;
    for (const KidRef &Kid : E.Kids) {
      auto It = Index.find(Kid.Uri);
      if (It == Index.end()) {
        Arena.pop_back();
        return Fail("kid " + std::to_string(Kid.Uri) + " not in index");
      }
      N->Kids.emplace(Kid.Link, It->second);
    }
    for (const LitRef &Lit : E.Lits)
      N->Lits.emplace(Lit.Link, Lit.Value);
    if (!Index.emplace(E.Node.Uri, N).second) {
      Arena.pop_back();
      return Fail("URI already loaded");
    }
    return PatchResult();
  }
  case EditKind::Unload: {
    if (Index.erase(E.Node.Uri) == 0)
      return Fail("node not in index");
    return PatchResult();
  }
  case EditKind::Update: {
    auto It = Index.find(E.Node.Uri);
    if (It == Index.end())
      return Fail("node not in index");
    for (const LitRef &Lit : E.Lits)
      It->second->Lits[Lit.Link] = Lit.Value;
    return PatchResult();
  }
  }
  return Fail("unknown edit kind");
}

MTree::PatchResult MTree::checkCompliance(const Edit &E, size_t Index0) const {
  auto Fail = [&](std::string Message) {
    PatchResult R;
    R.Ok = false;
    R.ErrorIndex = Index0;
    R.Error = E.toString(Sig) + ": non-compliant: " + std::move(Message);
    return R;
  };

  switch (E.Kind) {
  case EditKind::Detach: {
    // Definition 3.5 (1): the parent exists, has the claimed tag, and its
    // link currently holds the claimed node.
    const MNode *P = lookup(E.Parent.Uri);
    if (P == nullptr)
      return Fail("parent not loaded");
    if (P->Tag != E.Parent.Tag)
      return Fail("parent tag mismatch");
    auto It = P->Kids.find(E.Link);
    if (It == P->Kids.end() || It->second == nullptr)
      return Fail("link is not filled");
    if (It->second->Uri != E.Node.Uri || It->second->Tag != E.Node.Tag)
      return Fail("link holds a different node");
    return PatchResult();
  }
  case EditKind::Attach:
    // Definition 3.5 (2): ensured by the type system, nothing to check.
    return PatchResult();
  case EditKind::Load:
    // Definition 3.5 (3): the URI is fresh. Later loads of the same URI
    // fail here too because patching interleaves with these checks.
    if (lookup(E.Node.Uri) != nullptr)
      return Fail("URI is not fresh");
    return PatchResult();
  case EditKind::Unload: {
    // Definition 3.5 (4): the node exists with the claimed tag, kids, and
    // literals.
    const MNode *N = lookup(E.Node.Uri);
    if (N == nullptr)
      return Fail("node not loaded");
    if (N->Tag != E.Node.Tag)
      return Fail("tag mismatch");
    for (const KidRef &Kid : E.Kids) {
      auto It = N->Kids.find(Kid.Link);
      if (It == N->Kids.end() || It->second == nullptr ||
          It->second->Uri != Kid.Uri)
        return Fail("kid list disagrees with tree");
    }
    for (const LitRef &Lit : E.Lits) {
      auto It = N->Lits.find(Lit.Link);
      if (It == N->Lits.end() || !(It->second == Lit.Value))
        return Fail("literal list disagrees with tree");
    }
    return PatchResult();
  }
  case EditKind::Update: {
    const MNode *N = lookup(E.Node.Uri);
    if (N == nullptr)
      return Fail("node not loaded");
    if (N->Tag != E.Node.Tag)
      return Fail("tag mismatch");
    for (const LitRef &Lit : E.OldLits) {
      auto It = N->Lits.find(Lit.Link);
      if (It == N->Lits.end() || !(It->second == Lit.Value))
        return Fail("old literals disagree with tree");
    }
    return PatchResult();
  }
  }
  return Fail("unknown edit kind");
}

MTree::PatchResult MTree::patch(const EditScript &Script) {
  for (size_t I = 0, E = Script.size(); I != E; ++I) {
    PatchResult R = processEdit(Script[I], I);
    if (!R.Ok)
      return R;
  }
  PatchResult Done;
  Done.TouchedUris = Script.touchedUris();
  return Done;
}

MTree::PatchResult MTree::patchChecked(const EditScript &Script) {
  for (size_t I = 0, E = Script.size(); I != E; ++I) {
    PatchResult R = checkCompliance(Script[I], I);
    if (!R.Ok)
      return R;
    R = processEdit(Script[I], I);
    if (!R.Ok)
      return R;
  }
  PatchResult Done;
  Done.TouchedUris = Script.touchedUris();
  return Done;
}

bool MTree::equalsTree(const Tree *Root) const {
  struct Pair {
    const MNode *N;
    const Tree *T;
  };
  std::vector<Pair> Stack;
  Stack.push_back({top(), Root});
  while (!Stack.empty()) {
    auto [N, T] = Stack.back();
    Stack.pop_back();
    if (N == nullptr || T == nullptr) {
      if ((N == nullptr) != (T == nullptr))
        return false;
      continue;
    }
    if (N->Tag != T->tag())
      return false;
    const TagSignature &TagSig = Sig.signature(T->tag());
    if (N->Kids.size() != TagSig.Kids.size() ||
        N->Lits.size() != TagSig.Lits.size())
      return false;
    for (size_t I = 0, E = T->arity(); I != E; ++I) {
      auto It = N->Kids.find(TagSig.Kids[I].Link);
      if (It == N->Kids.end())
        return false;
      Stack.push_back({It->second, T->kid(I)});
    }
    for (size_t I = 0, E = T->numLits(); I != E; ++I) {
      auto It = N->Lits.find(TagSig.Lits[I].Link);
      if (It == N->Lits.end() || !(It->second == T->lit(I)))
        return false;
    }
  }
  return true;
}

Tree *MTree::toTree(TreeContext &Ctx, bool PreserveUris) const {
  if (!isClosedWellFormed())
    return nullptr;
  // Post-order with POD frames and one shared results stack: when a frame
  // completes, its kids' trees are the top arity() entries of Done (in
  // signature order), as in TreeContext::deepCopy.
  struct Frame {
    const MNode *N;
    const TagSignature *TagSig;
    size_t NextKid;
  };
  std::vector<Frame> Stack;
  std::vector<Tree *> Done;
  const MNode *Top = top();
  Stack.push_back({Top, &Sig.signature(Top->Tag), 0});
  while (!Stack.empty()) {
    Frame &F = Stack.back();
    if (F.NextKid < F.TagSig->Kids.size()) {
      const MNode *Kid = F.N->Kids.at(F.TagSig->Kids[F.NextKid++].Link);
      Stack.push_back({Kid, &Sig.signature(Kid->Tag), 0});
      continue;
    }
    const MNode *N = F.N;
    const TagSignature &TagSig = *F.TagSig;
    Stack.pop_back();
    std::vector<Tree *> Kids(Done.end() - TagSig.Kids.size(), Done.end());
    Done.resize(Done.size() - TagSig.Kids.size());
    std::vector<Literal> Lits;
    Lits.reserve(TagSig.Lits.size());
    for (const LitSpec &Spec : TagSig.Lits)
      Lits.push_back(N->Lits.at(Spec.Link));
    Done.push_back(PreserveUris ? Ctx.adoptWithUri(N->Tag, N->Uri,
                                                   std::move(Kids),
                                                   std::move(Lits))
                                : Ctx.make(N->Tag, std::move(Kids),
                                           std::move(Lits)));
  }
  return Done.front();
}

bool MTree::isClosedWellFormed() const {
  // Every reachable node is counted once per path to it, so a shared or
  // cyclic node pushes the count past the index size and stops the walk.
  size_t Reachable = 1; // the virtual root
  auto TopIt = Root->Kids.find(Sig.rootLink());
  if (TopIt == Root->Kids.end())
    return false;
  detail::TraversalStack<const MNode *> Stack;
  Stack.push(TopIt->second);
  while (!Stack.empty()) {
    const MNode *N = Stack.pop();
    if (N == nullptr || ++Reachable > Index.size() || !Sig.hasTag(N->Tag))
      return false; // empty slot, shared node, or unknown tag
    const TagSignature &TagSig = Sig.signature(N->Tag);
    for (const KidSpec &Spec : TagSig.Kids) {
      auto It = N->Kids.find(Spec.Link);
      if (It == N->Kids.end())
        return false;
      Stack.push(It->second);
    }
    for (const LitSpec &Spec : TagSig.Lits) {
      auto It = N->Lits.find(Spec.Link);
      if (It == N->Lits.end() || It->second.kind() != Spec.Kind)
        return false;
    }
  }
  // No leaked roots: the index holds exactly the reachable nodes.
  return Reachable == Index.size();
}

std::string MTree::toString(bool WithUris) const {
  std::string Out;
  struct Frame {
    const MNode *N;
    const TagSignature *TagSig;
    size_t NextKid;
  };
  std::vector<Frame> Stack;
  // A path longer than the arena has nodes must repeat one: a cycle,
  // which gets a marker instead of being descended forever.
  auto Open = [&](const MNode *N) {
    if (N == nullptr) {
      Out += "<hole>";
      return;
    }
    if (Stack.size() > Arena.size()) {
      Out += "<cycle>";
      return;
    }
    Out.push_back('(');
    Out += Sig.name(N->Tag);
    if (WithUris) {
      Out.push_back('_');
      Out += std::to_string(N->Uri);
    }
    Stack.push_back({N, &Sig.signature(N->Tag), 0});
  };
  Open(top());
  while (!Stack.empty()) {
    Frame &F = Stack.back();
    const MNode *N = F.N;
    const TagSignature &TagSig = *F.TagSig;
    if (F.NextKid < TagSig.Kids.size()) {
      auto It = N->Kids.find(TagSig.Kids[F.NextKid++].Link);
      Out.push_back(' ');
      Open(It == N->Kids.end() ? nullptr : It->second);
      continue;
    }
    for (const LitSpec &Spec : TagSig.Lits) {
      Out.push_back(' ');
      auto It = N->Lits.find(Spec.Link);
      Out += It == N->Lits.end() ? "<missing>" : It->second.toString();
    }
    Out.push_back(')');
    Stack.pop_back();
  }
  return Out;
}
