//===- truechange/InitScript.cpp - Initializing edit scripts ---------------===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//

#include "truechange/InitScript.h"

using namespace truediff;

EditScript truediff::buildInitializingScript(const SignatureTable &Sig,
                                             const Tree *T) {
  // Post-order with an explicit stack: a node's load is emitted once all
  // of its kids' loads are, so a chain as deep as admission allows never
  // recurses.
  struct Frame {
    const Tree *T;
    size_t NextKid;
  };
  std::vector<Edit> Edits;
  Edits.reserve(T->size() + 1);
  std::vector<Frame> Stack;
  Stack.push_back({T, 0});
  while (!Stack.empty()) {
    Frame &F = Stack.back();
    if (F.NextKid != F.T->arity()) {
      const Tree *Kid = F.T->kid(F.NextKid++);
      Stack.push_back({Kid, 0});
      continue;
    }
    const Tree *N = F.T;
    Stack.pop_back();
    const TagSignature &TagSig = Sig.signature(N->tag());
    std::vector<KidRef> Kids;
    Kids.reserve(N->arity());
    for (size_t I = 0, E = N->arity(); I != E; ++I)
      Kids.push_back(KidRef{TagSig.Kids[I].Link, N->kid(I)->uri()});
    std::vector<LitRef> Lits;
    Lits.reserve(N->numLits());
    for (size_t I = 0, E = N->numLits(); I != E; ++I)
      Lits.push_back(LitRef{TagSig.Lits[I].Link, N->lit(I)});
    Edits.push_back(Edit::load(NodeRef{N->tag(), N->uri()}, std::move(Kids),
                               std::move(Lits)));
  }
  Edits.push_back(Edit::attach(NodeRef{T->tag(), T->uri()}, Sig.rootLink(),
                               NodeRef{Sig.rootTag(), NullURI}));
  return EditScript(std::move(Edits));
}
