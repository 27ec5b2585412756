//===- tests/deep_tree_test.cpp - Deep-chain traversal regression ----------===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regression test for the recursive-traversal stack overflow: a
/// pathologically deep (but admission-legal) unary chain used to crash
/// foreachTree/refreshDerived/clearDiffState/deepCopy, s-expression
/// printing, the MTree conversions (fromTree, toTree with and without
/// URIs, isClosedWellFormed, toString, equalsTree), and the initializing
/// script DocumentStore::open emits, once it exceeded the thread stack.
/// All of these are now iterative with explicit work stacks; this test
/// drives each of them over a deep chain and is meant to run under ASan,
/// whose instrumented frames blow the stack far earlier than production
/// builds would. The iterative buildInitializingScript is also checked
/// edit for edit against a recursive reference on corpus trees.
///
//===----------------------------------------------------------------------===//

#include "corpus/PyGen.h"
#include "python/PySig.h"
#include "service/DocumentStore.h"
#include "support/Rng.h"
#include "tree/SExpr.h"
#include "tree/Tree.h"
#include "truechange/InitScript.h"
#include "truechange/MTree.h"
#include "truechange/Serialize.h"

#include "TestLang.h"
#include "TestSeed.h"

#include <gtest/gtest.h>

using namespace truediff;
using namespace truediff::testlang;

namespace {

constexpr uint64_t ChainDepth = 300000;

/// Builds Call("f", Call("f", ... Num(0))) iteratively, ChainDepth Calls.
Tree *deepChain(TreeContext &Ctx) {
  Tree *T = num(Ctx, 0);
  for (uint64_t I = 0; I != ChainDepth; ++I)
    T = call(Ctx, "f", T);
  return T;
}

TEST(DeepTreeTest, TraversalsSurviveDeepChains) {
  SignatureTable Sig = makeExpSignature();
  TreeContext Ctx(Sig);
  Tree *T = deepChain(Ctx);

  uint64_t All = 0, Proper = 0;
  T->foreachTree([&](Tree *) { ++All; });
  T->foreachSubtree([&](Tree *) { ++Proper; });
  EXPECT_EQ(All, ChainDepth + 1);
  EXPECT_EQ(Proper, ChainDepth);

  T->refreshDerived(Sig, Ctx.digestPolicy());
  EXPECT_EQ(T->size(), ChainDepth + 1);
  EXPECT_EQ(T->height(), ChainDepth + 1);

  // Dirty-path rehash down the full chain: worst case, every node dirty.
  T->foreachTree([](Tree *N) { N->markDerivedDirty(); });
  EXPECT_EQ(T->rehashDirtyPaths(Sig, Ctx.digestPolicy()), ChainDepth + 1);
  T->foreachTree([&](Tree *N) { EXPECT_FALSE(N->derivedDirty()); });

  T->clearDiffState();
}

TEST(DeepTreeTest, DeepCopySurvivesDeepChains) {
  SignatureTable Sig = makeExpSignature();
  TreeContext Ctx(Sig);
  Tree *T = deepChain(Ctx);
  Tree *Copy = Ctx.deepCopy(T);
  EXPECT_TRUE(Copy->equalsModuloUris(*T));
  EXPECT_NE(Copy->uri(), T->uri());
  EXPECT_EQ(Copy->size(), ChainDepth + 1);
}

TEST(DeepTreeTest, PrintingSurvivesDeepChains) {
  SignatureTable Sig = makeExpSignature();
  TreeContext Ctx(Sig);
  Tree *T = deepChain(Ctx);
  std::string Plain = printSExpr(Sig, T);
  EXPECT_EQ(Plain.rfind("(Call (Call ", 0), 0u);
  EXPECT_NE(Plain.find("(Num 0)"), std::string::npos);
  std::string WithUris = printSExprWithUris(Sig, T);
  EXPECT_GT(WithUris.size(), Plain.size());
}

TEST(DeepTreeTest, MTreeConversionsSurviveDeepChains) {
  SignatureTable Sig = makeExpSignature();
  TreeContext Ctx(Sig);
  Tree *T = deepChain(Ctx);
  MTree M = MTree::fromTree(Sig, T);
  EXPECT_EQ(M.indexSize(), ChainDepth + 2); // chain plus the virtual root
  EXPECT_TRUE(M.isClosedWellFormed());
  EXPECT_TRUE(M.equalsTree(T));
  // Rendering straight from the MTree matches the typed tree's printing.
  EXPECT_EQ(M.toString(), printSExprWithUris(Sig, T));
  EXPECT_EQ(M.toString(/*WithUris=*/false), printSExpr(Sig, T));

  TreeContext Kept(Sig);
  Tree *Same = M.toTree(Kept, /*PreserveUris=*/true);
  ASSERT_NE(Same, nullptr);
  EXPECT_EQ(Same->uri(), T->uri());
  EXPECT_EQ(Same->size(), ChainDepth + 1);
  EXPECT_EQ(Same->structureHash(), T->structureHash());

  TreeContext Fresh(Sig);
  Tree *Copy = M.toTree(Fresh);
  ASSERT_NE(Copy, nullptr);
  EXPECT_TRUE(Copy->equalsModuloUris(*T));
}

/// The initializing script as the paper's Delta_1 builds it, recursively:
/// every node's load after its kids' loads, then the root attach. Kept
/// as the reference the iterative buildInitializingScript must match.
void referenceLoads(const SignatureTable &Sig, const Tree *T,
                    std::vector<Edit> &Edits) {
  const TagSignature &TagSig = Sig.signature(T->tag());
  std::vector<KidRef> Kids;
  for (size_t I = 0, E = T->arity(); I != E; ++I) {
    referenceLoads(Sig, T->kid(I), Edits);
    Kids.push_back(KidRef{TagSig.Kids[I].Link, T->kid(I)->uri()});
  }
  std::vector<LitRef> Lits;
  for (size_t I = 0, E = T->numLits(); I != E; ++I)
    Lits.push_back(LitRef{TagSig.Lits[I].Link, T->lit(I)});
  Edits.push_back(Edit::load(NodeRef{T->tag(), T->uri()}, std::move(Kids),
                             std::move(Lits)));
}

EditScript referenceInitializingScript(const SignatureTable &Sig,
                                       const Tree *T) {
  std::vector<Edit> Edits;
  referenceLoads(Sig, T, Edits);
  Edits.push_back(Edit::attach(NodeRef{T->tag(), T->uri()}, Sig.rootLink(),
                               NodeRef{Sig.rootTag(), NullURI}));
  return EditScript(std::move(Edits));
}

TEST(DeepTreeTest, InitializingScriptMatchesRecursiveReference) {
  uint64_t Seed = tests::testSeed(0x5eed1417);
  SEED_TRACE(Seed);
  Rng R(Seed);
  SignatureTable PySig = python::makePythonSignature();
  for (int Round = 0; Round != 10; ++Round) {
    TreeContext Ctx(PySig);
    Tree *Module = corpus::generateModule(Ctx, R);
    EXPECT_EQ(serializeEditScript(PySig, buildInitializingScript(PySig, Module)),
              serializeEditScript(PySig,
                                  referenceInitializingScript(PySig, Module)));
  }
  SignatureTable Sig = makeExpSignature();
  TreeContext Ctx(Sig);
  Tree *T = add(Ctx, mul(Ctx, num(Ctx, 1), var(Ctx, "x")),
                sub(Ctx, call(Ctx, "f", leaf(Ctx, "a")), leaf(Ctx, "b")));
  EXPECT_EQ(serializeEditScript(Sig, buildInitializingScript(Sig, T)),
            serializeEditScript(Sig, referenceInitializingScript(Sig, T)));
}

// The crash that motivated the iterative initializing script: one open
// of a deep document overflowed the stack inside DocumentStore::open.
TEST(DeepTreeTest, OpenSurvivesDeepChains) {
  constexpr uint64_t OpenDepth = 60000;
  SignatureTable Sig = makeExpSignature();
  service::DocumentStore Store(Sig);
  service::StoreResult R =
      Store.open(1, [](TreeContext &Ctx) -> service::BuildResult {
        Tree *T = num(Ctx, 0);
        for (uint64_t I = 0; I != OpenDepth; ++I)
          T = call(Ctx, "f", T);
        return {T, "", service::ErrCode::None};
      });
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.TreeSize, OpenDepth + 1);
  // One load per node, then the root attach, kids before parents.
  ASSERT_EQ(R.Script.size(), OpenDepth + 2);
  EXPECT_EQ(R.Script[0].Kind, EditKind::Load);
  EXPECT_EQ(R.Script[0].Node.Tag, Sig.lookup("Num"));
  EXPECT_EQ(R.Script[OpenDepth + 1].Kind, EditKind::Attach);
}

} // namespace
