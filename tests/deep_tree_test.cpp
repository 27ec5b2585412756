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
/// printing, and the MTree conversions (fromTree, toTree with and
/// without URIs, isClosedWellFormed, toString, equalsTree) once it
/// exceeded the thread stack. All of these are now iterative with
/// explicit work stacks; this test drives each of them over a ~300k-deep
/// chain and is meant to run under ASan, whose instrumented frames blow
/// the stack far earlier than production builds would.
///
//===----------------------------------------------------------------------===//

#include "tree/SExpr.h"
#include "tree/Tree.h"
#include "truechange/MTree.h"

#include "TestLang.h"

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

} // namespace
