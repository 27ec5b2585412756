//===- tests/truechange_test.cpp - Edit scripts, MTree, type checker -------===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Replays the paper's Section 3.1 example scripts (Delta1, Delta2,
/// Delta3) through the standard semantics and the linear type system, and
/// checks that ill-typed scripts -- like the move-based script of
/// Section 1 -- are rejected.
///
//===----------------------------------------------------------------------===//

#include "truechange/Edit.h"
#include "truechange/MTree.h"
#include "truechange/TypeChecker.h"

#include "TestLang.h"

#include <gtest/gtest.h>

using namespace truediff;
using namespace truediff::testlang;

namespace {

class TruechangeTest : public ::testing::Test {
protected:
  TruechangeTest()
      : Sig(makeExpSignature()), Checker(Sig), VarTag(Sig.lookup("Var")),
        AddTag(Sig.lookup("Add")), MulTag(Sig.lookup("Mul")),
        SubTag(Sig.lookup("Sub")), E1(Sig.lookup("e1")),
        E2(Sig.lookup("e2")), NameLink(Sig.lookup("name")) {}

  NodeRef rootRef() const { return NodeRef{Sig.rootTag(), NullURI}; }

  /// Delta1 from Section 3.1: builds Add_3(Var_1("a"), Var_2("b")) from
  /// the empty tree.
  EditScript delta1() const {
    EditScript S;
    S.append(Edit::load(NodeRef{VarTag, 1}, {},
                        {LitRef{NameLink, Literal("a")}}));
    S.append(Edit::load(NodeRef{VarTag, 2}, {},
                        {LitRef{NameLink, Literal("b")}}));
    S.append(Edit::load(NodeRef{AddTag, 3},
                        {KidRef{E1, 1}, KidRef{E2, 2}}, {}));
    S.append(Edit::attach(NodeRef{AddTag, 3}, Sig.rootLink(), rootRef()));
    return S;
  }

  /// Delta2: updates Var_2("b") to Var_2("c").
  EditScript delta2() const {
    EditScript S;
    S.append(Edit::update(NodeRef{VarTag, 2},
                          {LitRef{NameLink, Literal("b")}},
                          {LitRef{NameLink, Literal("c")}}));
    return S;
  }

  /// Delta3: changes Add_3(...) into Mul_4(...).
  EditScript delta3() const {
    EditScript S;
    S.append(Edit::detach(NodeRef{AddTag, 3}, Sig.rootLink(), rootRef()));
    S.append(Edit::unload(NodeRef{AddTag, 3},
                          {KidRef{E1, 1}, KidRef{E2, 2}}, {}));
    S.append(Edit::load(NodeRef{MulTag, 4},
                        {KidRef{E1, 1}, KidRef{E2, 2}}, {}));
    S.append(Edit::attach(NodeRef{MulTag, 4}, Sig.rootLink(), rootRef()));
    return S;
  }

  SignatureTable Sig;
  LinearTypeChecker Checker;
  TagId VarTag, AddTag, MulTag, SubTag;
  LinkId E1, E2, NameLink;
};

//===----------------------------------------------------------------------===//
// Edit printing and metrics
//===----------------------------------------------------------------------===//

TEST_F(TruechangeTest, EditToStringMatchesPaperNotation) {
  Edit E = Edit::detach(NodeRef{SubTag, 2}, E1, NodeRef{AddTag, 1});
  EXPECT_EQ(E.toString(Sig), "detach(Sub_2, \"e1\", Add_1)");
  Edit U = Edit::update(NodeRef{VarTag, 2}, {LitRef{NameLink, Literal("b")}},
                        {LitRef{NameLink, Literal("c")}});
  EXPECT_EQ(U.toString(Sig),
            "update(Var_2, [\"name\"->\"b\"], [\"name\"->\"c\"])");
}

TEST_F(TruechangeTest, CoalescedSizeMergesInsertAndDeletePairs) {
  // load(x); attach(x) counts as one edit; detach(y); unload(y) too.
  EditScript S;
  S.append(Edit::detach(NodeRef{AddTag, 3}, Sig.rootLink(), rootRef()));
  S.append(Edit::unload(NodeRef{AddTag, 3}, {KidRef{E1, 1}, KidRef{E2, 2}},
                        {}));
  S.append(Edit::load(NodeRef{MulTag, 4}, {KidRef{E1, 1}, KidRef{E2, 2}},
                      {}));
  S.append(Edit::attach(NodeRef{MulTag, 4}, Sig.rootLink(), rootRef()));
  EXPECT_EQ(S.size(), 4u);
  EXPECT_EQ(S.coalescedSize(), 2u);
}

TEST_F(TruechangeTest, CoalescedSizeKeepsBareMoves) {
  EditScript S;
  S.append(Edit::detach(NodeRef{SubTag, 2}, E1, NodeRef{AddTag, 1}));
  S.append(Edit::detach(NodeRef{SubTag, 7}, E2, NodeRef{MulTag, 5}));
  S.append(Edit::attach(NodeRef{SubTag, 7}, E1, NodeRef{AddTag, 1}));
  S.append(Edit::attach(NodeRef{SubTag, 2}, E2, NodeRef{MulTag, 5}));
  EXPECT_EQ(S.coalescedSize(), 4u);
}

//===----------------------------------------------------------------------===//
// Standard semantics (paper Figure 2, Section 3.2 walkthrough)
//===----------------------------------------------------------------------===//

TEST_F(TruechangeTest, Delta1BuildsTree) {
  MTree T(Sig);
  auto R = T.patchChecked(delta1());
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(T.toString(), "(Add_3 (Var_1 \"a\") (Var_2 \"b\"))");
  EXPECT_EQ(T.indexSize(), 4u); // null, 1, 2, 3
}

TEST_F(TruechangeTest, Delta2UpdatesLiteral) {
  MTree T(Sig);
  ASSERT_TRUE(T.patchChecked(delta1()).Ok);
  auto R = T.patchChecked(delta2());
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(T.toString(), "(Add_3 (Var_1 \"a\") (Var_2 \"c\"))");
}

TEST_F(TruechangeTest, Delta3ReplacesConstructor) {
  MTree T(Sig);
  ASSERT_TRUE(T.patchChecked(delta1()).Ok);
  ASSERT_TRUE(T.patchChecked(delta2()).Ok);
  auto R = T.patchChecked(delta3());
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(T.toString(), "(Mul_4 (Var_1 \"a\") (Var_2 \"c\"))");
  // Add_3 was unloaded, Mul_4 loaded: index holds null, 1, 2, 4.
  EXPECT_EQ(T.indexSize(), 4u);
  EXPECT_EQ(T.lookup(3), nullptr);
  EXPECT_NE(T.lookup(4), nullptr);
}

TEST_F(TruechangeTest, InspectingACyclicTreeTerminates) {
  // The unchecked semantics trusts the type system, so an ill-typed
  // script can attach a node under itself; inspection must still stop.
  MTree T(Sig);
  ASSERT_TRUE(T.patch(delta1()).Ok);
  EditScript Cycle;
  Cycle.append(Edit::detach(NodeRef{VarTag, 1}, E1, NodeRef{AddTag, 3}));
  Cycle.append(Edit::attach(NodeRef{AddTag, 3}, E1, NodeRef{AddTag, 3}));
  ASSERT_TRUE(T.patch(Cycle).Ok);
  EXPECT_FALSE(T.isClosedWellFormed());
  EXPECT_NE(T.toString().find("<cycle>"), std::string::npos);
  TreeContext Ctx(Sig);
  EXPECT_EQ(T.toTree(Ctx), nullptr);
}

TEST_F(TruechangeTest, FromTreePreservesUrisAndContent) {
  TreeContext Ctx(Sig);
  Tree *T = add(Ctx, var(Ctx, "a"), var(Ctx, "b"));
  MTree M = MTree::fromTree(Sig, T);
  EXPECT_TRUE(M.equalsTree(T));
  EXPECT_NE(M.lookup(T->uri()), nullptr);
  EXPECT_EQ(M.indexSize(), 4u);
}

TEST_F(TruechangeTest, PatchFailsOnMissingNode) {
  MTree T(Sig);
  EditScript S;
  S.append(Edit::attach(NodeRef{AddTag, 99}, Sig.rootLink(), rootRef()));
  auto R = T.patch(S);
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.ErrorIndex, 0u);
}

//===----------------------------------------------------------------------===//
// Syntactic compliance (Definition 3.5)
//===----------------------------------------------------------------------===//

TEST_F(TruechangeTest, ComplianceRejectsWrongDetachTarget) {
  MTree T(Sig);
  ASSERT_TRUE(T.patchChecked(delta1()).Ok);
  // Claim Var_1 is attached via e2 (it is attached via e1).
  EditScript S;
  S.append(Edit::detach(NodeRef{VarTag, 1}, E2, NodeRef{AddTag, 3}));
  auto R = T.patchChecked(S);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("non-compliant"), std::string::npos);
}

TEST_F(TruechangeTest, ComplianceRejectsStaleLoadUri) {
  MTree T(Sig);
  ASSERT_TRUE(T.patchChecked(delta1()).Ok);
  EditScript S;
  S.append(Edit::load(NodeRef{VarTag, 1}, {},
                      {LitRef{NameLink, Literal("x")}}));
  auto R = T.patchChecked(S);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("not fresh"), std::string::npos);
}

TEST_F(TruechangeTest, ComplianceRejectsWrongUnloadKids) {
  MTree T(Sig);
  ASSERT_TRUE(T.patchChecked(delta1()).Ok);
  EditScript S;
  S.append(Edit::detach(NodeRef{AddTag, 3}, Sig.rootLink(), rootRef()));
  // Kid list claims e1 -> 2, but really e1 -> 1.
  S.append(Edit::unload(NodeRef{AddTag, 3},
                        {KidRef{E1, 2}, KidRef{E2, 1}}, {}));
  auto R = T.patchChecked(S);
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.ErrorIndex, 1u);
}

TEST_F(TruechangeTest, ComplianceRejectsWrongUpdateOldLits) {
  MTree T(Sig);
  ASSERT_TRUE(T.patchChecked(delta1()).Ok);
  EditScript S;
  S.append(Edit::update(NodeRef{VarTag, 2},
                        {LitRef{NameLink, Literal("WRONG")}},
                        {LitRef{NameLink, Literal("c")}}));
  auto R = T.patchChecked(S);
  EXPECT_FALSE(R.Ok);
}

//===----------------------------------------------------------------------===//
// Linear type system (paper Figure 3)
//===----------------------------------------------------------------------===//

TEST_F(TruechangeTest, Delta1IsWellTypedInitializing) {
  auto R = Checker.checkInitializing(delta1());
  EXPECT_TRUE(R.Ok) << R.Error;
}

TEST_F(TruechangeTest, Delta2AndDelta3AreWellTyped) {
  EXPECT_TRUE(Checker.checkWellTyped(delta2()).Ok);
  EXPECT_TRUE(Checker.checkWellTyped(delta3()).Ok);
}

TEST_F(TruechangeTest, SwapScriptFromSection2IsWellTyped) {
  // Section 2: detach both, then re-attach crosswise.
  EditScript S;
  S.append(Edit::detach(NodeRef{SubTag, 2}, E1, NodeRef{AddTag, 1}));
  S.append(Edit::detach(NodeRef{Sig.lookup("d"), 7}, E2, NodeRef{MulTag, 5}));
  S.append(Edit::attach(NodeRef{Sig.lookup("d"), 7}, E1, NodeRef{AddTag, 1}));
  S.append(Edit::attach(NodeRef{SubTag, 2}, E2, NodeRef{MulTag, 5}));
  LinearState State = LinearState::closed(Sig);
  auto R = Checker.checkScript(S, State);
  EXPECT_TRUE(R.Ok) << R.Error;
  EXPECT_TRUE(State == LinearState::closed(Sig));
}

TEST_F(TruechangeTest, MoveToOccupiedSlotIsIllTyped) {
  // The Section 1 "move" pitfall: attaching to a slot that was never
  // emptied overloads the link and must be rejected.
  EditScript S;
  S.append(Edit::detach(NodeRef{SubTag, 2}, E1, NodeRef{AddTag, 1}));
  S.append(Edit::attach(NodeRef{SubTag, 2}, E2, NodeRef{MulTag, 5}));
  LinearState State = LinearState::closed(Sig);
  auto R = Checker.checkScript(S, State);
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.ErrorIndex, 1u);
  EXPECT_NE(R.Error.find("not empty"), std::string::npos);
}

TEST_F(TruechangeTest, ReusingNodeTwiceIsIllTyped) {
  // Section 2: attach(b_3, ...) when b_3 is not a root violates
  // linearity.
  EditScript S;
  S.append(Edit::detach(NodeRef{Sig.lookup("a"), 2}, E1, NodeRef{AddTag, 1}));
  S.append(Edit::attach(NodeRef{Sig.lookup("b"), 3}, E1, NodeRef{AddTag, 1}));
  LinearState State = LinearState::closed(Sig);
  auto R = Checker.checkScript(S, State);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("not an unattached root"), std::string::npos);
}

TEST_F(TruechangeTest, LeakedRootIsIllTyped) {
  // Detach without reattach or unload leaks a root and a slot.
  EditScript S;
  S.append(Edit::detach(NodeRef{SubTag, 2}, E1, NodeRef{AddTag, 1}));
  auto R = Checker.checkWellTyped(S);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("leaks"), std::string::npos);
}

TEST_F(TruechangeTest, DetachUnloadLoadAttachRoundTrip) {
  // The Section 2 excessive-demand example:
  //   [detach(a_2,e1,Add_1), unload(a_2), load(b_4), attach(b_4,e1,Add_1)]
  EditScript S;
  S.append(Edit::detach(NodeRef{Sig.lookup("a"), 2}, E1, NodeRef{AddTag, 1}));
  S.append(Edit::unload(NodeRef{Sig.lookup("a"), 2}, {}, {}));
  S.append(Edit::load(NodeRef{Sig.lookup("b"), 4}, {}, {}));
  S.append(Edit::attach(NodeRef{Sig.lookup("b"), 4}, E1, NodeRef{AddTag, 1}));
  EXPECT_TRUE(Checker.checkWellTyped(S).Ok);
  EXPECT_EQ(S.coalescedSize(), 2u);
}

TEST_F(TruechangeTest, LoadWithNonRootKidIsIllTyped) {
  EditScript S;
  S.append(Edit::load(NodeRef{AddTag, 10},
                      {KidRef{E1, 55}, KidRef{E2, 56}}, {}));
  auto R = Checker.checkWellTyped(S);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("not an unattached root"), std::string::npos);
}

TEST_F(TruechangeTest, LoadConsumingSameKidTwiceIsIllTyped) {
  EditScript S;
  S.append(Edit::load(NodeRef{VarTag, 10}, {},
                      {LitRef{NameLink, Literal("v")}}));
  S.append(
      Edit::load(NodeRef{AddTag, 11}, {KidRef{E1, 10}, KidRef{E2, 10}}, {}));
  LinearState State = LinearState::closed(Sig);
  auto R = Checker.checkScript(S, State);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("linear"), std::string::npos);
}

TEST_F(TruechangeTest, UnloadOfAttachedNodeIsIllTyped) {
  // Unloading a node that is not a detached root must fail.
  EditScript S;
  S.append(Edit::unload(NodeRef{SubTag, 2}, {}, {}));
  LinearState State = LinearState::closed(Sig);
  auto R = Checker.checkScript(S, State);
  EXPECT_FALSE(R.Ok);
}

TEST_F(TruechangeTest, UpdateWithWrongKindIsIllTyped) {
  EditScript S;
  S.append(Edit::update(NodeRef{VarTag, 2},
                        {LitRef{NameLink, Literal("b")}},
                        {LitRef{NameLink, Literal(int64_t(3))}}));
  auto R = Checker.checkWellTyped(S);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("kind"), std::string::npos);
}

TEST_F(TruechangeTest, LoadWithMissingLiteralIsIllTyped) {
  EditScript S;
  S.append(Edit::load(NodeRef{VarTag, 10}, {}, {}));
  auto R = Checker.checkWellTyped(S);
  EXPECT_FALSE(R.Ok);
}

TEST_F(TruechangeTest, TouchedUrisReportInPlaceMutations) {
  // touchedUris names the nodes whose in-memory state a patch mutates --
  // the set a digest cache must re-examine. Loads and updates touch the
  // node itself, detach/attach touch the parent whose kid slot changes
  // (the virtual root appears as NullURI), and unload touches nothing
  // that still exists. Duplicates collapse to first-touched order.
  std::vector<URI> D1 = delta1().touchedUris();
  EXPECT_EQ(D1, (std::vector<URI>{1, 2, 3, NullURI}));

  std::vector<URI> D2 = delta2().touchedUris();
  EXPECT_EQ(D2, (std::vector<URI>{2}));

  // Delta3 detaches from and reattaches to the root: NullURI appears
  // once, followed by the freshly loaded Mul_4.
  std::vector<URI> D3 = delta3().touchedUris();
  EXPECT_EQ(D3, (std::vector<URI>{NullURI, 4}));

  EXPECT_TRUE(EditScript().touchedUris().empty());
}

TEST_F(TruechangeTest, PatchResultCarriesTouchedUris) {
  // A successful patch reports the same touched set the script declares;
  // a failed patch reports nothing.
  MTree T(Sig);
  auto PR = T.patchChecked(delta1());
  ASSERT_TRUE(PR.Ok);
  EXPECT_EQ(PR.TouchedUris, delta1().touchedUris());

  PR = T.patch(delta2());
  ASSERT_TRUE(PR.Ok);
  EXPECT_EQ(PR.TouchedUris, (std::vector<URI>{2}));

  // Replaying delta2 fails compliance (old literal no longer matches);
  // the failed patch must not claim to have touched anything.
  PR = T.patchChecked(delta2());
  ASSERT_FALSE(PR.Ok);
  EXPECT_TRUE(PR.TouchedUris.empty());
}

TEST_F(TruechangeTest, TypeSafetyTheorem) {
  // Theorem 3.6 in action: a well-typed, compliant script patches
  // successfully, and the result is a well-formed tree.
  MTree T(Sig);
  EditScript Init = delta1();
  ASSERT_TRUE(Checker.checkInitializing(Init).Ok);
  ASSERT_TRUE(T.patchChecked(Init).Ok);
  for (const EditScript &S : {delta2(), delta3()}) {
    ASSERT_TRUE(Checker.checkWellTyped(S).Ok);
    ASSERT_TRUE(T.patchChecked(S).Ok);
  }
  // Final tree matches the Section 3.1 walkthrough.
  EXPECT_EQ(T.toString(), "(Mul_4 (Var_1 \"a\") (Var_2 \"c\"))");
}

} // namespace
