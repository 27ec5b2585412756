//===- service/CommittedDoc.cpp - Replay unit for committed scripts -------===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//

#include "service/CommittedDoc.h"

#include "truechange/TypeChecker.h"

using namespace truediff;
using namespace truediff::service;

CommittedDoc::CommittedDoc(const SignatureTable &Sig, size_t HistoryCapacity)
    : Sig(&Sig), Capacity(HistoryCapacity) {}

CommittedDoc::Outcome CommittedDoc::apply(DocumentStore::StoreOp Op,
                                          uint64_t NewVersion,
                                          const EditScript &Script,
                                          const std::string &Author) {
  LinearTypeChecker Checker(*Sig);
  if (Op == DocumentStore::StoreOp::Open) {
    if (!Checker.checkInitializing(Script).Ok)
      return Outcome::Rejected;
    // A failed patch only discards the fresh tree, so nothing tears.
    auto Fresh = std::make_unique<MTree>(*Sig);
    if (!Fresh->patchChecked(Script).Ok)
      return Outcome::Rejected;
    M = std::move(Fresh);
    Version = NewVersion;
    History.clear();
    OpenAuthor = Author;
    return Outcome::Applied;
  }

  if (M == nullptr || !Checker.checkWellTyped(Script).Ok)
    return Outcome::Rejected;
  // patchChecked applies edit by edit, so a mid-script failure leaves the
  // tree torn; the caller decides whether to drop or replace it.
  if (!M->patchChecked(Script).Ok)
    return Outcome::Torn;
  Version = NewVersion;
  if (Op == DocumentStore::StoreOp::Submit) {
    History.push_back({NewVersion, Script, Author});
    if (History.size() > Capacity)
      History.pop_front();
  } else if (!History.empty() && History.back().Version == NewVersion + 1) {
    History.pop_back(); // the rollback undid the newest retained submit
  } else {
    History.clear(); // ring out of sync (capacity eviction): drop it
  }
  return Outcome::Applied;
}

void CommittedDoc::load(std::unique_ptr<MTree> Tree, uint64_t NewVersion,
                        std::vector<DocumentStore::RestoreEntry> Ring,
                        std::string Author) {
  M = std::move(Tree);
  Version = NewVersion;
  History.assign(std::make_move_iterator(Ring.begin()),
                 std::make_move_iterator(Ring.end()));
  while (History.size() > Capacity)
    History.pop_front();
  OpenAuthor = std::move(Author);
}

void CommittedDoc::clear() {
  M.reset();
  Version = 0;
  History.clear();
  OpenAuthor.clear();
}

StoreResult CommittedDoc::installInto(DocumentStore &Store, DocId Doc,
                                      bool Repair) const & {
  return install(Store, Doc, Repair, {History.begin(), History.end()});
}

StoreResult CommittedDoc::installInto(DocumentStore &Store, DocId Doc,
                                      bool Repair) && {
  return install(Store, Doc, Repair,
                 {std::make_move_iterator(History.begin()),
                  std::make_move_iterator(History.end())});
}

StoreResult
CommittedDoc::install(DocumentStore &Store, DocId Doc, bool Repair,
                      std::vector<DocumentStore::RestoreEntry> Ring) const {
  auto Build = [this](TreeContext &Ctx) {
    BuildResult B;
    if (M != nullptr)
      B.Root = M->toTree(Ctx, /*PreserveUris=*/true);
    if (B.Root == nullptr)
      B.Error = "replayed tree is not closed";
    return B;
  };
  return Repair ? Store.repair(Doc, Version, Build, std::move(Ring), OpenAuthor)
                : Store.restore(Doc, Version, Build, std::move(Ring),
                                OpenAuthor);
}
