//===- service/CommittedDoc.h - Replay unit of committed scripts -*- C++-*-===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One document rebuilt from its committed script stream: the replay unit
/// crash recovery (persist/Persistence) and follower replicas
/// (replica/Follower) share. A script changes the unit only after it
/// type-checks (Definition 3.2 for an open's initializing script, 3.1
/// otherwise) and patches compliantly (MTree::patchChecked, Theorem 3.6).
/// The unit keeps the version, the author of version 0 and the bounded
/// history ring by the store's own push/evict/pop-on-rollback rules, so
/// recovery, promotion and disk repair all end in one installInto()
/// call. Which records may apply, what a failed apply means, and the
/// provenance fold stay with the callers.
///
//===----------------------------------------------------------------------===//

#ifndef TRUEDIFF_SERVICE_COMMITTEDDOC_H
#define TRUEDIFF_SERVICE_COMMITTEDDOC_H

#include "service/DocumentStore.h"
#include "truechange/MTree.h"

#include <deque>
#include <memory>

namespace truediff {
namespace service {

class CommittedDoc {
public:
  /// What apply() did.
  enum class Outcome {
    Applied,  ///< the script is in: tree, version and ring advanced
    Rejected, ///< the script failed a check; the unit is untouched
    Torn,     ///< patching failed partway; the tree may hold a prefix
  };

  /// An empty unit (live() is false). \p HistoryCapacity bounds the ring;
  /// pass the capacity of the store the unit will be installed into.
  explicit CommittedDoc(
      const SignatureTable &Sig,
      size_t HistoryCapacity = DocumentStore::Config{}.HistoryCapacity);

  /// Applies one committed script. Open replaces the unit by the tree the
  /// initializing \p Script builds, with an empty ring. Submit and
  /// Rollback patch a live unit's tree; a submit retains the script in
  /// the ring, a rollback pops the entry it undoes (or clears the ring if
  /// that entry was evicted).
  Outcome apply(DocumentStore::StoreOp Op, uint64_t Version,
                const EditScript &Script, const std::string &Author);

  /// Replaces the unit by a decoded snapshot: \p Tree (URIs as
  /// encoded; see persist::decodeMTree) at \p Version, with \p History
  /// (oldest first) as the ring.
  void load(std::unique_ptr<MTree> Tree, uint64_t Version,
            std::vector<DocumentStore::RestoreEntry> History = {},
            std::string OpenAuthor = std::string());

  /// Empties the unit (erase, or a torn document being dropped).
  void clear();

  /// Restores the unit as \p Doc in \p Store, URIs preserved: a new
  /// document (DocumentStore::restore) or, with \p Repair, one replacing
  /// the existing \p Doc (DocumentStore::repair). The rvalue form moves
  /// the ring out instead of copying it.
  StoreResult installInto(DocumentStore &Store, DocId Doc,
                          bool Repair = false) const &;
  StoreResult installInto(DocumentStore &Store, DocId Doc,
                          bool Repair = false) &&;

  bool live() const { return M != nullptr; }
  uint64_t version() const { return Version; }
  const MTree *tree() const { return M.get(); }
  MTree *tree() { return M.get(); }
  /// Retained forward scripts, oldest first.
  const std::deque<DocumentStore::RestoreEntry> &history() const {
    return History;
  }

  /// Test hook: moves the version by \p Delta without touching the tree,
  /// so the next record's version check fails.
  void skewVersionForTest(uint64_t Delta) { Version += Delta; }

private:
  StoreResult install(DocumentStore &Store, DocId Doc, bool Repair,
                      std::vector<DocumentStore::RestoreEntry> Ring) const;

  const SignatureTable *Sig;
  size_t Capacity;
  /// Null while the unit holds no document.
  std::unique_ptr<MTree> M;
  uint64_t Version = 0;
  std::deque<DocumentStore::RestoreEntry> History;
  std::string OpenAuthor;
};

} // namespace service
} // namespace truediff

#endif // TRUEDIFF_SERVICE_COMMITTEDDOC_H
