//===- replica/Failover.cpp - Leader failover machinery --------------------===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//

#include "replica/Failover.h"

#include "blame/Provenance.h"

using namespace truediff;
using namespace truediff::replica;
using service::DocumentStore;

PromotionResult replica::promoteFollower(Follower &F, DocumentStore &Store,
                                         blame::ProvenanceIndex *Prov,
                                         ReplicationLog &Log,
                                         uint64_t NewEpoch) {
  PromotionResult Out;
  Out.Epoch = NewEpoch;

  // Fence first: from here on the old leader cannot feed this node, so
  // the state installed below is final, not a moving target.
  F.prepareForPromotion(NewEpoch);

  std::vector<ReplicationLog::SeedDoc> Seeds;
  {
    // One consistent cut: no record lands while the units install.
    std::lock_guard<std::mutex> Lock(F.Mu);
    Out.LastSeq = F.LastSeq;
    for (const auto &[Doc, RD] : F.Docs) {
      service::StoreResult R = RD.State.installInto(Store, Doc);
      if (!R.Ok) {
        Out.Error = "restore of document " + std::to_string(Doc) +
                    " failed: " + R.Error;
        return Out;
      }
      if (Prov != nullptr) {
        std::string Blob = F.Prov.snapshotDoc(Doc);
        if (!Blob.empty())
          Prov->installSnapshot(Doc, Blob);
      }
      Seeds.push_back({Doc, RD.Incarnation, RD.State.version(), RD.DocSeq});
      ++Out.Docs;
    }
  }

  // Seed before attach: the first post-promotion commit must continue
  // the installed chains (same incarnations, seq = LastSeq + 1), or
  // re-pointed followers would reject the stream.
  Log.seed(Out.LastSeq, Seeds);
  Log.attach();
  Out.Ok = true;
  return Out;
}
