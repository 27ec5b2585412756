//===- replica/Failover.h - Leader failover machinery -----------*- C++-*-===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Promotes a follower replica to leader. The promotion is a state
/// machine over three existing subsystems, with the paper's typed edit
/// scripts as the correctness backbone:
///
///   1. fence    -- prepareForPromotion(NewEpoch): the follower drops
///                  its leader link and raises its epoch fencing floor,
///                  so the old leader can never be accepted again;
///   2. install  -- under the follower's state mutex, one consistent cut
///                  of the applied state (every document the product of
///                  a committed record prefix, because followers only
///                  ever apply type-checked, gap-free script sequences)
///                  goes straight into the store: each document's replay
///                  unit restores itself (CommittedDoc::installInto, URIs
///                  preserved) and its provenance snapshot goes into the
///                  node's blame index; then ReplicationLog::seed lets
///                  the new leader's record stream continue each
///                  per-document chain seamlessly.
///
/// After promoteFollower the caller flips the node's RoleState to
/// Leader, starts a Leader endpoint with the new epoch, and serves
/// writes from the restored store. Peers re-point at it: followers at or
/// behind the promoted seq catch up normally; the demoted leader's
/// divergent, never-acked suffix is not replayable and such a node
/// rejoins by state transfer into fresh follower state (see DESIGN.md
/// §15).
///
/// FailoverHandler is the request-path half: one RequestHandler that
/// routes by the node's current role, so a single listening port serves
/// the follower's read protocol before promotion and the full leader
/// protocol after.
///
//===----------------------------------------------------------------------===//

#ifndef TRUEDIFF_REPLICA_FAILOVER_H
#define TRUEDIFF_REPLICA_FAILOVER_H

#include "net/Role.h"
#include "replica/Follower.h"
#include "replica/ReplicationLog.h"

#include <atomic>

namespace truediff {
namespace blame {
class ProvenanceIndex;
}
namespace replica {

struct PromotionResult {
  bool Ok = false;
  std::string Error;
  /// Documents installed into the store.
  uint64_t Docs = 0;
  /// The committed-prefix seq the promoted state reproduces; the seeded
  /// log continues from here.
  uint64_t LastSeq = 0;
  uint64_t Epoch = 0;
};

/// Runs the fence/install sequence: \p F stops following and its
/// applied state becomes \p Store's content (URIs preserved, history
/// rings intact), \p Prov (may be null) receives each document's
/// provenance snapshot, and \p Log -- which must be fresh: never
/// committed, not yet attached -- is seeded and then attached to the
/// store. On return the store serves exactly the committed prefix the
/// follower had applied, ready for a Leader endpoint at \p NewEpoch.
///
/// \p Store must not already contain any of the follower's documents
/// (promotion installs into a fresh store). Fails atomically per document: the
/// first restore failure aborts with its error.
PromotionResult promoteFollower(Follower &F, service::DocumentStore &Store,
                                blame::ProvenanceIndex *Prov,
                                ReplicationLog &Log, uint64_t NewEpoch);

/// Routes requests by the node's current role: Leader serves the full
/// service protocol (writes included), anything else serves the
/// follower's read protocol. The writer handler may be installed later
/// -- promotion constructs it once the store exists -- via setWriter(),
/// which is safe against concurrent handle() calls.
class FailoverHandler : public net::RequestHandler {
public:
  FailoverHandler(net::RoleState &Role, net::RequestHandler &Reader)
      : Role(Role), Reader(Reader) {}

  void setWriter(net::RequestHandler *W) { Writer.store(W); }

  void handle(net::NetRequest Req,
              std::function<void(service::Response)> Done) override {
    net::RequestHandler *W = Writer.load();
    if (W != nullptr && Role.writable()) {
      W->handle(std::move(Req), std::move(Done));
      return;
    }
    Reader.handle(std::move(Req), std::move(Done));
  }

private:
  net::RoleState &Role;
  std::atomic<net::RequestHandler *> Writer{nullptr};
  net::RequestHandler &Reader;
};

} // namespace replica
} // namespace truediff

#endif // TRUEDIFF_REPLICA_FAILOVER_H
