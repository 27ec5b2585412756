//===- integrity/Scrubber.cpp - Background integrity scrubber --------------===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//

#include "integrity/Scrubber.h"

#include "persist/BinaryCodec.h"
#include "persist/Snapshot.h"
#include "persist/Wal.h"
#include "support/Sha256.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

using namespace truediff;
using namespace truediff::integrity;
using truediff::service::DocId;

Scrubber::Scrubber(service::DocumentStore &Store, Config C,
                   persist::Persistence *Persist)
    : Store(Store), Persist(Persist), Cfg(std::move(C)),
      LastRefill(Clock::now()) {
  if (Cfg.ResyncsServed)
    ResyncBaseline = Cfg.ResyncsServed();
}

Scrubber::~Scrubber() { stop(); }

void Scrubber::start() {
  if (Cfg.IntervalMs == 0 || Started)
    return;
  Started = true;
  Background = std::thread([this] {
    std::unique_lock<std::mutex> Lock(BgMu);
    while (!StopBg) {
      BgCv.wait_for(Lock, std::chrono::milliseconds(Cfg.IntervalMs),
                    [this] { return StopBg; });
      if (StopBg)
        break;
      Lock.unlock();
      scrubCycle();
      Lock.lock();
    }
  });
}

void Scrubber::stop() {
  {
    std::lock_guard<std::mutex> Lock(BgMu);
    StopBg = true;
  }
  BgCv.notify_all();
  if (Background.joinable())
    Background.join();
}

void Scrubber::pace() {
  if (Cfg.RatePerSec <= 0)
    return;
  // One second of burst, at least one token, so RatePerSec < 1 still
  // makes progress.
  const double Burst = std::max(1.0, Cfg.RatePerSec);
  for (;;) {
    Clock::time_point Now = Clock::now();
    double Elapsed =
        std::chrono::duration<double>(Now - LastRefill).count();
    LastRefill = Now;
    Tokens = std::min(Tokens + Elapsed * Cfg.RatePerSec, Burst);
    if (Tokens >= 1.0) {
      Tokens -= 1.0;
      return;
    }
    double WaitS = (1.0 - Tokens) / Cfg.RatePerSec;
    std::unique_lock<std::mutex> Lock(BgMu);
    if (StopBg)
      return; // shutting down: stop throttling, let the cycle drain
    BgCv.wait_for(Lock, std::chrono::duration<double>(WaitS));
    if (StopBg)
      return;
  }
}

Scrubber::CycleReport Scrubber::scrubCycle() {
  std::lock_guard<std::mutex> Cycle(CycleMu);
  CycleReport R;
  scrubDocuments(R);
  if (Cfg.CheckDisk && Persist != nullptr)
    scrubDisk(R);

  std::lock_guard<std::mutex> Lock(StatsMu);
  ++Counters.Cycles;
  Counters.ScrubbedDocs += R.DocsScrubbed;
  Counters.DigestMismatches += R.DigestMismatches;
  Counters.WalCrcErrors += R.WalCrcErrors;
  Counters.SnapshotErrors += R.SnapshotErrors;
  Counters.Quarantined += R.NewlyQuarantined;
  Counters.Repaired += R.Repaired;
  Counters.SummariesSent += R.SummariesSent;
  return R;
}

void Scrubber::scrubDocuments(CycleReport &R) {
  // AsOfSeq first: every record committed before this point is either
  // reflected in the digests below or skipped by the follower's
  // per-entry DocSeq gate (see the file comment on the residual race).
  uint64_t AsOfSeq = Cfg.CurrentSeq ? Cfg.CurrentSeq() : 0;
  size_t NumShards = std::max<size_t>(1, Cfg.NumShards);
  std::unordered_map<uint64_t, replica::ShardSummaryMsg> Summaries;

  for (DocId Doc : Store.listDocuments()) {
    pace();

    if (Store.quarantineInfo(Doc)) {
      // Already known corrupt: no point re-deriving the mismatch, go
      // straight to repair. On success the doc rejoins the healthy set
      // (and the summary fan-out) next cycle.
      if (tryRepairFromDisk(Doc)) {
        ++R.Repaired;
      } else {
        std::lock_guard<std::mutex> Lock(StatsMu);
        ++Counters.RepairsFailed;
      }
      continue;
    }

    std::optional<std::string> Stale = Store.checkDigests(Doc);
    ++R.DocsScrubbed;
    if (Stale) {
      // In-memory corruption: the tree or its digest cache no longer
      // matches a from-scratch recomputation. Fence the document first
      // (writes would diff against rotten state), then try to restore
      // it from durable truth.
      ++R.DigestMismatches;
      if (Store.quarantine(Doc, "digest scrub failed: " + *Stale))
        ++R.NewlyQuarantined;
      if (tryRepairFromDisk(Doc)) {
        ++R.Repaired;
      } else {
        std::lock_guard<std::mutex> Lock(StatsMu);
        ++Counters.RepairsFailed;
      }
      continue;
    }

    if (Cfg.Broadcast) {
      service::DocumentSnapshot Snap = Store.snapshot(Doc);
      if (Snap.Ok && !Snap.Quarantined) {
        replica::ShardSummaryMsg &M = Summaries[Doc % NumShards];
        replica::ShardSummaryMsg::Entry E;
        E.Doc = Doc;
        E.Version = Snap.Version;
        E.DigestHex = Sha256::hash(Snap.UriText).toHex();
        M.Entries.push_back(std::move(E));
      }
    }
  }

  if (Cfg.Broadcast) {
    for (auto &[Shard, M] : Summaries) {
      M.Shard = Shard;
      M.ShardCount = NumShards;
      M.AsOfSeq = AsOfSeq;
      Cfg.Broadcast(M);
      ++R.SummariesSent;
    }
  }
}

void Scrubber::scrubDisk(CycleReport &R) {
  const std::string &Dir = Persist->config().Dir;
  bool NewDamage = false;

  // Only closed segments: the active one's tail is legitimately mid-
  // write, and flagging it would be a false positive by construction.
  uint64_t Active = Persist->stats().CurrentSegment;
  for (const auto &[Index, Path] : persist::listWalSegments(Dir)) {
    if (Index >= Active) {
      KnownBadWal.erase(Path);
      continue;
    }
    pace();
    persist::WalSegment Seg = persist::readWalSegment(Index, Path, Cfg.Env);
    bool Bad = !Seg.HeaderOk || Seg.TornBytes > 0;
    if (Bad) {
      if (KnownBadWal.insert(Path).second) {
        ++R.WalCrcErrors;
        NewDamage = true;
      }
    } else if (KnownBadWal.erase(Path) != 0) {
      // A previously corrupt read now verifies clean (transient
      // read-path fault, or the file was rewritten): healed.
      ++R.Repaired;
    }
  }

  for (const persist::SnapshotFileName &F : persist::listSnapshotFiles(Dir)) {
    pace();
    persist::ReadSnapshotResult Res = persist::readSnapshotFile(F.Path, Cfg.Env);
    if (!Res.Ok) {
      if (KnownBadSnaps.insert(F.Path).second) {
        ++R.SnapshotErrors;
        NewDamage = true;
      }
    } else if (KnownBadSnaps.erase(F.Path) != 0) {
      ++R.Repaired;
    }
  }

  if (NewDamage)
    repairDisk(R);
}

void Scrubber::repairDisk(CycleReport &R) {
  // The healthy in-memory state is the repair source: a fresh snapshot
  // of every live document supersedes every record a damaged segment
  // could contribute, after which compaction deletes the dead segment.
  for (DocId Doc : Store.listDocuments())
    Persist->snapshotDocument(Doc);
  Persist->compact();

  // Compaction deliberately never deletes a *corrupt* snapshot file
  // (recovery keeps it as a diagnostic). Here we know better: once a
  // valid snapshot with Seq >= the corrupt file's own covers the same
  // document, the corrupt file contributes nothing to recovery and is
  // deleted. (A fresh snapshot at the same Seq renames over the corrupt
  // file instead, which the re-check below counts as healed.)
  const std::string &Dir = Persist->config().Dir;
  std::unordered_map<uint64_t, uint64_t> BestValidSeq;
  std::vector<persist::SnapshotFileName> Files =
      persist::listSnapshotFiles(Dir);
  for (const persist::SnapshotFileName &F : Files) {
    if (KnownBadSnaps.count(F.Path))
      continue;
    persist::ReadSnapshotResult Res = persist::readSnapshotFile(F.Path, Cfg.Env);
    if (!Res.Ok)
      continue;
    uint64_t &Best = BestValidSeq[Res.Snap.Doc];
    Best = std::max(Best, Res.Snap.Seq);
  }
  persist::IoEnv Real;
  persist::IoEnv &Io = Cfg.Env != nullptr ? *Cfg.Env : Real;
  for (const persist::SnapshotFileName &F : Files) {
    if (!KnownBadSnaps.count(F.Path))
      continue;
    auto It = BestValidSeq.find(F.Doc);
    if (It != BestValidSeq.end() && It->second >= F.Seq)
      Io.unlinkFile(F.Path.c_str());
  }

  // Re-check the damage ledger: anything that disappeared or reads
  // clean now is repaired; anything still bad stays in the ledger
  // (counted once) and is retried next cycle.
  auto Recheck = [&](std::set<std::string> &Known, auto Verify) {
    for (auto It = Known.begin(); It != Known.end();) {
      if (Verify(*It)) {
        It = Known.erase(It);
        ++R.Repaired;
      } else {
        std::lock_guard<std::mutex> Lock(StatsMu);
        ++Counters.RepairsFailed;
        ++It;
      }
    }
  };
  Recheck(KnownBadWal, [&](const std::string &Path) {
    std::string Probe;
    if (Io.readFile(Path.c_str(), Probe) != 0)
      return true; // gone: compaction deleted the dead segment
    persist::WalSegment Seg = persist::readWalSegment(0, Path, Cfg.Env);
    return Seg.HeaderOk && Seg.TornBytes == 0;
  });
  Recheck(KnownBadSnaps, [&](const std::string &Path) {
    std::string Probe;
    if (Io.readFile(Path.c_str(), Probe) != 0)
      return true; // gone: superseded and deleted above
    return persist::readSnapshotFile(Path, Cfg.Env).Ok;
  });
}

bool Scrubber::tryRepairFromDisk(DocId Doc) {
  if (Persist == nullptr)
    return false;

  // Rebuild durable truth off to the side: newest valid snapshot plus
  // type-checked WAL replay, exactly the crash-recovery path.
  service::CommittedDoc Durable = persist::Persistence::replayDocument(
      Store.signatures(), Persist->config().Dir, Doc,
      Store.config().HistoryCapacity);
  if (!Durable.live())
    return false;

  // The quarantine blocks writes, so the live version is frozen; if the
  // durable state is behind it (unlogged degraded-mode commits), an
  // install would silently roll the document back. Refuse -- staying
  // quarantined with a warning beats losing acknowledged writes.
  service::DocumentSnapshot Live = Store.snapshot(Doc);
  if (!Live.Ok || Live.Version != Durable.version())
    return false;
  return std::move(Durable).installInto(Store, Doc, /*Repair=*/true).Ok;
}

Scrubber::Stats Scrubber::stats() const {
  std::lock_guard<std::mutex> Lock(StatsMu);
  Stats S = Counters;
  if (Cfg.ResyncsServed) {
    uint64_t Now = Cfg.ResyncsServed();
    S.ResyncsTriggered = Now > ResyncBaseline ? Now - ResyncBaseline : 0;
  }
  return S;
}

std::string Scrubber::statsJsonFragment() const {
  Stats S = stats();
  char Buf[512];
  std::snprintf(
      Buf, sizeof(Buf),
      "\"integrity\":{\"cycles\":%llu,\"scrubbed_docs\":%llu,"
      "\"digest_mismatches\":%llu,\"wal_crc_errors\":%llu,"
      "\"snapshot_errors\":%llu,\"resyncs_triggered\":%llu,"
      "\"quarantined\":%llu,\"repaired\":%llu,\"repairs_failed\":%llu,"
      "\"summaries_sent\":%llu}",
      static_cast<unsigned long long>(S.Cycles),
      static_cast<unsigned long long>(S.ScrubbedDocs),
      static_cast<unsigned long long>(S.DigestMismatches),
      static_cast<unsigned long long>(S.WalCrcErrors),
      static_cast<unsigned long long>(S.SnapshotErrors),
      static_cast<unsigned long long>(S.ResyncsTriggered),
      static_cast<unsigned long long>(S.Quarantined),
      static_cast<unsigned long long>(S.Repaired),
      static_cast<unsigned long long>(S.RepairsFailed),
      static_cast<unsigned long long>(S.SummariesSent));
  return Buf;
}
