//===- perfbench/src/ServeDurable.cpp - The durable write path ------------===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// serve_durable: the write path of `diff_server --data-dir`, in one
/// process. A DocumentStore with a ProvenanceIndex and Persistence
/// (FsyncEvery = 8, default snapshots), wired in diff_server's order,
/// behind a DiffService with 2 workers. Set-up creates the data directory
/// and opens every document; the load replays each document's commit
/// chain as version-CAS submits with rollbacks mixed in; at the end the
/// service is shut down and Persistence::recover rebuilds a fresh store
/// from the data directory.
///
/// Load: one generator thread drives Callers closed-loop callers. Each
/// caller owns every Callers-th document and round-robins over them,
/// waiting for each reply before its next request, so never two requests
/// of one document are in flight (DiffService does not keep one
/// document's pipelined requests in arrival order). One caller is the
/// default: with two or four in flight on the workload's one CPU, a
/// submit's latency depended on how the requests interleaved, and
/// over five seeds nodes_per_ms spread 12% with two and 16-27% with four
/// callers, against 5% with one (README).
///
/// Layers are timed from outside: the TreeBuilder the benchmark hands the
/// service (queue wait ends when it starts; it parses), three script
/// listeners registered around the persistence and blame listeners, and
/// the durability listener.
///
/// Checks: each document's final text equals the text the generator
/// derived from its chain and rollbacks, and the recovered store equals
/// the live one byte for byte in URI rendering.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "blame/Provenance.h"
#include "persist/Persistence.h"
#include "persist/Snapshot.h"
#include "persist/Wal.h"
#include "python/Python.h"
#include "service/DiffService.h"
#include "support/Rng.h"
#include "tree/SExpr.h"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <memory>
#include <sys/stat.h>
#include <unistd.h>

using namespace truediff;
using namespace truediff::service;

namespace perfbench {

namespace {

/// Documents of one size class (~1k nodes, the size of the default
/// corpus files), so the tail latency does not hinge on which seed drew
/// the largest module. 70 commits per document cross the default
/// SnapshotEvery (64), so every document is snapshotted once.
constexpr unsigned NumDocs = 24;
constexpr uint64_t DocNodes = 1000;
constexpr unsigned CommitsPerDoc = 70;
constexpr unsigned RollbackEvery = 10;
constexpr unsigned Callers = 1;
constexpr unsigned Workers = 2;
constexpr size_t FsyncEvery = 8;

struct Op {
  bool Rollback = false;
  const std::string *Text = nullptr; ///< submit: the new version's source
};

/// Timestamps of a document's in-flight request, written by the service
/// threads (builder, listeners) and read by the generator after the
/// reply. One request per document is in flight, so one writer at a time.
struct Slot {
  Clock::time_point Issued, BuildStart, BuildEnd, A, B, C, Durable;
  uint64_t ParsedNodes = 0;
  uint64_t Req = 0;
};

struct Completion {
  unsigned Caller = 0;
  Response R;
  Clock::time_point At;
};

struct RoundStats {
  std::vector<double> SetupS;
  uint64_t Commits = 0;
  uint64_t Submits = 0;
  uint64_t ScriptBytes = 0;
  /// Per submit: latency and edits; per commit, its end in completion
  /// order.
  std::vector<double> SubmitMs, Edits;
  std::vector<Clock::time_point> Ends;
};

/// Set-ups and recoveries per round; setup_s is the median over all
/// set-ups, which steadies this short timing. Each recovery rebuilds a
/// fresh store from the same data directory. A round's load is cut into
/// segments of consecutive commits for ops_per_s (see BestOf).
constexpr unsigned SetupsPerRound = 8;
constexpr unsigned RecoveriesPerRound = 6;
constexpr unsigned SegmentsPerRound = 16;

/// The durable serving stack in diff_server's order: the store, a
/// stamping listener, Persistence (recoverAndAttach on the fresh data
/// directory), a stamping listener, the provenance index, a stamping
/// listener, then the service. The stamps and the durability listener
/// time the layers between them.
struct DurableStack {
  DocumentStore Store;
  blame::ProvenanceIndex Prov;
  std::unique_ptr<persist::Persistence> P;
  std::unique_ptr<DiffService> Svc;

  DurableStack(const SignatureTable &Sig, const std::string &Dir,
               std::vector<Slot> &Slots)
      : Store(Sig) {
    auto SlotOf = [&Slots](DocId Doc) -> Slot * {
      return Doc < Slots.size() ? &Slots[Doc] : nullptr;
    };
    persist::Persistence::Config PC;
    PC.Dir = Dir;
    PC.FsyncEvery = FsyncEvery;
    P = std::make_unique<persist::Persistence>(Sig, PC);
    P->setProvenanceSource([this](DocId Doc) { return Prov.snapshotDoc(Doc); });
    P->setDurabilityListener([SlotOf](DocId Doc, uint64_t, bool, bool) {
      if (Slot *S = SlotOf(Doc))
        S->Durable = Clock::now();
    });
    auto Stamp = [SlotOf](Clock::time_point Slot::*Field) {
      return [SlotOf, Field](DocId Doc, uint64_t, DocumentStore::StoreOp,
                             const EditScript &,
                             const DocumentStore::ScriptInfo &) {
        if (Slot *S = SlotOf(Doc))
          S->*Field = Clock::now();
      };
    };
    Store.addScriptListener(Stamp(&Slot::A));
    P->recoverAndAttach(Store, &Prov);
    Store.addScriptListener(Stamp(&Slot::B));
    Prov.attach(Store);
    Store.addScriptListener(Stamp(&Slot::C));
    ServiceConfig SC;
    SC.Workers = Workers;
    Svc = std::make_unique<DiffService>(Store, SC);
    persist::Persistence *PP = P.get();
    Svc->setDrainHook([PP] { PP->flush(); });
  }
  DurableStack(const DurableStack &) = delete;
  DurableStack &operator=(const DurableStack &) = delete;
};

std::string sexprOf(const SignatureTable &Sig, const std::string &Src) {
  TreeContext Ctx(Sig);
  python::PyParseResult P = python::parsePython(Ctx, Src);
  return P.ok() ? printSExpr(Sig, P.Module) : std::string();
}

void removeDataDir(const std::string &Dir) {
  for (const auto &[Index, Path] : persist::listWalSegments(Dir))
    ::unlink(Path.c_str());
  for (const persist::SnapshotFileName &F : persist::listSnapshotFiles(Dir))
    ::unlink(F.Path.c_str());
  ::rmdir(Dir.c_str());
}

/// Cuts the last byte off the newest non-empty WAL segment: a torn tail,
/// which recovery discards together with the record it belonged to.
bool dropLastRecord(const std::string &Dir) {
  auto Segs = persist::listWalSegments(Dir);
  for (size_t I = Segs.size(); I != 0; --I) {
    struct stat St {};
    const std::string &Path = Segs[I - 1].second;
    if (::stat(Path.c_str(), &St) == 0 && St.st_size > 0)
      return ::truncate(Path.c_str(), St.st_size - 1) == 0;
  }
  return false;
}

} // namespace

RunResult runServeDurable(const Options &O) {
  SignatureTable Sig = python::makePythonSignature();
  unsigned Docs = O.Small ? 4 : NumDocs;
  std::vector<Chain> Chains =
      sizedChains(O.Seed, std::vector<uint64_t>(Docs, DocNodes),
                  O.Small ? 12 : CommitsPerDoc);

  // The op sequence and the text each document must end at, derived by
  // the generator alone.
  std::vector<std::vector<Op>> Plans(Docs);
  std::vector<std::string> Expected(Docs);
  Rng R(O.Seed * 0x94d049bb133111ebull + 3);
  for (unsigned D = 0; D != Docs; ++D) {
    std::vector<const std::string *> Stack{&Chains[D].Base};
    // One rollback per RollbackEvery submits, at a seeded offset, so
    // every seed has the same number of rollbacks.
    uint64_t Offset = R.below(RollbackEvery);
    for (size_t I = 0; I != Chains[D].Commits.size(); ++I) {
      const std::string &C = Chains[D].Commits[I];
      Plans[D].push_back(Op{false, &C});
      Stack.push_back(&C);
      if (I % RollbackEvery == Offset) {
        Plans[D].push_back(Op{true, nullptr});
        Stack.pop_back();
      }
    }
    Expected[D] = sexprOf(Sig, *Stack.back());
  }
  if (O.Inject == Fault::WrongText)
    Expected[0] += " ";

  Tracer T;
  RunResult Out;
  std::vector<RoundStats> Rounds;
  std::vector<double> TracedSubmitMs, PlainSubmitMs;
  uint64_t WalBytes = 0, WalRecords = 0, Fsyncs = 0, Snapshots = 0;
  uint64_t Rehashed = 0, CacheSaved = 0, TracedSubmits = 0;
  double ParsedNodes = 0;
  std::vector<double> RecoverMsTraced;
  unsigned TracedRounds = 0;
  // Over the untraced measured rounds: the fastest time of each submit
  // (keyed by document and step; work: source plus target nodes), of each
  // load segment (work: commits) and of each recovery (work: nodes).
  size_t PlanLen = 0;
  for (const std::vector<Op> &P : Plans)
    PlanLen = std::max(PlanLen, P.size());
  BestOf BestSubmit, BestSeg, BestRec;

  // Every thread of the workload -- the generator, both workers and the
  // persistence thread, all started from this thread and so inheriting
  // its mask -- runs on one CPU, so the workload measures a 1-CPU
  // placement. Spread over two or four CPUs, or left to the scheduler,
  // whether a worker's parse shared its CPU, and what each wake-up cost,
  // changed from run to run, and commit throughput moved by up to a third
  // between runs of one seed (see README).
  PinScope Workload;
  HostSpeed Host;
  for (RoundSchedule Sched(O, Host);;) {
    bool Traced = Sched.traced();
    T.setOn(Traced);
    RoundStats RS;
    std::vector<Slot> Slots(Docs + 1);
    auto Builder = [](const std::string *Text, Slot *S) -> TreeBuilder {
      return [Text, S](TreeContext &Ctx) -> BuildResult {
        S->BuildStart = Clock::now();
        python::PyParseResult PR = python::parsePython(Ctx, *Text);
        S->BuildEnd = Clock::now();
        if (!PR.ok())
          return BuildResult{nullptr, "python parse error: " + PR.Error,
                             ErrCode::BuildFailed};
        S->ParsedNodes = PR.Module->size();
        return BuildResult{PR.Module, "", ErrCode::None};
      };
    };
    auto authorOf = [](unsigned D) { return "editor" + std::to_string(D % 7); };

    // Set-up, several times: a fresh data directory, the durable stack
    // and every document opened. The last stack serves the load.
    std::unique_ptr<DurableStack> Stack;
    std::string Dir;
    std::vector<uint64_t> Size(Docs, 0);
    for (unsigned K = 0; K != SetupsPerRound; ++K) {
      if (Stack) {
        Stack.reset();
        removeDataDir(Dir);
      }
      Dir = O.WorkDir + "/serve_durable-" + std::to_string(::getpid()) + "-" +
            std::to_string(Sched.round()) + "-" + std::to_string(K);
      auto S0 = Clock::now();
      Stack = std::make_unique<DurableStack>(Sig, Dir, Slots);
      bool Opened = true;
      for (unsigned D = 0; D != Docs; ++D) {
        Response Rsp = Stack->Svc->open(
            D + 1, Builder(&Chains[D].Base, &Slots[D + 1]), authorOf(D));
        Opened &= Rsp.Ok;
        Size[D] = Rsp.TreeSize;
      }
      RS.SetupS.push_back(msBetween(S0, Clock::now()) / 1000.0);
      if (!Opened)
        Out.fail("open failed during set-up");
    }
    DocumentStore &Store = Stack->Store;
    DiffService &Svc = *Stack->Svc;

    // Load: closed-loop callers, one generator thread.
    std::mutex QMu;
    std::condition_variable QCv;
    std::deque<Completion> Queue;
    struct CallerState {
      std::vector<unsigned> Docs;
      size_t Rr = 0;
      unsigned Cur = 0;
    };
    std::vector<CallerState> Cs(Callers);
    for (unsigned D = 0; D != Docs; ++D)
      Cs[D % Callers].Docs.push_back(D);
    std::vector<size_t> NextOp(Docs, 0);
    std::vector<uint64_t> Version(Docs, 0);

    auto Issue = [&](unsigned K) -> bool {
      CallerState &C = Cs[K];
      for (size_t Tries = 0; Tries != C.Docs.size(); ++Tries) {
        unsigned D = C.Docs[C.Rr];
        C.Rr = (C.Rr + 1) % C.Docs.size();
        if (NextOp[D] == Plans[D].size())
          continue;
        const Op &Next = Plans[D][NextOp[D]];
        C.Cur = D;
        Slot &S = Slots[D + 1];
        S = Slot();
        S.Req = ++Out.Attempted;
        S.Issued = Clock::now();
        auto Done = [&, K](Response Rsp) {
          Completion Cm{K, std::move(Rsp), Clock::now()};
          std::lock_guard<std::mutex> Lock(QMu);
          Queue.push_back(std::move(Cm));
          QCv.notify_one();
        };
        if (Next.Rollback)
          Svc.rollbackCb(D + 1, Done);
        else
          Svc.submitCb(D + 1, Builder(Next.Text, &S), 0, Next.Text->size(),
                       false, authorOf(D), Version[D], Done);
        return true;
      }
      return false;
    };

    std::vector<const std::string *> Submitted;
    auto L0 = Clock::now();
    unsigned InFlight = 0;
    for (unsigned K = 0; K != Callers; ++K)
      InFlight += Issue(K) ? 1 : 0;
    while (InFlight != 0) {
      Completion Cm;
      {
        std::unique_lock<std::mutex> Lock(QMu);
        QCv.wait(Lock, [&] { return !Queue.empty(); });
        Cm = std::move(Queue.front());
        Queue.pop_front();
      }
      --InFlight;
      unsigned D = Cs[Cm.Caller].Cur;
      const Op &Done = Plans[D][NextOp[D]];
      ++NextOp[D];
      Slot &S = Slots[D + 1];
      double Ms = msBetween(S.Issued, Cm.At);
      uint64_t Want = Done.Rollback ? Version[D] - 1 : Version[D] + 1;
      if (!Cm.R.Ok || Cm.R.Version != Want) {
        Out.fail("doc " + std::to_string(D + 1) + ": " +
                 (Cm.R.Ok ? "unexpected version" : Cm.R.Error));
      } else {
        Version[D] = Want;
        ++RS.Commits;
        RS.Ends.push_back(Cm.At);
        if (!Done.Rollback) {
          ++RS.Submits;
          RS.Edits.push_back(static_cast<double>(Cm.R.EditCount));
          RS.ScriptBytes += Cm.R.Payload.size();
          RS.SubmitMs.push_back(Ms);
          if (!Sched.warmup())
            (Traced ? TracedSubmitMs : PlainSubmitMs).push_back(Ms);
          if (!Sched.warmup() && !Traced)
            BestSubmit.add(D * PlanLen + NextOp[D] - 1, Ms,
                           static_cast<double>(Size[D] + Cm.R.TreeSize));
        }
        Size[D] = Cm.R.TreeSize;
      }
      if (Traced) {
        uint64_t Req = S.Req;
        int32_t Root = T.add(Done.Rollback ? "op.rollback" : "op.submit",
                             S.Issued, Cm.At, -1, Req);
        if (!Done.Rollback) {
          T.add("service.queue", S.Issued, S.BuildStart, Root, Req);
          int32_t B = T.add("service.build", S.BuildStart, S.BuildEnd, Root,
                            Req);
          T.add("python.parse", S.BuildStart, S.BuildEnd, B, Req);
          T.add("service.commit", S.BuildEnd, S.A, Root, Req);
          ParsedNodes += static_cast<double>(S.ParsedNodes);
          ++TracedSubmits;
        }
        T.add("persist.wal", S.A, S.Durable, Root, Req);
        T.add("blame.fold", S.B, S.C, Root, Req);
        T.add("service.respond", S.C, Cm.At, Root, Req);
      }
      if (Traced && !Done.Rollback)
        Submitted.push_back(Done.Text);
      InFlight += Issue(Cm.Caller) ? 1 : 0;
    }
    if (!Sched.warmup() && !Traced)
      addSegments(BestSeg, RS.Ends, L0, SegmentsPerRound);

    // Probes after the load, so that they do not change its timing:
    // allocation plus Step-1 hashing of every submitted tree (deepCopy),
    // and hashing alone (refreshDerived).
    for (const std::string *Text : Submitted) {
      TreeContext Scratch(Sig);
      python::PyParseResult PR = python::parsePython(Scratch, *Text);
      if (!PR.ok())
        continue;
      Tree *Copy;
      {
        ScopedSpan Sp(T, "tree.build", -1, 0);
        Copy = Scratch.deepCopy(PR.Module);
      }
      ScopedSpan Sp(T, "tree.hash", -1, 0);
      Copy->refreshDerived(Sig, Scratch.digestPolicy());
    }

    // Final texts against the generator's.
    for (unsigned D = 0; D != Docs; ++D) {
      DocumentSnapshot Snap = Store.snapshot(D + 1);
      if (!Snap.Ok || Snap.Text != Expected[D])
        Out.fail("doc " + std::to_string(D + 1) +
                 ": final text differs from the generator's");
    }

    // Restart: drain, close, recover into a fresh store.
    Svc.shutdown();
    std::vector<std::string> Live(Docs);
    for (unsigned D = 0; D != Docs; ++D)
      Live[D] = Store.snapshot(D + 1).UriText;
    StoreStats SS = Store.stats();
    persist::Persistence::Stats PS = Stack->P->stats();
    Stack->P.reset();
    if (O.Inject == Fault::DroppedRecord && !dropLastRecord(Dir))
      Out.failRun("could not cut the WAL tail");
    for (unsigned I = 0; I != RecoveriesPerRound; ++I) {
      DocumentStore Fresh(Sig);
      blame::ProvenanceIndex FreshProv;
      ++Out.Attempted;
      auto R0 = Clock::now();
      int32_t Rec = T.open("op.recover", -1, 0);
      persist::RecoveryResult RR;
      {
        ScopedSpan Sp(T, "persist.recover", Rec, 0);
        RR = persist::Persistence::recover(Sig, Dir, Fresh, &FreshProv);
      }
      T.close(Rec);
      double Ms = msBetween(R0, Clock::now());
      if (!Sched.warmup() && !Traced)
        BestRec.add(I, Ms, static_cast<double>(RR.NodesRestored));
      bool Same = RR.DocsRecovered == Docs;
      for (unsigned D = 0; Same && D != Docs; ++D)
        Same = Fresh.snapshot(D + 1).UriText == Live[D];
      if (!Same)
        Out.fail("recovered store differs from the live store");
      if (Traced)
        RecoverMsTraced.push_back(Ms);
    }
    Stack.reset();
    removeDataDir(Dir);

    if (Traced) {
      ++TracedRounds;
      WalBytes += PS.Wal.Bytes;
      WalRecords += PS.Wal.Records;
      Fsyncs += PS.Wal.Fsyncs;
      Snapshots += PS.SnapshotsWritten;
      Rehashed += SS.NodesRehashed;
      CacheSaved += SS.NodesDigestCacheSaved;
    }
    if (!Sched.warmup())
      Rounds.push_back(std::move(RS));
    if (!Sched.advance())
      break;
  }
  if (O.Trace && !O.SpansPath.empty())
    T.writeJsonLines(O.SpansPath, O.Workload);

  // Latency percentiles printed for people pool every measured round;
  // the gated timings are the fastest of each operation (see BestOf).
  std::vector<double> Setup, Lat, EditsPerSubmit;
  uint64_t Submits = 0, Bytes = 0;
  for (const RoundStats &RS : Rounds) {
    append(Lat, RS.SubmitMs);
    append(EditsPerSubmit, RS.Edits);
    append(Setup, RS.SetupS);
    Submits += RS.Submits;
    Bytes += RS.ScriptBytes;
  }
  double PerSubmit = Submits == 0 ? 1.0 : static_cast<double>(Submits);
  Out.Detail.push_back({"host_kernel_ms", Host.bestMs(), "ms"});
  Out.Detail.push_back({"host_slowdown", Host.slowdown(), "x"});
  Out.Detail.push_back({"rounds", static_cast<double>(Rounds.size()), "count"});
  Out.Detail.push_back({"op_ms_samples", static_cast<double>(Lat.size()),
                        "count"});
  // Tail percentiles are printed, not gated: on a shared machine their
  // spread from run to run exceeds any useful bound (see README).
  Out.Detail.push_back({"op_ms_p50_all_rounds", quantile(Lat, 0.5), "ms"});
  Out.Detail.push_back({"op_ms_p90", quantile(Lat, 0.90), "ms"});
  Out.Detail.push_back({"op_ms_p99", quantile(Lat, 0.99), "ms"});
  Out.Detail.push_back(
      {"commits_per_round",
       static_cast<double>(Rounds.empty() ? 0 : Rounds[0].Commits), "count"});

  if (!O.Trace) {
    // Timings at the reference host speed (see HostSpeed).
    double Slow = Host.slowdown();
    Out.Metrics = {
        {"nodes_per_ms", BestSubmit.workPerMs() * Slow, "nodes/ms"},
        {"edits_per_diff", median(EditsPerSubmit), "count"},
        {"ops_per_s", BestSeg.workPerMs() * 1000.0 * Slow, "1/s"},
        {"op_ms_p50", BestSubmit.medianMs() / Slow, "ms"},
        {"recover_nodes_per_ms", BestRec.workPerMs() * Slow, "nodes/ms"},
        {"setup_s", median(Setup) / Slow, "s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
    };
    return Out;
  }

  Tracer::Summary S = T.summarize();
  double Subs = TracedSubmits == 0 ? 1.0 : static_cast<double>(TracedSubmits);
  double Ops = static_cast<double>(S.get("op.submit").DurationsMs.size() +
                                   S.get("op.rollback").DurationsMs.size());
  Ops = Ops == 0 ? 1.0 : Ops;
  double PerRound = TracedRounds == 0 ? 1.0 : TracedRounds;
  double BuildProbe = S.get("tree.build").TotalMs;
  double Parse = S.get("python.parse").TotalMs;
  const std::vector<double> &Queue = S.get("service.queue").DurationsMs;
  emitPerLayer(
      Out,
      {
          {"python.parse_ms", std::max(0.0, Parse - BuildProbe) / Subs},
          {"python.nodes_per_ms", ParsedNodes / Parse},
          {"tree.build_ms", BuildProbe / Subs},
          {"tree.hash_ms", S.get("tree.hash").TotalMs / Subs},
          {"truediff.nodes_rehashed", static_cast<double>(Rehashed) / Subs},
          {"truechange.script_bytes", static_cast<double>(Bytes) / PerSubmit},
          {"service.queue_wait_ms_p50", quantile(Queue, 0.5)},
          {"service.queue_wait_ms_p99", quantile(Queue, 0.99)},
          {"service.build_ms", S.get("service.build").TotalMs / Subs},
          {"service.commit_ms", S.get("service.commit").TotalMs / Subs},
          {"service.digest_cache_saved_nodes",
           static_cast<double>(CacheSaved) / Subs},
          {"blame.fold_ms", S.get("blame.fold").TotalMs / Ops},
          {"persist.wal_ms", S.get("persist.wal").TotalMs / Ops},
          {"persist.fsyncs", static_cast<double>(Fsyncs) / PerRound},
          {"persist.wal_bytes_per_commit",
           static_cast<double>(WalBytes) /
               static_cast<double>(WalRecords == 0 ? 1 : WalRecords)},
          {"persist.snapshots_written",
           static_cast<double>(Snapshots) / PerRound},
          {"persist.recover_ms", median(RecoverMsTraced)},
          {"trace.overhead_pct",
           PlainSubmitMs.empty()
               ? 0
               : (mean(TracedSubmitMs) / mean(PlainSubmitMs) - 1.0) * 100.0},
      });
  return Out;
}

} // namespace perfbench
