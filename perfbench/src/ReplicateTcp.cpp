//===- perfbench/src/ReplicateTcp.cpp - Replicated reads over TCP ---------===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// replicate_tcp: read-heavy serving over loopback. An in-process leader
/// (NetServer, ServiceHandler, ReplicationLog and Leader, 1 service
/// worker, no persistence) and one follower with its own read endpoint.
/// Set-up starts both, completes the replication handshake and opens
/// every document. The load is one closed-loop generator thread with two
/// ResilientClient connections: mostly reads, split between the
/// follower's read endpoint and the leader, beside a trickle of
/// version-CAS submits to the leader and health probes. After each
/// submit's ack the generator waits until the follower's lastSeq()
/// covers it (read-your-writes through the follower), so every follower
/// read sees the latest version. At the end a fresh follower joins
/// further behind than the leader's 1024-record tail ring reaches, which
/// forces snapshot catch-up, and the time until it is caught up is
/// measured.
///
/// Documents are small generated modules (~400 nodes), so the framing,
/// event loop, follower apply and read materialisation (MTree -> Tree ->
/// render -> SHA-256) dominate rather than parsing and diffing.
///
/// Checks: every read at version v renders the s-expression the
/// generator submitted as version v, and at the end both followers'
/// SHA-256 digests and URI renderings equal the leader's for every
/// document.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "client/Client.h"
#include "net/NetServer.h"
#include "net/ServiceHandler.h"
#include "python/Python.h"
#include "replica/Follower.h"
#include "replica/Leader.h"
#include "replica/ReplicationLog.h"
#include "service/DiffService.h"
#include "support/Rng.h"
#include "support/Sha256.h"
#include "tree/SExpr.h"
#include "truechange/Serialize.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <cstdio>
#include <thread>

using namespace truediff;
using namespace truediff::service;

namespace perfbench {

namespace {

/// Documents of one size class (~400 nodes), so read latency and its
/// tail do not hinge on which seed drew the largest module.
constexpr unsigned NumDocs = 32;
constexpr uint64_t DocNodes = 400;
/// Submits per round: with the opens, the log ends ~1.5x past the tail
/// ring, so the fresh follower cannot be served from the ring.
constexpr unsigned WritesPerDoc = 48;
/// Op mix per 100: reads (two thirds to the follower, one third to the
/// leader), submits, health probes. A follower read costs about twice a
/// leader read, so with an even split the median read latency fell in
/// the gap between the two and moved with the slowest leader read and
/// the fastest follower read; with two thirds it falls among follower
/// reads.
constexpr unsigned ReadPct = 78, WritePct = 18;
constexpr double ApplyWaitLimitMs = 10000;
/// Set-ups and fresh-follower catch-ups per round; setup_s is the median
/// over all set-ups, which steadies this short timing. A round's load is
/// cut into segments of consecutive reads for ops_per_s (see BestOf).
constexpr unsigned SetupsPerRound = 5;
constexpr unsigned CatchupsPerRound = 8;
constexpr unsigned SegmentsPerRound = 16;

enum class Kind { ReadFollower, ReadLeader, Write, Health };

struct Op {
  Kind K = Kind::ReadFollower;
  unsigned Doc = 0;
};

/// Which op span the single in-flight request belongs to, for spans
/// recorded inside the servers.
struct Current {
  std::atomic<int32_t> Span{-1};
  std::atomic<uint64_t> Req{0};
};

/// Times a server's handling of get requests, from the handler's entry
/// to its reply -- the callback seam NetServer offers.
class TimedHandler : public net::RequestHandler {
public:
  TimedHandler(net::RequestHandler &Inner, Tracer &T, const Current &Cur,
               const char *Name)
      : Inner(Inner), T(T), Cur(Cur), Name(Name) {}

  void handle(net::NetRequest Req,
              std::function<void(Response)> Done) override {
    if (!T.on() || Req.Cmd.K != WireCommand::Kind::Get) {
      Inner.handle(std::move(Req), std::move(Done));
      return;
    }
    auto T0 = Clock::now();
    int32_t Parent = Cur.Span.load();
    uint64_t Id = Cur.Req.load();
    Inner.handle(std::move(Req),
                 [this, T0, Parent, Id, Done = std::move(Done)](Response R) {
                   T.add(Name, T0, Clock::now(), Parent, Id);
                   Done(std::move(R));
                 });
  }

private:
  net::RequestHandler &Inner;
  Tracer &T;
  const Current &Cur;
  const char *Name;
};

/// One follower replica: its loop, the replica and a TCP read endpoint.
struct FollowerNode {
  net::EventLoop Loop;
  replica::Follower F;
  replica::ReplicaReadHandler H;
  TimedHandler Timed;
  net::NetServer Read;

  FollowerNode(const SignatureTable &Sig, Tracer &T, const Current &Cur)
      : F(Loop, Sig), H(F), Timed(H, T, Cur, "replica.read"),
        Read(Loop, Sig, Timed) {}
  ~FollowerNode() {
    F.disconnect();
    Loop.stop();
  }
  FollowerNode(const FollowerNode &) = delete;
  FollowerNode &operator=(const FollowerNode &) = delete;
  bool start(uint16_t LeaderPort) {
    Loop.start();
    return Read.start() && F.connectTo("127.0.0.1", LeaderPort);
  }
};

ServiceConfig oneWorker() {
  ServiceConfig C;
  C.Workers = 1;
  return C;
}

/// The leader: store, replication log and endpoint, a 1-worker service
/// and its TCP front end, all on one event loop.
struct LeaderNode {
  DocumentStore Store;
  replica::ReplicationLog Log;
  net::EventLoop Loop;
  replica::Leader Lead;
  DiffService Svc;
  net::ServiceHandler Handler;
  TimedHandler Timed;
  net::NetServer Front;
  bool Up = false;

  LeaderNode(const SignatureTable &Sig, Tracer &T, const Current &Cur)
      : Store(Sig), Log(Store), Lead(Loop, Log, replica::Leader::Config()),
        Svc(Store, oneWorker()), Handler(Svc),
        Timed(Handler, T, Cur, "service.get"), Front(Loop, Sig, Timed) {
    Log.attach();
    Up = Lead.start() && Front.start();
    Loop.start();
  }
  ~LeaderNode() {
    Svc.shutdown();
    Loop.stop(); // before the NetServer and Leader are destroyed
  }
  LeaderNode(const LeaderNode &) = delete;
  LeaderNode &operator=(const LeaderNode &) = delete;
};

std::string endpoint(uint16_t Port) {
  return "127.0.0.1:" + std::to_string(Port);
}

std::string chomp(std::string S) {
  while (!S.empty() && S.back() == '\n')
    S.pop_back();
  return S;
}

std::string sexprOf(const SignatureTable &Sig, const std::string &Src) {
  TreeContext Ctx(Sig);
  python::PyParseResult P = python::parsePython(Ctx, Src);
  return P.ok() ? printSExpr(Sig, P.Module) : std::string();
}

/// Spins until \p F covers \p Seq; returns false after the limit.
bool waitCovered(const replica::Follower &F, uint64_t Seq, double LimitMs) {
  auto T0 = Clock::now();
  while (F.lastSeq() < Seq) {
    if (msBetween(T0, Clock::now()) > LimitMs)
      return false;
    std::this_thread::yield();
  }
  return true;
}

struct RoundStats {
  std::vector<double> SetupS;
  uint64_t Writes = 0;
  uint64_t ScriptBytes = 0;
  /// Per read: latency and its end, in completion order; per submit:
  /// edits.
  std::vector<double> ReadMs, Edits;
  std::vector<Clock::time_point> Ends;
};

} // namespace

RunResult runReplicateTcp(const Options &O) {
  SignatureTable Sig = python::makePythonSignature();
  unsigned Docs = O.Small ? 4 : NumDocs;
  unsigned PerDoc = O.Small ? 6 : WritesPerDoc;
  std::vector<Chain> Chains =
      sizedChains(O.Seed, std::vector<uint64_t>(Docs, DocNodes), PerDoc);

  // Versions as the generator submits them (s-expressions): Texts[d][v].
  std::vector<std::vector<std::string>> Texts(Docs);
  for (unsigned D = 0; D != Docs; ++D) {
    Texts[D].push_back(sexprOf(Sig, Chains[D].Base));
    for (const std::string &C : Chains[D].Commits)
      Texts[D].push_back(sexprOf(Sig, C));
  }
  std::vector<std::vector<std::string>> Expect = Texts;
  if (O.Inject == Fault::WrongText)
    for (std::string &S : Expect[0])
      S += " ";

  // The op sequence: fixed numbers of each kind -- every document's
  // commits, reads and health probes -- in a seeded order, so every seed
  // does the same amount of each.
  unsigned WriteOps = Docs * PerDoc;
  unsigned Total = WriteOps * 100 / WritePct;
  unsigned ReadOps = Total * ReadPct / 100;
  std::vector<Op> Ops;
  for (unsigned D = 0; D != Docs; ++D)
    for (unsigned C = 0; C != PerDoc; ++C)
      Ops.push_back(Op{Kind::Write, D});
  for (unsigned I = 0; I != ReadOps; ++I)
    Ops.push_back(Op{I % 3 != 2 ? Kind::ReadFollower : Kind::ReadLeader, 0});
  while (Ops.size() != Total)
    Ops.push_back(Op{Kind::Health, 0});
  Rng R(O.Seed * 0xd6e8feb86659fd93ull + 4);
  for (size_t I = Ops.size() - 1; I != 0; --I)
    std::swap(Ops[I], Ops[R.below(I + 1)]);
  for (Op &P : Ops)
    if (P.K != Kind::Write)
      P.Doc = static_cast<unsigned>(R.below(Docs));

  Tracer T;
  Current Cur;
  RunResult Out;
  std::vector<RoundStats> Rounds;
  std::vector<double> TracedReadMs, PlainReadMs, ApplyLag, WriteRtt,
      HealthRtt, CatchupTraced, CatchupMs;
  // Over the untraced measured rounds: the fastest time of each read
  // (keyed by its place in the op sequence; work: nodes rendered), of each
  // load segment (work: reads) and of each catch-up (work: the leader's
  // nodes).
  BestOf BestRead, BestSeg, BestCatch;
  uint64_t RecordsApplied = 0, SnapshotsInstalled = 0, Requests = 0,
           Attempts = 0;

  // Every thread of the workload -- the generator, the leader's loop and
  // worker, the followers' loops, all started from this thread and so
  // inheriting its mask -- runs on one CPU. Hand-offs between them are
  // then context switches on that CPU rather than wake-ups of idle vCPUs,
  // whose cost varied so much from run to run that no figure held
  // steady (see README). The closed loop never overlaps a read with a
  // follower's apply, so one CPU hides no parallelism the load has.
  PinScope Workload;
  HostSpeed Host;
  for (RoundSchedule Sched(O, Host);;) {
    bool Traced = Sched.traced();
    T.setOn(Traced);
    RoundStats RS;

    // Set-up, several times: the leader, a follower and its handshake,
    // two client connections and every document opened (and applied by
    // the follower). The last set-up serves the load.
    std::unique_ptr<LeaderNode> Lead;
    std::unique_ptr<FollowerNode> F1;
    std::unique_ptr<client::ResilientClient> CL, CF;
    bool Up = true;
    for (unsigned K = 0; Up && K != SetupsPerRound; ++K) {
      CL.reset();
      CF.reset();
      F1.reset(); // followers go before the leader they follow
      Lead.reset();
      auto S0 = Clock::now();
      Lead = std::make_unique<LeaderNode>(Sig, T, Cur);
      F1 = std::make_unique<FollowerNode>(Sig, T, Cur);
      Up = Lead->Up && F1->start(Lead->Lead.port());
      client::ResilientClient::Config LC, FC;
      LC.Endpoints = {endpoint(Lead->Front.port())};
      FC.Endpoints = {endpoint(F1->Read.port())};
      CL = std::make_unique<client::ResilientClient>(LC);
      CF = std::make_unique<client::ResilientClient>(FC);
      for (unsigned D = 0; Up && D != Docs; ++D)
        Up = CL->open(D + 1, Texts[D][0]).Ok;
      Up = Up && waitCovered(F1->F, Lead->Log.currentSeq(), ApplyWaitLimitMs);
      RS.SetupS.push_back(msBetween(S0, Clock::now()) / 1000.0);
    }
    DocumentStore &Store = Lead->Store;
    replica::ReplicationLog &Log = Lead->Log;
    std::vector<uint64_t> Version(Docs, 0);

    std::vector<unsigned> NextCommit(Docs, 0);
    auto L0 = Clock::now();
    for (size_t I = 0; Up && I != Ops.size(); ++I) {
      const Op &P = Ops[I];
      uint64_t Req = I + 1;
      ++Out.Attempted;
      auto T0 = Clock::now();
      switch (P.K) {
      case Kind::ReadFollower:
      case Kind::ReadLeader: {
        bool ToFollower = P.K == Kind::ReadFollower;
        int32_t Span = T.open(ToFollower ? "op.read_follower" : "op.read_leader",
                              -1, Req);
        Cur.Span.store(Span);
        Cur.Req.store(Req);
        client::ResilientClient::Result Rs =
            ToFollower ? CF->get(P.Doc + 1) : CL->get(P.Doc + 1);
        T.close(Span);
        double Ms = msBetween(T0, Clock::now());
        if (!Rs.Ok || Rs.Version >= Expect[P.Doc].size() ||
            chomp(Rs.Payload) != Expect[P.Doc][Rs.Version]) {
          Out.fail("doc " + std::to_string(P.Doc + 1) + ": read at version " +
                   std::to_string(Rs.Version) + " renders another text");
          break;
        }
        RS.Ends.push_back(Clock::now());
        RS.ReadMs.push_back(Ms);
        if (!Sched.warmup() && !Traced)
          BestRead.add(I, Ms,
                       static_cast<double>(std::count(
                           Rs.Payload.begin(), Rs.Payload.end(), '(')));
        if (!Sched.warmup())
          (Traced ? TracedReadMs : PlainReadMs).push_back(Ms);
        break;
      }
      case Kind::Write: {
        unsigned C = ++NextCommit[P.Doc];
        int32_t Span = T.open("op.write", -1, Req);
        client::ResilientClient::Result Rs =
            CL->submit(P.Doc + 1, Texts[P.Doc][C]);
        T.close(Span);
        auto Ack = Clock::now();
        if (!Rs.Ok || Rs.Version != Version[P.Doc] + 1) {
          Out.fail("doc " + std::to_string(P.Doc + 1) + ": submit failed: " +
                   Rs.Error);
          break;
        }
        Version[P.Doc] = Rs.Version;
        ParseScriptResult PS = parseEditScript(Sig, Rs.Payload);
        RS.Edits.push_back(static_cast<double>(PS.Script.size()));
        RS.ScriptBytes += Rs.Payload.size();
        ++RS.Writes;
        int32_t Lag = T.open("replica.apply_lag", -1, Req);
        bool Covered = waitCovered(F1->F, Log.currentSeq(), ApplyWaitLimitMs);
        T.close(Lag);
        if (!PS.Ok || !Covered) {
          Out.fail("doc " + std::to_string(P.Doc + 1) +
                   (PS.Ok ? ": follower never applied the submit"
                          : ": submit answered an unreadable script"));
          break;
        }
        if (Traced) {
          WriteRtt.push_back(msBetween(T0, Ack));
          ApplyLag.push_back(msBetween(Ack, Clock::now()));
        }
        break;
      }
      case Kind::Health: {
        int32_t Span = T.open("op.health", -1, Req);
        client::ResilientClient::Result Rs = CL->health();
        T.close(Span);
        if (!Rs.Ok) {
          Out.fail("health request failed: " + Rs.Error);
          break;
        }
        if (Traced)
          HealthRtt.push_back(msBetween(T0, Clock::now()));
        break;
      }
      }
    }
    if (!Sched.warmup() && !Traced)
      addSegments(BestSeg, RS.Ends, L0, SegmentsPerRound);
    if (!Up)
      Out.fail("leader or follower failed to start");

    // Catch-up: fresh followers far behind the tail ring, one after the
    // other; the round reports the median. The last one stays for the
    // convergence check.
    uint64_t Target = Log.currentSeq();
    std::unique_ptr<FollowerNode> F2;
    std::vector<double> Catchups;
    bool CaughtUp = Up;
    for (unsigned C = 0; CaughtUp && C != CatchupsPerRound; ++C) {
      ++Out.Attempted;
      F2 = std::make_unique<FollowerNode>(Sig, T, Cur);
      auto C0 = Clock::now();
      int32_t CSpan = T.open("op.catchup", -1, 0);
      CaughtUp = F2->start(Lead->Lead.port());
      while (CaughtUp && !(F2->F.caughtUp() && F2->F.lastSeq() >= Target)) {
        if (msBetween(C0, Clock::now()) > ApplyWaitLimitMs)
          CaughtUp = false;
        std::this_thread::yield();
      }
      T.close(CSpan);
      Catchups.push_back(msBetween(C0, Clock::now()));
    }
    if (!Sched.warmup() && !Traced)
      for (size_t C = 0; C != Catchups.size(); ++C)
        BestCatch.add(C, Catchups[C],
                      static_cast<double>(Store.stats().LiveNodes));
    if (!Sched.warmup())
      append(CatchupMs, Catchups);
    if (O.Inject == Fault::DivergedReplica)
      F1->F.corruptDocForTest(1);

    // Convergence: both followers render and digest every document
    // exactly as the leader holds it.
    bool Same = CaughtUp;
    for (unsigned D = 0; Same && D != Docs; ++D) {
      DocumentSnapshot Snap = Store.snapshot(D + 1);
      std::string Digest = Sha256::hash(Snap.UriText).toHex();
      for (const FollowerNode *N : {F1.get(), F2.get()}) {
        replica::Follower::ReadResult RR = N->F.read(D + 1);
        Same = Same && Snap.Ok && RR.Ok && RR.DigestHex == Digest &&
               RR.UriText == Snap.UriText;
      }
    }
    if (!Same)
      Out.fail(CaughtUp ? "a follower diverged from the leader"
                        : "the fresh follower never caught up");

    if (Traced) {
      CatchupTraced.insert(CatchupTraced.end(), Catchups.begin(),
                           Catchups.end());
      RecordsApplied += F1->F.stats().RecordsApplied;
      SnapshotsInstalled += F2->F.stats().SnapshotsInstalled;
      Requests += CL->clientStats().Requests + CF->clientStats().Requests;
      Attempts += CL->clientStats().Attempts + CF->clientStats().Attempts;
    }
    F2.reset();
    F1.reset();
    Lead.reset();
    if (!Sched.warmup())
      Rounds.push_back(std::move(RS));
    if (!Sched.advance())
      break;
  }
  if (O.Trace && !O.SpansPath.empty())
    T.writeJsonLines(O.SpansPath, O.Workload);

  // Latency percentiles printed for people pool every measured round;
  // the gated timings are the fastest of each operation (see BestOf).
  std::vector<double> Setup, Lat, EditsPerWrite;
  uint64_t Writes = 0, Bytes = 0;
  for (const RoundStats &RS : Rounds) {
    append(Lat, RS.ReadMs);
    append(EditsPerWrite, RS.Edits);
    append(Setup, RS.SetupS);
    Writes += RS.Writes;
    Bytes += RS.ScriptBytes;
  }
  double PerWrite = Writes == 0 ? 1.0 : static_cast<double>(Writes);
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
      {"ops_per_round", static_cast<double>(Ops.size()), "count"});
  Out.Detail.push_back({"catchup_s", median(CatchupMs) / 1000.0, "s"});

  if (!O.Trace) {
    // Timings at the reference host speed (see HostSpeed).
    double Slow = Host.slowdown();
    Out.Metrics = {
        {"nodes_per_ms", BestRead.workPerMs() * Slow, "nodes/ms"},
        {"edits_per_diff", median(EditsPerWrite), "count"},
        {"ops_per_s", BestSeg.workPerMs() * 1000.0 * Slow, "1/s"},
        {"op_ms_p50", BestRead.medianMs() / Slow, "ms"},
        {"recover_nodes_per_ms", BestCatch.workPerMs() * Slow, "nodes/ms"},
        {"setup_s", median(Setup) / Slow, "s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
    };
    return Out;
  }

  Tracer::Summary S = T.summarize();
  double TracedRounds = static_cast<double>(
      std::max<size_t>(1, CatchupTraced.size() / CatchupsPerRound));
  emitPerLayer(
      Out,
      {
          {"truechange.script_bytes", static_cast<double>(Bytes) / PerWrite},
          {"replica.apply_lag_ms_p50", quantile(ApplyLag, 0.5)},
          {"replica.apply_lag_ms_p99", quantile(ApplyLag, 0.99)},
          {"replica.read_ms", mean(S.get("replica.read").DurationsMs)},
          {"replica.records_applied",
           static_cast<double>(RecordsApplied) / TracedRounds},
          {"replica.snapshots_installed",
           static_cast<double>(SnapshotsInstalled) / TracedRounds},
          {"replica.catchup_ms", mean(CatchupTraced)},
          {"net.health_rtt_ms_p50", quantile(HealthRtt, 0.5)},
          {"net.write_rtt_ms_p50", quantile(WriteRtt, 0.5)},
          {"client.attempts_per_request",
           Requests == 0 ? 0
                         : static_cast<double>(Attempts) /
                               static_cast<double>(Requests)},
          {"trace.overhead_pct",
           PlainReadMs.empty()
               ? 0
               : (mean(TracedReadMs) / mean(PlainReadMs) - 1.0) * 100.0},
      });
  return Out;
}

} // namespace perfbench
