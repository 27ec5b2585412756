//===- perfbench/src/CorpusDiff.cpp - The library path of Fig. 5 ----------===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// corpus_diff: one thread diffs a seeded commit corpus through the
/// library -- parse both texts, TrueDiff::compareTo, type-check the
/// script, serialize it -- and then restores each target from its source
/// and the serialized script (parse the script, MTree::fromTree,
/// MTree::patchChecked), the consumer side of a shipped diff. No service,
/// persistence, replica or network code runs.
///
/// The corpus mixes the default ~1.2k-node modules with a few mutation
/// chains over modules of tens to hundreds of thousands of nodes, whose
/// trees do not fit the CPU caches.
///
/// Every script is checked against results computed apart from the
/// differ: it must be well-typed (Conjecture 4.2); patching an MTree of
/// an independent parse of the source must give a tree equal, modulo
/// URIs, to an independent parse of the target (Conjecture 4.3); and
/// patching with the inverted script must give the source back
/// (Theorem 3.8).
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "python/Python.h"
#include "truechange/Inverse.h"
#include "truechange/MTree.h"
#include "truechange/Serialize.h"
#include "truechange/TypeChecker.h"
#include "truediff/TrueDiff.h"

#include <cstdio>

using namespace truediff;

namespace perfbench {

namespace {

struct Pair {
  const std::string *Before;
  const std::string *After;
};

/// How many times a run generates the corpus; setup_s is the median.
constexpr unsigned SetupRuns = 3;

struct RoundStats {
  uint64_t Pairs = 0;
  uint64_t ScriptBytes = 0;
  /// Per pair: latency and edits.
  std::vector<double> OpLatMs, Edits;
};

Tree *parseOrNull(TreeContext &Ctx, const std::string &Src) {
  python::PyParseResult P = python::parsePython(Ctx, Src);
  return P.Module;
}

EditScript dropOneEdit(const EditScript &S) {
  std::vector<Edit> Edits = S.edits();
  if (!Edits.empty())
    Edits.erase(Edits.begin() + static_cast<long>(Edits.size() / 2));
  return EditScript(std::move(Edits));
}

/// Checks the restored tree \p M -- an MTree of an independent parse of
/// the source, patched with the deserialized script -- against an
/// independent parse of the target, then patches it with the inverted
/// script and compares it with the source. Returns an empty string when
/// every check passes.
std::string checkRestored(const SignatureTable &Sig, MTree &M,
                          const EditScript &Script, const Tree *Source,
                          const std::string &After) {
  TreeContext TgtCtx(Sig);
  Tree *Tgt = parseOrNull(TgtCtx, After);
  if (Tgt == nullptr)
    return "independent parse of the target failed";
  if (!M.isClosedWellFormed() || !M.equalsTree(Tgt))
    return "patched source differs from the target (Conjecture 4.3)";
  MTree::PatchResult Back = M.patchChecked(invertScript(Script));
  if (!Back.Ok || !M.equalsTree(Source))
    return "inverse script does not restore the source (Theorem 3.8)";
  return std::string();
}

} // namespace

RunResult runCorpusDiff(const Options &O) {
  SignatureTable Sig = python::makePythonSignature();
  Tracer T;
  RunResult R;
  std::vector<RoundStats> Rounds;
  std::vector<double> TracedOpMs, PlainOpMs;
  // Per pair, over the untraced measured rounds: the fastest diff (work:
  // source plus target nodes) and the fastest restore (restored nodes).
  BestOf BestOp, BestRec;
  uint64_t Rehashed = 0, TracedPairs = 0, TracedNodes = 0;

  // Set-up, several times: generating the seeded corpus text. The last
  // corpus serves every round, so rounds are short and each pair is
  // timed in many of them.
  std::vector<double> Setup;
  std::vector<Chain> Chains;
  for (unsigned K = 0; K != (O.Small ? 1 : SetupRuns); ++K) {
    auto S0 = Clock::now();
    Chains = corpusDiffChains(O.Seed, O.Small);
    Setup.push_back(msBetween(S0, Clock::now()) / 1000.0);
  }
  std::vector<Pair> Pairs;
  for (const Chain &C : Chains) {
    const std::string *Prev = &C.Base;
    for (const std::string &Next : C.Commits) {
      Pairs.push_back(Pair{Prev, &Next});
      Prev = &Next;
    }
  }

  HostSpeed Host;
  for (RoundSchedule Sched(O, Host);;) {
    bool Traced = Sched.traced();
    T.setOn(Traced);
    RoundStats RS;

    for (size_t I = 0; I != Pairs.size(); ++I) {
      const Pair &P = Pairs[I];
      uint64_t Req = I + 1;
      ++R.Attempted;
      TreeContext Ctx(Sig);
      auto T0 = Clock::now();
      int32_t OpSpan = T.open("op.pair", -1, Req);
      Tree *Src, *Dst;
      {
        ScopedSpan Sp(T, "python.parse", OpSpan, Req);
        Src = parseOrNull(Ctx, *P.Before);
        Dst = parseOrNull(Ctx, *P.After);
      }
      if (Src == nullptr || Dst == nullptr) {
        T.close(OpSpan);
        R.fail("corpus text does not parse");
        continue;
      }
      uint64_t Nodes = Src->size() + Dst->size();
      DiffResult D;
      {
        ScopedSpan Sp(T, "truediff.diff", OpSpan, Req);
        D = TrueDiff(Ctx).compareTo(Src, Dst);
      }
      TypeCheckResult WT;
      {
        ScopedSpan Sp(T, "truechange.typecheck", OpSpan, Req);
        WT = LinearTypeChecker(Sig).checkWellTyped(D.Script);
      }
      std::string Text;
      {
        ScopedSpan Sp(T, "truechange.serialize", OpSpan, Req);
        Text = serializeEditScript(Sig, D.Script);
      }
      T.close(OpSpan);
      double OpMs = msBetween(T0, Clock::now());

      if (Traced) {
        // Probes outside the op: what allocation plus Step-1 hashing of
        // trees this size cost (deepCopy), and hashing alone
        // (refreshDerived). Parsing builds hashed nodes inline, so the
        // parser's own share is python.parse minus tree.build.
        TreeContext Scratch(Sig);
        Tree *A, *B;
        {
          ScopedSpan Sp(T, "tree.build", -1, Req);
          A = Scratch.deepCopy(Dst);
          B = Scratch.deepCopy(D.Patched);
        }
        {
          ScopedSpan Sp(T, "tree.hash", -1, Req);
          A->refreshDerived(Sig, Scratch.digestPolicy());
          B->refreshDerived(Sig, Scratch.digestPolicy());
        }
        Rehashed += D.NodesRehashed;
        ++TracedPairs;
        TracedNodes += Nodes;
      }

      // Restore the target from the stored source -- an independent
      // parse in a fresh context, which hands out URIs in the same order
      // as the differ's context did -- and the shipped script.
      if (O.Inject == Fault::TamperedScript && I == 0)
        Text = serializeEditScript(Sig, dropOneEdit(D.Script));
      TreeContext StoredCtx(Sig);
      Tree *Stored = parseOrNull(StoredCtx, *P.Before);
      auto R0 = Clock::now();
      int32_t RecSpan = T.open("op.recover", -1, Req);
      ParseScriptResult PS;
      {
        ScopedSpan Sp(T, "truechange.deserialize", RecSpan, Req);
        PS = parseEditScript(Sig, Text);
      }
      MTree M = MTree::fromTree(Sig, Stored);
      MTree::PatchResult PR;
      {
        ScopedSpan Sp(T, "truechange.patch", RecSpan, Req);
        PR = M.patchChecked(PS.Script);
      }
      T.close(RecSpan);
      double RecMs = msBetween(R0, Clock::now());

      // Checks, untimed.
      std::string Why;
      if (!WT.Ok)
        Why = "script not well-typed (Conjecture 4.2): " + WT.Error;
      else if (!PS.Ok)
        Why = "serialized script does not parse: " + PS.Error;
      else if (!PR.Ok)
        Why = "script does not patch the source: " + PR.Error;
      else
        Why = checkRestored(Sig, M, PS.Script, Stored, *P.After);
      if (!Why.empty()) {
        R.fail("pair " + std::to_string(I) + ": " + Why);
        continue;
      }

      RS.OpLatMs.push_back(OpMs);
      RS.Edits.push_back(static_cast<double>(D.Script.size()));
      if (!Traced && !Sched.warmup()) {
        BestOp.add(I, OpMs, static_cast<double>(Nodes));
        BestRec.add(I, RecMs, static_cast<double>(D.Patched->size()));
      }
      RS.ScriptBytes += Text.size();
      ++RS.Pairs;
      if (!Sched.warmup())
        (Traced ? TracedOpMs : PlainOpMs).push_back(OpMs);
    }
    if (!Sched.warmup())
      Rounds.push_back(std::move(RS));
    if (!Sched.advance())
      break;
  }
  if (O.Trace && !O.SpansPath.empty())
    T.writeJsonLines(O.SpansPath, O.Workload);

  // Latency percentiles printed for people pool every measured round;
  // the gated timings are the fastest of each pair (see BestOf).
  std::vector<double> Lat, EditsPerPair;
  uint64_t Diffed = 0, Bytes = 0;
  for (const RoundStats &RS : Rounds) {
    append(Lat, RS.OpLatMs);
    append(EditsPerPair, RS.Edits);
    Diffed += RS.Pairs;
    Bytes += RS.ScriptBytes;
  }
  double Denom = Diffed == 0 ? 1.0 : static_cast<double>(Diffed);
  R.Detail.push_back({"host_kernel_ms", Host.bestMs(), "ms"});
  R.Detail.push_back({"host_slowdown", Host.slowdown(), "x"});
  R.Detail.push_back({"rounds", static_cast<double>(Rounds.size()), "count"});
  R.Detail.push_back({"op_ms_samples", static_cast<double>(Lat.size()),
                      "count"});
  // Tail percentiles are printed, not gated: on a shared machine their
  // spread from run to run exceeds any useful bound (see README).
  R.Detail.push_back({"op_ms_p50_all_rounds", quantile(Lat, 0.5), "ms"});
  R.Detail.push_back({"op_ms_p90", quantile(Lat, 0.90), "ms"});
  R.Detail.push_back({"op_ms_p99", quantile(Lat, 0.99), "ms"});
  R.Detail.push_back({"pairs_per_round", static_cast<double>(
                                             Rounds.empty() ? 0
                                                            : Rounds[0].Pairs),
                      "count"});

  if (!O.Trace) {
    // Timings at the reference host speed (see HostSpeed).
    double Slow = Host.slowdown();
    R.Metrics = {
        {"nodes_per_ms", BestOp.workPerMs() * Slow, "nodes/ms"},
        {"edits_per_diff", median(EditsPerPair), "count"},
        {"ops_per_s", BestOp.opsPerS() * Slow, "1/s"},
        {"op_ms_p50", BestOp.medianMs() / Slow, "ms"},
        {"recover_nodes_per_ms", BestRec.workPerMs() * Slow, "nodes/ms"},
        {"setup_s", median(Setup) / Slow, "s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
    };
    return R;
  }

  Tracer::Summary S = T.summarize();
  double Ops = TracedPairs == 0 ? 1.0 : static_cast<double>(TracedPairs);
  double ProbeBuildMs = S.get("tree.build").TotalMs;
  double ProbeHashMs = S.get("tree.hash").TotalMs;
  double ParseMs = S.get("python.parse").TotalMs;
  double Overhead =
      PlainOpMs.empty() ? 0
                        : (mean(TracedOpMs) / mean(PlainOpMs) - 1.0) * 100.0;
  emitPerLayer(
      R, {
             {"python.parse_ms", std::max(0.0, ParseMs - ProbeBuildMs) / Ops},
             {"python.nodes_per_ms",
              static_cast<double>(TracedNodes) / ParseMs},
             {"tree.build_ms", ProbeBuildMs / Ops},
             {"tree.hash_ms", ProbeHashMs / Ops},
             {"truediff.diff_ms", S.get("truediff.diff").SelfMs / Ops},
             {"truediff.nodes_rehashed", static_cast<double>(Rehashed) / Ops},
             {"truechange.typecheck_ms",
              S.get("truechange.typecheck").SelfMs / Ops},
             {"truechange.serialize_ms",
              S.get("truechange.serialize").SelfMs / Ops},
             {"truechange.script_bytes", static_cast<double>(Bytes) / Denom},
             {"truechange.patch_ms", S.get("truechange.patch").SelfMs / Ops},
             {"trace.overhead_pct", Overhead},
         });
  return R;
}

} // namespace perfbench
