//===- perfbench/src/Bench.h - Shared benchmark harness ---------*- C++-*-===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the three workloads share: options, seeded inputs, the in-memory
/// span recorder, sample statistics and the result every run prints.
///
/// A run repeats one *round* -- a fixed, seeded sequence of operations --
/// until its time is up. Every round of a run does identical work, so
/// counts per operation (edits, script bytes, WAL bytes, records applied)
/// repeat exactly and only times vary.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <mutex>
#include <sched.h>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

/// Which fault the benchmark's own test injects (see --selftest).
enum class Fault {
  None,
  TamperedScript, ///< corpus_diff: one edit of a script is altered
  WrongText,      ///< serve_durable / replicate_tcp: a wrong expected text
  DroppedRecord,  ///< serve_durable: the last WAL record is cut off
  DivergedReplica ///< replicate_tcp: a follower's state is silently changed
};

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Scratch directory for data directories (inside the checkout).
  std::string WorkDir = ".";
  /// Where the traced run writes its spans (JSON lines); empty = nowhere.
  std::string SpansPath;
  Fault Inject = Fault::None;
  /// Selftest: one small round, no timing loop.
  bool Small = false;
};

struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

/// What one run reports. Checks that fail for one operation count it in
/// Failed; run-level checks (recovered store, replica convergence) clear
/// Correct.
struct RunResult {
  bool Correct = true;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<Metric> Metrics;
  /// Extra figures printed before the result line (sample counts,
  /// workload-specific times), as "name": value pairs.
  std::vector<Metric> Detail;
  /// First failed check, for the log.
  std::string FirstFailure;

  void fail(const std::string &What) {
    ++Failed;
    if (FirstFailure.empty())
      FirstFailure = What;
  }
  void failRun(const std::string &What) {
    Correct = false;
    if (FirstFailure.empty())
      FirstFailure = What;
  }
};

/// How fast the host runs a fixed reference kernel, in memory of its own
/// and with no code of the program: a hash walk over a shuffled binary
/// tree (pointer chasing, as the program's tree walks do), then a
/// std::map of 2048 names built, looked up, rendered into one string and
/// freed (allocation, branches and string work, as parsing and rendering
/// do). Sampled at the end of every round; the fastest sample is kept.
///
/// The shared host's speed also shifts for whole runs: between runs a
/// minute apart the kernel's fastest time moved by up to a third, and
/// the program's timings with it (README, *Host speed*). The gated
/// timings are therefore given at the reference speed, at which the
/// kernel takes RefMs: a time is divided by slowdown(), a rate multiplied
/// by it. The kernel runs no program code, so a change of the program
/// moves the gated figures as much as the raw ones.
class HostSpeed {
public:
  static constexpr double RefMs = 1.0;
  HostSpeed();
  /// Times the kernel \p N times.
  void sample(unsigned N = 32);
  /// Fastest kernel time so far, in ms.
  double bestMs() const { return Best; }
  /// How many times slower than the reference this run's host was.
  double slowdown() const { return Best > 0 ? Best / RefMs : 1.0; }

private:
  struct Node {
    uint32_t L, R;
    uint64_t V;
  };
  std::vector<Node> Nodes;
  uint32_t Root = 0;
  std::vector<std::string> Names;
  double Best = -1;
  /// Keeps the kernel's result live, so the compiler cannot drop its work.
  uint64_t Sink = 0;
};

/// When a run's rounds happen. Round 0 warms caches, the allocator and
/// the sockets; it is checked and counted as attempted but not measured.
/// Measured rounds follow until the run's time is up (at least two); in a
/// traced run they alternate untraced and traced, so the traced rounds
/// give the per-layer split and the untraced ones its overhead.
class RoundSchedule {
public:
  RoundSchedule(const Options &O, HostSpeed &Host) : O(O), Host(Host) {}
  bool warmup() const { return !O.Small && Round == 0; }
  bool traced() const { return O.Trace && !warmup() && Measured % 2 == 1; }
  /// Ends the current round; returns whether another one runs.
  bool advance() {
    if (!O.Small)
      Host.sample();
    if (!warmup())
      ++Measured;
    ++Round;
    if (O.Small)
      return false;
    return Measured < 2 || msBetween(Start, Clock::now()) < O.Seconds * 1000;
  }
  unsigned round() const { return Round; }

private:
  const Options &O;
  HostSpeed &Host;
  Clock::time_point Start = Clock::now();
  unsigned Round = 0;
  unsigned Measured = 0;
};

/// Pins the calling thread -- and so every thread it starts while the
/// scope lives, which inherits its CPU mask -- to the first CPU of the
/// process's starting mask, and restores the thread's mask at the end of
/// the scope. Which vCPUs the generator and the program's threads
/// share decides how costly each hand-off is; left to the scheduler,
/// that placement differs from run to run, and so do the serving
/// workloads' figures. Does nothing on fewer than 4 CPUs.
class PinScope {
public:
  PinScope();
  ~PinScope();
  PinScope(const PinScope &) = delete;
  PinScope &operator=(const PinScope &) = delete;

private:
  cpu_set_t Old;
  bool Ok = false;
};

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

/// Linear-interpolation quantile of \p V (copied and sorted), q in [0,1].
double quantile(std::vector<double> V, double Q);
inline double median(const std::vector<double> &V) { return quantile(V, 0.5); }
double mean(const std::vector<double> &V);
inline void append(std::vector<double> &To, const std::vector<double> &From) {
  To.insert(To.end(), From.begin(), From.end());
}
/// Peak resident set of this process, in MB.
double peakRssMb();

/// The fastest time of each operation over a run's measured rounds.
///
/// Every measured round repeats the same operations, so the operation
/// with a given key (a pair, a document's n-th commit, the n-th op of the
/// sequence, the n-th segment of a load) is the same work in every round.
/// The shared host runs this machine's vCPUs either at full speed or at
/// about 0.6 of it, switching every few seconds (README, *Host speed*), so
/// a run's median follows how much of the run fell in slow spells. The
/// fastest of several tries of each operation does not.
class BestOf {
public:
  /// Records one try of operation \p Key: its time and the work it did
  /// (nodes, operations), which is the same in every round.
  void add(size_t Key, double Ms, double Work = 0);
  /// Summed work over the summed fastest times.
  double workPerMs() const;
  /// Operations per second of summed fastest times.
  double opsPerS() const;
  /// Median over the operations of their fastest times.
  double medianMs() const;

private:
  std::vector<double> Ms, Work;
};

/// Adds the segments of one round's load to \p Best: the operations that
/// ended at \p Ends (in completion order, the first starting at
/// \p Start) split into \p N runs of consecutive operations, each keyed
/// by its index with its operation count as its work.
void addSegments(BestOf &Best, const std::vector<Clock::time_point> &Ends,
                 Clock::time_point Start, unsigned N);

//===----------------------------------------------------------------------===//
// Tracing
//===----------------------------------------------------------------------===//

/// One recorded span: a named interval, the span that caused it (-1 for
/// a root) and the request it belongs to.
struct Span {
  const char *Name = "";
  int64_t StartNs = 0;
  int64_t EndNs = 0;
  int32_t Parent = -1;
  uint64_t Req = 0;
};

/// In-memory span recorder. Disabled, every call is a no-op returning
/// -1, so the untraced path pays one branch. Thread-safe: spans of one
/// request are opened on the generator thread and closed on service
/// workers, event-loop threads or listener callbacks.
class Tracer {
public:
  bool on() const { return On; }
  void setOn(bool O) { On = O; }

  int32_t open(const char *Name, int32_t Parent, uint64_t Req);
  void close(int32_t Id);
  /// Records an interval measured elsewhere.
  int32_t add(const char *Name, Clock::time_point Start, Clock::time_point End,
              int32_t Parent, uint64_t Req);

  /// Per span name: summed duration, summed self time (duration minus
  /// the union of its children's intervals) and every duration.
  struct Agg {
    double TotalMs = 0;
    double SelfMs = 0;
    std::vector<double> DurationsMs;
  };
  struct Summary {
    std::vector<std::pair<std::string, Agg>> ByName;
    const Agg &get(const std::string &Name) const;
  };
  Summary summarize() const;
  /// Appends every span as one JSON object per line.
  bool writeJsonLines(const std::string &Path,
                      const std::string &Workload) const;

private:
  bool On = false;
  Clock::time_point Epoch = Clock::now();
  mutable std::mutex Mu;
  std::vector<Span> Spans;
};

/// RAII span on the calling thread.
class ScopedSpan {
public:
  ScopedSpan(Tracer &T, const char *Name, int32_t Parent, uint64_t Req)
      : T(T), Id(T.open(Name, Parent, Req)) {}
  ~ScopedSpan() { T.close(Id); }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  Tracer &T;
  int32_t Id;
};

//===----------------------------------------------------------------------===//
// Inputs
//===----------------------------------------------------------------------===//

/// One document's history: the opening source and each successor.
struct Chain {
  std::string Base;
  std::vector<std::string> Commits;
};

/// \p NumChains commit chains of \p CommitsPerChain commits over
/// generateModule modules -- the default ~1.2k-node files of
/// buildCommitCorpus, whose sizes vary from module to module.
std::vector<Chain> corpusChains(uint64_t Seed, unsigned NumChains,
                                unsigned CommitsPerChain);

/// One commit chain per entry of \p MinNodes, over a generateModuleOfSize
/// module of at least that many nodes.
std::vector<Chain> sizedChains(uint64_t Seed,
                               const std::vector<uint64_t> &MinNodes,
                               unsigned CommitsPerChain);

/// The corpus_diff round's input: default-module chains plus a few chains
/// over ~50k-node modules (\p Small: a selftest-sized cut).
std::vector<Chain> corpusDiffChains(uint64_t Seed, bool Small = false);

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

RunResult runCorpusDiff(const Options &O);
RunResult runServeDurable(const Options &O);
RunResult runReplicateTcp(const Options &O);

/// The per-layer metric names every traced run reports, in order, with
/// their units. A layer a workload does not run reads 0.
const std::vector<std::pair<const char *, const char *>> &perLayerMetrics();

/// Fills \p R's metrics with every per-layer metric, taking values from
/// \p Values (name -> value) and 0 for the rest.
void emitPerLayer(RunResult &R,
                  const std::vector<std::pair<std::string, double>> &Values);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
