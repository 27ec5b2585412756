//===- perfbench/src/Trace.cpp - Spans, statistics, result helpers --------===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

namespace perfbench {

HostSpeed::HostSpeed() {
  // 2^15 - 1 nodes in shuffled slots; node I's children are 2I+1, 2I+2.
  const uint32_t N = (1u << 15) - 1;
  std::vector<uint32_t> Slot(N);
  for (uint32_t I = 0; I != N; ++I)
    Slot[I] = I;
  uint64_t X = 0x9e3779b97f4a7c15ull;
  for (uint32_t I = N - 1; I != 0; --I) {
    X ^= X << 13;
    X ^= X >> 7;
    X ^= X << 17;
    std::swap(Slot[I], Slot[X % (I + 1)]);
  }
  Nodes.resize(N);
  for (uint32_t I = 0; I != N; ++I) {
    uint32_t L = 2 * I + 1, R = 2 * I + 2;
    Nodes[Slot[I]] = Node{L < N ? Slot[L] : UINT32_MAX,
                          R < N ? Slot[R] : UINT32_MAX, I * 0x9e37ull};
  }
  Root = Slot[0];
  // Identifier-like names of 6 to 21 characters.
  Names.resize(2048);
  for (std::string &Nm : Names) {
    X ^= X << 13;
    X ^= X >> 7;
    X ^= X << 17;
    size_t Len = 6 + X % 16;
    for (size_t C = 0; C != Len; ++C)
      Nm += static_cast<char>('a' + (X >> (C * 2 % 58)) % 26);
  }
}

void HostSpeed::sample(unsigned N) {
  std::vector<uint32_t> Stack;
  for (unsigned K = 0; K != N; ++K) {
    auto T0 = Clock::now();
    // Pointer chasing: a hash walk over the shuffled tree.
    uint64_t H = 1469598103934665603ull;
    Stack.assign(1, Root);
    while (!Stack.empty()) {
      const Node &Nd = Nodes[Stack.back()];
      Stack.pop_back();
      H = (H ^ Nd.V) * 1099511628211ull;
      if (Nd.L != UINT32_MAX)
        Stack.push_back(Nd.L);
      if (Nd.R != UINT32_MAX)
        Stack.push_back(Nd.R);
    }
    // Allocation, branches and string work: a balanced-tree map of the
    // names, looked up and rendered into one text, then freed.
    {
      std::map<std::string, uint32_t> Map;
      for (uint32_t I = 0; I != Names.size(); ++I)
        Map.emplace(Names[I], I);
      std::string Text;
      for (const std::string &Nm : Names) {
        auto It = Map.find(Nm);
        Text += It->first;
        Text += '(';
        Text += std::to_string(It->second);
        Text += ')';
      }
      for (char C : Text)
        H = (H ^ static_cast<unsigned char>(C)) * 1099511628211ull;
    }
    double Ms = msBetween(T0, Clock::now());
    Sink += H;
    if (Best < 0 || Ms < Best)
      Best = Ms;
  }
}

void BestOf::add(size_t Key, double T, double W) {
  if (Key >= Ms.size()) {
    Ms.resize(Key + 1, -1);
    Work.resize(Key + 1, 0);
  }
  if (Ms[Key] < 0 || T < Ms[Key])
    Ms[Key] = T;
  Work[Key] = W;
}

double BestOf::workPerMs() const {
  double W = 0, T = 0;
  for (size_t I = 0; I != Ms.size(); ++I)
    if (Ms[I] >= 0) {
      W += Work[I];
      T += Ms[I];
    }
  return T > 0 ? W / T : 0;
}

double BestOf::opsPerS() const {
  double N = 0, T = 0;
  for (double M : Ms)
    if (M >= 0) {
      ++N;
      T += M;
    }
  return T > 0 ? N * 1000.0 / T : 0;
}

double BestOf::medianMs() const {
  std::vector<double> V;
  for (double T : Ms)
    if (T >= 0)
      V.push_back(T);
  return median(V);
}

void addSegments(BestOf &Best, const std::vector<Clock::time_point> &Ends,
                 Clock::time_point Start, unsigned N) {
  size_t Per = Ends.size() / N;
  if (Per == 0)
    return;
  for (unsigned Seg = 0; Seg != N; ++Seg) {
    size_t Lo = Seg * Per, Hi = Seg + 1 == N ? Ends.size() : Lo + Per;
    Clock::time_point From = Lo == 0 ? Start : Ends[Lo - 1];
    Best.add(Seg, msBetween(From, Ends[Hi - 1]), static_cast<double>(Hi - Lo));
  }
}

namespace {
/// The process's CPU mask as it started, read before any thread is pinned,
/// so a PinScope picks the same CPU whatever mask its caller has.
const cpu_set_t ProcessMask = [] {
  cpu_set_t M;
  CPU_ZERO(&M);
  if (sched_getaffinity(0, sizeof(M), &M) != 0)
    CPU_ZERO(&M);
  return M;
}();
} // namespace

PinScope::PinScope() {
  Ok = CPU_COUNT(&ProcessMask) >= 4 &&
       pthread_getaffinity_np(pthread_self(), sizeof(Old), &Old) == 0;
  if (!Ok)
    return;
  cpu_set_t New;
  CPU_ZERO(&New);
  for (unsigned I = 0; I != CPU_SETSIZE; ++I)
    if (CPU_ISSET(I, &ProcessMask)) {
      CPU_SET(I, &New);
      break;
    }
  Ok = CPU_COUNT(&New) != 0 &&
       pthread_setaffinity_np(pthread_self(), sizeof(New), &New) == 0;
}

PinScope::~PinScope() {
  if (Ok)
    pthread_setaffinity_np(pthread_self(), sizeof(Old), &Old);
}

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return V[Lo] + (V[Hi] - V[Lo]) * Frac;
}

double mean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double S = 0;
  for (double X : V)
    S += X;
  return S / static_cast<double>(V.size());
}

double peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

int32_t Tracer::open(const char *Name, int32_t Parent, uint64_t Req) {
  if (!On)
    return -1;
  int64_t Now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    Clock::now() - Epoch)
                    .count();
  std::lock_guard<std::mutex> Lock(Mu);
  Spans.push_back(Span{Name, Now, Now, Parent, Req});
  return static_cast<int32_t>(Spans.size() - 1);
}

void Tracer::close(int32_t Id) {
  if (Id < 0)
    return;
  int64_t Now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    Clock::now() - Epoch)
                    .count();
  std::lock_guard<std::mutex> Lock(Mu);
  Spans[static_cast<size_t>(Id)].EndNs = Now;
}

int32_t Tracer::add(const char *Name, Clock::time_point Start,
                    Clock::time_point End, int32_t Parent, uint64_t Req) {
  if (!On)
    return -1;
  auto Ns = [this](Clock::time_point T) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(T - Epoch)
        .count();
  };
  std::lock_guard<std::mutex> Lock(Mu);
  Spans.push_back(Span{Name, Ns(Start), Ns(End), Parent, Req});
  return static_cast<int32_t>(Spans.size() - 1);
}

const Tracer::Agg &Tracer::Summary::get(const std::string &Name) const {
  static const Agg Empty;
  for (const auto &[N, A] : ByName)
    if (N == Name)
      return A;
  return Empty;
}

Tracer::Summary Tracer::summarize() const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::vector<std::vector<int32_t>> Kids(Spans.size());
  for (size_t I = 0; I != Spans.size(); ++I)
    if (Spans[I].Parent >= 0)
      Kids[static_cast<size_t>(Spans[I].Parent)].push_back(
          static_cast<int32_t>(I));

  Summary Out;
  auto Slot = [&Out](const char *Name) -> Agg & {
    for (auto &[N, A] : Out.ByName)
      if (N == Name)
        return A;
    Out.ByName.emplace_back(Name, Agg());
    return Out.ByName.back().second;
  };
  std::vector<std::pair<int64_t, int64_t>> Cover;
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    int64_t Dur = S.EndNs - S.StartNs;
    // Union of the children's intervals, clipped to this span.
    Cover.clear();
    for (int32_t K : Kids[I]) {
      const Span &C = Spans[static_cast<size_t>(K)];
      int64_t A = std::max(C.StartNs, S.StartNs);
      int64_t B = std::min(C.EndNs, S.EndNs);
      if (B > A)
        Cover.emplace_back(A, B);
    }
    std::sort(Cover.begin(), Cover.end());
    int64_t Covered = 0, Reach = S.StartNs;
    for (auto [A, B] : Cover) {
      A = std::max(A, Reach);
      if (B > A) {
        Covered += B - A;
        Reach = B;
      }
    }
    Agg &G = Slot(S.Name);
    G.TotalMs += static_cast<double>(Dur) / 1e6;
    G.SelfMs += static_cast<double>(Dur - Covered) / 1e6;
    G.DurationsMs.push_back(static_cast<double>(Dur) / 1e6);
  }
  return Out;
}

bool Tracer::writeJsonLines(const std::string &Path,
                            const std::string &Workload) const {
  std::FILE *F = std::fopen(Path.c_str(), "a");
  if (F == nullptr)
    return false;
  std::lock_guard<std::mutex> Lock(Mu);
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F,
                 "{\"workload\":\"%s\",\"id\":%zu,"
                 "\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"parent\":%d,\"req\":%llu}\n",
                 Workload.c_str(), I, S.Name,
                 static_cast<long long>(S.StartNs),
                 static_cast<long long>(S.EndNs), S.Parent,
                 static_cast<unsigned long long>(S.Req));
  }
  return std::fclose(F) == 0;
}

const std::vector<std::pair<const char *, const char *>> &perLayerMetrics() {
  static const std::vector<std::pair<const char *, const char *>> Names = {
      {"python.parse_ms", "ms"},
      {"python.nodes_per_ms", "nodes/ms"},
      {"tree.build_ms", "ms"},
      {"tree.hash_ms", "ms"},
      {"truediff.diff_ms", "ms"},
      {"truediff.nodes_rehashed", "count"},
      {"truechange.typecheck_ms", "ms"},
      {"truechange.serialize_ms", "ms"},
      {"truechange.script_bytes", "bytes"},
      {"truechange.patch_ms", "ms"},
      {"service.queue_wait_ms_p50", "ms"},
      {"service.queue_wait_ms_p99", "ms"},
      {"service.build_ms", "ms"},
      {"service.commit_ms", "ms"},
      {"service.digest_cache_saved_nodes", "count"},
      {"blame.fold_ms", "ms"},
      {"persist.wal_ms", "ms"},
      {"persist.fsyncs", "count"},
      {"persist.wal_bytes_per_commit", "bytes"},
      {"persist.snapshots_written", "count"},
      {"persist.recover_ms", "ms"},
      {"replica.apply_lag_ms_p50", "ms"},
      {"replica.apply_lag_ms_p99", "ms"},
      {"replica.read_ms", "ms"},
      {"replica.records_applied", "count"},
      {"replica.snapshots_installed", "count"},
      {"replica.catchup_ms", "ms"},
      {"net.health_rtt_ms_p50", "ms"},
      {"net.write_rtt_ms_p50", "ms"},
      {"client.attempts_per_request", "count"},
      {"trace.overhead_pct", "%"},
  };
  return Names;
}

void emitPerLayer(RunResult &R,
                  const std::vector<std::pair<std::string, double>> &Values) {
  for (const auto &[Name, Unit] : perLayerMetrics()) {
    double V = 0;
    for (const auto &[N, X] : Values)
      if (N == Name)
        V = X;
    R.Metrics.push_back(Metric{Name, V, Unit});
  }
}

} // namespace perfbench
