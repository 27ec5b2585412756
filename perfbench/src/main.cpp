//===- perfbench/src/main.cpp - Benchmark entry point ---------------------===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// perfbench --workload <corpus_diff|serve_durable|replicate_tcp>
///           --seed <n> --seconds <s> --trace <0|1>
///           [--work-dir <dir>] [--spans <file>]
/// perfbench --selftest
///
/// Prints human-readable lines, then one JSON result as the last line:
/// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
/// Untraced runs report the end-to-end metrics, traced runs the per-layer
/// ones. Exits 1 when a correctness check failed.
///
/// --selftest runs each workload once on a small round and then once per
/// injected fault (a tampered script, a wrong expected text, a dropped
/// WAL record, a diverged replica); every fault must be caught.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <sys/resource.h>

using namespace perfbench;

namespace {

RunResult runWorkload(const Options &O) {
  try {
    if (O.Workload == "corpus_diff")
      return runCorpusDiff(O);
    if (O.Workload == "serve_durable")
      return runServeDurable(O);
    return runReplicateTcp(O);
  } catch (const std::exception &E) {
    // Persistence reports I/O failures by throwing.
    RunResult R;
    R.Attempted = 1;
    R.fail(std::string("workload aborted: ") + E.what());
    R.Correct = false;
    return R;
  }
}

void printResult(const RunResult &R) {
  // Where the process's time went: CPU in user and kernel mode, page
  // faults, and context switches it asked for (waits) or suffered.
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  auto Secs = [](timeval T) { return T.tv_sec + T.tv_usec / 1e6; };
  std::printf("# cpu_user_s = %.3f s\n# cpu_sys_s = %.3f s\n"
              "# minor_faults = %ld count\n# voluntary_switches = %ld count\n"
              "# involuntary_switches = %ld count\n",
              Secs(U.ru_utime), Secs(U.ru_stime), U.ru_minflt, U.ru_nvcsw,
              U.ru_nivcsw);
  for (const Metric &M : R.Detail)
    std::printf("# %s = %.10g %s\n", M.Name.c_str(), M.Value, M.Unit.c_str());
  if (!R.FirstFailure.empty())
    std::printf("# first failed check: %s\n", R.FirstFailure.c_str());
  std::string Out = "{\"correct\": ";
  Out += R.Correct ? "true" : "false";
  Out += ", \"attempted\": " + std::to_string(R.Attempted);
  Out += ", \"failed\": " + std::to_string(R.Failed);
  Out += ", \"metrics\": {";
  for (size_t I = 0; I != R.Metrics.size(); ++I) {
    const Metric &M = R.Metrics[I];
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.17g", M.Value);
    if (I != 0)
      Out += ", ";
    Out += "\"" + M.Name + "\": {\"value\": " + Buf + ", \"unit\": \"" +
           M.Unit + "\"}";
  }
  Out += "}}";
  std::printf("%s\n", Out.c_str());
  std::fflush(stdout);
}

bool parseNumber(const char *S, double &Out) {
  errno = 0;
  char *End = nullptr;
  Out = std::strtod(S, &End);
  return End != S && *End == '\0' && errno == 0;
}

/// Runs one workload on a small round with \p F injected; returns true
/// when the outcome matches the expectation (clean: no failure; fault:
/// caught).
bool selftestCase(const Options &Base, const char *Workload, Fault F,
                  const char *What) {
  Options O = Base;
  O.Workload = Workload;
  O.Inject = F;
  O.Small = true;
  RunResult R = runWorkload(O);
  bool Caught = R.Failed != 0 || !R.Correct;
  bool Pass = F == Fault::None ? !Caught && R.Attempted != 0 : Caught;
  std::printf("selftest %-14s %-22s attempted=%llu failed=%llu correct=%d "
              "-> %s%s%s\n",
              Workload, What, static_cast<unsigned long long>(R.Attempted),
              static_cast<unsigned long long>(R.Failed), R.Correct ? 1 : 0,
              Pass ? "ok" : "FAIL", R.FirstFailure.empty() ? "" : ": ",
              R.FirstFailure.c_str());
  std::fflush(stdout);
  return Pass;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  bool Selftest = false, HaveWorkload = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Next = [&]() -> const char * {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "perfbench: %s needs a value\n", A.c_str());
        std::exit(2);
      }
      return Argv[++I];
    };
    double V = 0;
    if (A == "--workload") {
      O.Workload = Next();
      HaveWorkload = true;
    } else if (A == "--seed") {
      const char *S = Next();
      char *End = nullptr;
      errno = 0;
      unsigned long long Seed = std::strtoull(S, &End, 10);
      if (End == S || *End != '\0' || errno != 0) {
        std::fprintf(stderr, "perfbench: bad --seed '%s'\n", S);
        return 2;
      }
      O.Seed = Seed;
    } else if (A == "--seconds") {
      if (!parseNumber(Next(), V) || V <= 0 || V > 3600) {
        std::fprintf(stderr, "perfbench: bad --seconds\n");
        return 2;
      }
      O.Seconds = V;
    } else if (A == "--trace") {
      std::string T = Next();
      if (T != "0" && T != "1") {
        std::fprintf(stderr, "perfbench: --trace takes 0 or 1\n");
        return 2;
      }
      O.Trace = T == "1";
    } else if (A == "--work-dir") {
      O.WorkDir = Next();
    } else if (A == "--spans") {
      O.SpansPath = Next();
    } else if (A == "--selftest") {
      Selftest = true;
    } else {
      std::fprintf(stderr, "perfbench: unknown argument '%s'\n", A.c_str());
      return 2;
    }
  }

  if (Selftest) {
    bool Ok = true;
    Ok &= selftestCase(O, "corpus_diff", Fault::None, "clean");
    Ok &= selftestCase(O, "corpus_diff", Fault::TamperedScript,
                       "tampered script");
    Ok &= selftestCase(O, "serve_durable", Fault::None, "clean");
    Ok &= selftestCase(O, "serve_durable", Fault::WrongText,
                       "wrong expected text");
    Ok &= selftestCase(O, "serve_durable", Fault::DroppedRecord,
                       "dropped WAL record");
    Ok &= selftestCase(O, "replicate_tcp", Fault::None, "clean");
    Ok &= selftestCase(O, "replicate_tcp", Fault::WrongText,
                       "wrong expected text");
    Ok &= selftestCase(O, "replicate_tcp", Fault::DivergedReplica,
                       "diverged replica");
    std::printf("selftest: %s\n", Ok ? "all cases behaved" : "FAILED");
    return Ok ? 0 : 1;
  }

  if (!HaveWorkload ||
      (O.Workload != "corpus_diff" && O.Workload != "serve_durable" &&
       O.Workload != "replicate_tcp")) {
    std::fprintf(stderr, "perfbench: --workload must be corpus_diff, "
                         "serve_durable or replicate_tcp\n");
    return 2;
  }
  RunResult R = runWorkload(O);
  printResult(R);
  return R.Correct && R.Failed == 0 ? 0 : 1;
}
