//===- perfbench/src/reference.cpp - Other differs on the same corpus -----===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// perfbench_reference [--seed <n>]
///
/// For reference beside the benchmark, not part of it: Gumtree's, hdiff's
/// and truediff's throughput on the corpus_diff corpus, measured as
/// bench/fig5_throughput does -- per pair, trees rebuilt before each run
/// (hashing included, parsing excluded), fastest of three runs, nodes of
/// source plus target per ms, summarised per differ as median and
/// quartiles over the pairs.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "gumtree/GumTree.h"
#include "hdiff/HDiff.h"
#include "python/Python.h"
#include "truediff/TrueDiff.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>

using namespace truediff;
using namespace perfbench;

namespace {

double fastestMs(const std::function<void()> &Fn) {
  double Best = 1e300;
  for (int I = 0; I != 3; ++I) {
    auto T0 = Clock::now();
    Fn();
    Best = std::min(Best, msBetween(T0, Clock::now()));
  }
  return Best;
}

void row(const char *Name, const std::vector<double> &V) {
  std::printf("%-20s %12.1f %12.1f %12.1f\n", Name, quantile(V, 0.5),
              quantile(V, 0.25), quantile(V, 0.75));
}

} // namespace

int main(int Argc, char **Argv) {
  uint64_t Seed = 1;
  if (Argc == 3 && std::strcmp(Argv[1], "--seed") == 0)
    Seed = std::strtoull(Argv[2], nullptr, 10);
  SignatureTable Sig = python::makePythonSignature();
  std::vector<Chain> Chains = corpusDiffChains(Seed);

  std::vector<double> TD, GT, HD;
  for (const Chain &C : Chains) {
    const std::string *Prev = &C.Base;
    for (const std::string &Next : C.Commits) {
      TreeContext Ctx(Sig);
      python::PyParseResult A = python::parsePython(Ctx, *Prev);
      python::PyParseResult B = python::parsePython(Ctx, Next);
      Prev = &Next;
      if (!A.ok() || !B.ok())
        continue;
      double Nodes =
          static_cast<double>(A.Module->size() + B.Module->size());
      TD.push_back(Nodes / fastestMs([&] {
        Tree *Src = Ctx.deepCopy(A.Module);
        Tree *Dst = Ctx.deepCopy(B.Module);
        DiffResult R = TrueDiff(Ctx).compareTo(Src, Dst);
        (void)R;
      }));
      GT.push_back(Nodes / fastestMs([&] {
        gumtree::RoseForest Forest;
        gumtree::RNode *Src = Forest.fromTree(Sig, A.Module);
        gumtree::RNode *Dst = Forest.fromTree(Sig, B.Module);
        gumtree::GumTreeResult R = gumtree::gumtreeDiff(Forest, Src, Dst);
        (void)R;
      }));
      HD.push_back(Nodes / fastestMs([&] {
        Tree *Src = Ctx.deepCopy(A.Module);
        Tree *Dst = Ctx.deepCopy(B.Module);
        hdiff::HDiffPatch P = hdiff::HDiff(Ctx).diff(Src, Dst);
        (void)P;
      }));
    }
  }
  std::printf("corpus_diff corpus, seed %llu, %zu pairs; nodes/ms, fastest "
              "of 3 per pair\n",
              static_cast<unsigned long long>(Seed), TD.size());
  std::printf("%-20s %12s %12s %12s\n", "differ", "median", "q1", "q3");
  row("truediff (sha256)", TD);
  row("hdiff", HD);
  row("gumtree", GT);
  return 0;
}
