//===- perfbench/src/Inputs.cpp - Seeded workload inputs ------------------===//
//
// Part of truediff-cpp. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every input is source text generated from the workload seed, the way
/// corpus::buildCommitCorpus builds the evaluation corpus: a generated
/// module, then a chain of commits, each one mutateModule step. A
/// mutation that leaves the text unchanged is drawn again, so every chain
/// has exactly the requested number of real commits.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "corpus/Mutator.h"
#include "corpus/PyGen.h"
#include "python/Python.h"

#include <iterator>

using namespace truediff;

namespace perfbench {

namespace {

Chain mutationChain(const SignatureTable &Sig, TreeContext &Ctx, Rng &R,
                    Tree *Current, unsigned Commits) {
  Chain C;
  C.Base = python::unparsePython(Sig, Current);
  std::string Prev = C.Base;
  while (C.Commits.size() != Commits) {
    Tree *Next = corpus::mutateModule(Ctx, R, Current);
    std::string Src = python::unparsePython(Sig, Next);
    if (Src == Prev)
      continue;
    Current = Next;
    Prev = Src;
    C.Commits.push_back(std::move(Src));
  }
  return C;
}

} // namespace

std::vector<Chain> corpusChains(uint64_t Seed, unsigned NumChains,
                                unsigned CommitsPerChain) {
  SignatureTable Sig = python::makePythonSignature();
  Rng R(Seed * 0x9e3779b97f4a7c15ull + 1);
  std::vector<Chain> Out;
  Out.reserve(NumChains);
  for (unsigned I = 0; I != NumChains; ++I) {
    TreeContext Ctx(Sig);
    Tree *Base = corpus::generateModule(Ctx, R);
    Out.push_back(mutationChain(Sig, Ctx, R, Base, CommitsPerChain));
  }
  return Out;
}

std::vector<Chain> sizedChains(uint64_t Seed,
                               const std::vector<uint64_t> &MinNodes,
                               unsigned CommitsPerChain) {
  SignatureTable Sig = python::makePythonSignature();
  Rng R(Seed * 0xbf58476d1ce4e5b9ull + 2);
  std::vector<Chain> Out;
  Out.reserve(MinNodes.size());
  for (uint64_t N : MinNodes) {
    TreeContext Ctx(Sig);
    Tree *Base = corpus::generateModuleOfSize(Ctx, R, N);
    Out.push_back(mutationChain(Sig, Ctx, R, Base, CommitsPerChain));
  }
  return Out;
}

std::vector<Chain> corpusDiffChains(uint64_t Seed, bool Small) {
  // 180 pairs over 36 default modules and 6 pairs over two ~50k-node
  // modules. Many small modules keep the corpus' make-up alike from seed
  // to seed. The large pairs are ~3% of all pairs and of one size class,
  // so the 99th latency percentile falls inside them rather than on the
  // edge between two groups.
  std::vector<Chain> Chains = corpusChains(Seed, Small ? 3 : 36, 5);
  std::vector<Chain> Large = sizedChains(
      Seed, Small ? std::vector<uint64_t>{20000}
                  : std::vector<uint64_t>{50000, 50000},
      3);
  Chains.insert(Chains.end(), std::make_move_iterator(Large.begin()),
                std::make_move_iterator(Large.end()));
  return Chains;
}

} // namespace perfbench
