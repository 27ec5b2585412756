#!/usr/bin/env python3
"""Builds and runs the truediff benchmark.

One run:
    python3 perfbench/run.py --workload corpus_diff --seed 1 --seconds 30 --trace 0

Each run builds perfbench (CMake, against the repository's src/ tree) into
.bench_build/perfbench, then runs the workload in its own process. The
last line of standard output is the JSON result; the lines before it are
for people. With --trace 1 the spans are written to
.bench_build/spans-<workload>-<seed>.jsonl and summarised as a per-span
table with self times.

Other modes:
    --selftest            short run of every workload, then one run per
                          injected fault; each fault must be caught
    --repeat N            N runs on each of --seeds (default 1,2, or a
                          range such as 1-10); prints every metric's
                          median, quartiles and spread per seed
    --pool                with --repeat: one table over the runs of all
                          seeds, the spread a regression check sees
    --reference           Gumtree, hdiff and truediff throughput on the
                          corpus_diff corpus, measured as fig5 does
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("corpus_diff", "serve_durable", "replicate_tcp")
RUN_TIMEOUT_S = 175


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return base


def build(target):
    """Configures (once) and builds `target`; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: the repository's src/ tree is missing; nothing to build")
        sys.exit(2)
    out = os.path.join(build_dir(), "perfbench")
    os.makedirs(out, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", target, "-j",
                  str(os.cpu_count() or 1)])
    for cmd in steps:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True)
        if p.returncode != 0:
            log(p.stdout)
            log("perfbench: build failed: " + " ".join(cmd))
            sys.exit(2)
    return os.path.join(out, target)


def run_once(binary, workload, seed, seconds, trace, echo=True):
    """Runs one workload process; returns (exit code, result dict)."""
    work = os.path.join(build_dir(), "work")
    os.makedirs(work, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", work]
    spans = None
    if trace:
        spans = os.path.join(build_dir(), "spans-%s-%s.jsonl" % (workload, seed))
        if os.path.exists(spans):
            os.remove(spans)
        cmd += ["--spans", spans]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        log("perfbench: %s did not finish within %ds" % (workload, RUN_TIMEOUT_S))
        sys.exit(3)
    lines = p.stdout.strip().splitlines()
    if not lines:
        log("perfbench: %s printed nothing (exit %d)" % (workload, p.returncode))
        sys.exit(3)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        log("perfbench: %s ended without a result line" % workload)
        sys.exit(3)
    if echo:
        for line in lines[:-1]:
            print(line)
        if spans:
            print_span_table(spans)
    return p.returncode, result


def print_span_table(path):
    """Per span name: count, total and self time (duration minus the part
    its children cover), from the spans the traced rounds recorded."""
    spans = []
    with open(path) as f:
        for line in f:
            spans.append(json.loads(line))
    kids = {}
    for s in spans:
        if s["parent"] >= 0:
            kids.setdefault(s["parent"], []).append(s)
    rows = {}
    for s in spans:
        start, end = s["start_ns"], s["end_ns"]
        cover, reach = 0, start
        for c in sorted(kids.get(s["id"], []), key=lambda c: c["start_ns"]):
            a, b = max(c["start_ns"], reach), min(c["end_ns"], end)
            if b > a:
                cover += b - a
                reach = b
        r = rows.setdefault(s["name"], [0, 0.0, 0.0])
        r[0] += 1
        r[1] += (end - start) / 1e6
        r[2] += (end - start - cover) / 1e6
    print("# spans: %d in %s" % (len(spans), os.path.relpath(path, ROOT)))
    print("# %-26s %8s %12s %12s %10s" % ("span", "count", "total_ms",
                                          "self_ms", "self/call"))
    for name, (n, total, self_ms) in sorted(rows.items(),
                                            key=lambda kv: -kv[1][2]):
        print("# %-26s %8d %12.2f %12.2f %10.4f" % (name, n, total, self_ms,
                                                    self_ms / n))


def spread_table(title, results):
    """Median, quartiles and spread (IQR / median) of every metric."""
    print("== %s (%d runs) ==" % (title, len(results)))
    print("%-34s %14s %14s %14s %8s" % ("metric", "median", "q1", "q3",
                                        "spread"))
    for name in results[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in results]
        unit = results[0]["metrics"][name]["unit"]
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
        else:
            q1 = q3 = med
        spread = (q3 - q1) / med if med else 0.0
        print("%-34s %14.6g %14.6g %14.6g %7.1f%%  %s" % (name, med, q1, q3,
                                                        100 * spread, unit))
        print("    runs: " + " ".join("%.4g" % v for v in vals))
    att = sum(r["attempted"] for r in results)
    fail = sum(r["failed"] for r in results)
    print("attempted %d, failed %d, correct %s" %
          (att, fail, all(r["correct"] for r in results)))


def parse_seeds(text):
    """'1,2' or '1-10' (or a mix, '1-3,7') to a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--repeat", type=int, default=0)
    ap.add_argument("--seeds", type=parse_seeds, default="1,2")
    ap.add_argument("--pool", action="store_true")
    ap.add_argument("--reference", action="store_true")
    args = ap.parse_args()

    if args.selftest:
        binary = build("perfbench")
        work = os.path.join(build_dir(), "work")
        os.makedirs(work, exist_ok=True)
        return subprocess.run([binary, "--selftest", "--work-dir", work],
                              cwd=ROOT).returncode
    if args.reference:
        binary = build("perfbench_reference")
        return subprocess.run([binary, "--seed", str(args.seed)],
                              cwd=ROOT).returncode
    if args.workload is None:
        ap.error("--workload is required")
    binary = build("perfbench")
    if args.repeat:
        if args.pool:
            groups = [("seeds %s" % ",".join(map(str, args.seeds)),
                       [s for s in args.seeds for _ in range(args.repeat)])]
        else:
            groups = [("seed %d" % s, [s] * args.repeat) for s in args.seeds]
        for title, seeds in groups:
            results = []
            for seed in seeds:
                code, res = run_once(binary, args.workload, seed, args.seconds,
                                     args.trace, echo=False)
                if code != 0:
                    log("perfbench: a run failed its checks (seed %d)" % seed)
                    return code
                results.append(res)
            spread_table("%s, %s, trace %d" % (args.workload, title,
                                               args.trace), results)
        return 0
    code, result = run_once(binary, args.workload, args.seed, args.seconds,
                            args.trace)
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
