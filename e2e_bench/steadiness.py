#!/usr/bin/env python3
"""Check that the end-to-end metrics are steady enough for their bounds.

    python3 e2e_bench/steadiness.py [--runs 10]

Run from the repository root. Makes two sets of runs of every workload in
BENCHMARK.json (untraced, run_seconds from BENCHMARK.json), each run with
another seed (1, 2, ...; the two sets use the same seeds), and alternates
the workload order from one run to the next. For every end-to-end metric it
prints each set's median and quartiles (statistics.quantiles(n=4)), the
spread (q3 - q1) / median, and the change of the second set's median against
the first, next to the metric's bound from BENCHMARK.json. A metric passes
when both spreads are within its bound and the second median is not worse
than the first by more than the bound. The share of failed operations must
match exactly. Exits 1 if anything fails.
"""
import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(ROOT / "e2e_bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(proc.stdout.strip().split("\n")[-1])


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    args = ap.parse_args()
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    print(f"# host: {cpu_model()}, nproc {os.cpu_count()}, "
          f"{datetime.datetime.now(datetime.timezone.utc):%Y-%m-%d %H:%M} UTC")
    print(f"# {args.runs} runs per set and workload, seeds 1..{args.runs}, "
          f"run_seconds {seconds}", flush=True)
    sets = [{w: [] for w in workloads} for _ in range(2)]
    for s in range(2):
        for i in range(args.runs):
            order = workloads if (s * args.runs + i) % 2 == 0 else workloads[::-1]
            for w in order:
                t0 = time.monotonic()
                sets[s][w].append(run_once(w, i + 1, seconds))
                print(f"# set {s + 1} run {i + 1} {w}: {time.monotonic() - t0:.1f} s",
                      file=sys.stderr)

    ok = True
    print(f"{'workload':16} {'metric':15} {'set 1 median [q1, q3]':>32} {'spread':>7} "
          f"{'set 2 median [q1, q3]':>32} {'spread':>7} {'change':>8} {'bound':>6}  verdict")
    for w in workloads:
        shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
                  for runs in (sets[0][w], sets[1][w])]
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            stats = []
            for runs in (sets[0][w], sets[1][w]):
                vals = [r["metrics"][name]["value"] for r in runs]
                q1, med, q3 = statistics.quantiles(vals, n=4)
                stats.append((med, q1, q3, (q3 - q1) / med))
            sign = 1.0 if m["better"] == "lower" else -1.0
            change = sign * (stats[1][0] - stats[0][0]) / stats[0][0]
            good = all(st[3] <= bound for st in stats) and change <= bound
            ok &= good
            cells = [f"{st[0]:.5g} [{st[1]:.5g}, {st[2]:.5g}]" for st in stats]
            print(f"{w:16} {name:15} {cells[0]:>32} {stats[0][3]:7.2%} {cells[1]:>32} "
                  f"{stats[1][3]:7.2%} {change:+8.2%} {bound:6.2f}  "
                  f"{'ok' if good else 'FAIL'}")
        same = shares[0] == shares[1]
        ok &= same
        print(f"{w:16} failed share: set 1 {shares[0]:.6g}, set 2 {shares[1]:.6g} "
              f"({'same' if same else 'DIFFERENT'})")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
