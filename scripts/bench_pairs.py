#!/usr/bin/env python3
"""Alternating parent/change pairs of one benchmark workload (make bench-pairs).

Exports BASE into a scratch directory, then runs N pairs of
`bash bench/run.sh --workload W --seed SEED --seconds 10 --trace 0`, one run
in the export and one in this checkout, alternating which side goes first.
Each side builds and runs its own unmodified bench/. Prints, per end-to-end
metric of BENCHMARK.json, both medians and quartiles, the pairs each side
won, and every digest seen — the procedure of choosing-metrics §8.
"""
import json
import os
import shutil
import statistics
import subprocess
import sys


def run(root, workload, seed):
    out = subprocess.run(
        ["bash", "bench/run.sh", "--workload", workload, "--seed", seed, "--seconds", "10", "--trace", "0"],
        cwd=root, check=True, capture_output=True, text=True).stdout.strip().splitlines()
    result = json.loads(out[-1])
    detail = next(json.loads(line[len("detail "):]) for line in out if line.startswith("detail "))
    values = {name: m["value"] for name, m in result["metrics"].items()}
    return values, detail["digest"], result["failed"]


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def main():
    workload, n, seed, base, scratch = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4], sys.argv[5]
    here = os.getcwd()
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    archive = subprocess.Popen(["git", "archive", base], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", scratch], stdin=archive.stdout, check=True)
    if archive.wait() != 0:
        sys.exit("bench-pairs: git archive %s failed" % base)
    with open("BENCHMARK.json") as f:
        metrics = json.load(f)["end_to_end"]

    sides = {"base": scratch, "change": here}
    runs = {side: [] for side in sides}
    digests = {side: set() for side in sides}
    failed = {side: 0 for side in sides}
    for i in range(n):
        for side in (("base", "change"), ("change", "base"))[i % 2]:
            values, digest, bad = run(sides[side], workload, seed)
            runs[side].append(values)
            digests[side].add(digest)
            failed[side] += bad
        print("pair %2d  ops_per_s  base %12.6g  change %12.6g" % (
            i + 1, runs["base"][-1]["ops_per_s"], runs["change"][-1]["ops_per_s"]), flush=True)

    print("\n%s, seed %s, %d pairs, base %s" % (workload, seed, n, base))
    print("%-20s %-6s %38s %38s %s" % ("metric", "better", "base  q1 / median / q3", "change  q1 / median / q3", "pairs won (base/change/tie)"))
    for m in metrics:
        name, sign = m["name"], 1 if m["better"] == "higher" else -1
        b = [r[name] for r in runs["base"]]
        c = [r[name] for r in runs["change"]]
        won_c = sum(1 for x, y in zip(b, c) if sign * (y - x) > 0)
        won_b = sum(1 for x, y in zip(b, c) if sign * (x - y) > 0)
        qb, qc, fmt = quartiles(b), quartiles(c), "%11.5g /%11.5g /%11.5g"
        print("%-20s %-6s   %s   %s   %d/%d/%d   median ratio %.3f" % (
            name, m["better"], fmt % qb, fmt % qc, won_b, won_c, n - won_b - won_c,
            qc[1] / qb[1] if qb[1] else float("nan")))
    for side in sides:
        print("%-6s digest %s   failed operations %d" % (side, " ".join(sorted(digests[side])), failed[side]))
    print("every run (ops_per_s):")
    for side in sides:
        print("  %-6s %s" % (side, " ".join("%.6g" % r["ops_per_s"] for r in runs[side])))


if __name__ == "__main__":
    main()
