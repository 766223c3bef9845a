#!/usr/bin/env python3
"""The benchmark's allocation columns, one row per workload (make bench-allocs).

Runs `bash bench/run.sh --workload W --seconds 2 --trace 0` for each workload
named on the command line and prints allocs_per_op, alloc_bytes_per_op,
peak_rss_mb and the first 16 hex digits of the run's digest (from its
`detail` line). A run that is incorrect is marked FAILED, and the script
exits 1 once every workload has run. Timed metrics are left out: one short
run does not measure them (`make bench-pairs` does).
"""
import json
import subprocess
import sys


def main():
    bad = 0
    print("%-15s %14s %19s %12s  %s" % (
        "workload", "allocs_per_op", "alloc_bytes_per_op", "peak_rss_mb", "digest"))
    for workload in sys.argv[1:]:
        out = subprocess.run(
            ["bash", "bench/run.sh", "--workload", workload, "--seconds", "2", "--trace", "0"],
            check=True, capture_output=True, text=True).stdout.strip().splitlines()
        result = json.loads(out[-1])
        detail = next(json.loads(line[len("detail "):]) for line in out if line.startswith("detail "))
        m = {name: v["value"] for name, v in result["metrics"].items()}
        failed = "" if result["correct"] else "   FAILED %d of %d" % (result["failed"], result["attempted"])
        bad += failed != ""
        print("%-15s %14.4f %19.1f %12.1f  %s%s" % (
            workload, m["allocs_per_op"], m["alloc_bytes_per_op"], m["peak_rss_mb"],
            detail["digest"][:16], failed), flush=True)
    if bad:
        sys.exit("bench-allocs: %d workload(s) FAILED" % bad)


if __name__ == "__main__":
    main()
