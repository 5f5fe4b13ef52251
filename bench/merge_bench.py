#!/usr/bin/env python3
"""Merge N runs of one benchmark JSON into a per-row median capture.

Benchmark numbers on busy machines are noise-dominated, so each side of a
comparison runs several times. A per-row best would let one outlying run
set a side's number; the median ignores a single outlier in either
direction. Rows are matched by `name` across files; each output row is the
input row whose throughput (compare_bench.py's pseudo-metric: `ops_per_sec`,
else the inverse of `ns_per_op` or `seconds`) is the median. With an even
N it is the lower of the two middle rows; ties keep file order. Top-level
metadata is taken from the first file and annotated with
`"merged_runs": N`.

Usage: merge_bench.py RUN1.json RUN2.json ... > MEDIAN.json
       merge_bench.py --selftest
"""

import json
import sys

from compare_bench import throughput


def merge(docs, labels):
    names = [row["name"] for row in docs[0]["results"]]
    # Strict row matching in both directions: a merged capture feeding the
    # regression gate must not silently merge fewer runs for some rows or
    # drop rows that only appear in later runs.
    for label, doc in zip(labels[1:], docs[1:]):
        extra = {r["name"] for r in doc["results"]} - set(names)
        if extra:
            sys.exit(f"{label}: rows {sorted(extra)} not present in "
                     f"{labels[0]}")
    merged = []
    for name in names:
        candidates = []
        for label, doc in zip(labels, docs):
            rows = [r for r in doc["results"] if r["name"] == name]
            if not rows:
                sys.exit(f"{label}: row {name!r} missing")
            candidates.extend(rows)
        candidates.sort(key=lambda r: throughput(r) or 0.0)  # stable
        merged.append(candidates[(len(candidates) - 1) // 2])
    out = dict(docs[0])
    out["merged_runs"] = len(docs)
    out["results"] = merged
    return out


def selftest():
    def median(*ops):
        runs = [{"results": [{"name": "row", "ops_per_sec": v}]} for v in ops]
        return merge(runs, [str(i) for i in range(len(runs))])["results"][0][
            "ops_per_sec"]

    # A baseline with one +20% outlier run is not raised by it, so an
    # unchanged candidate stays within the gate's 10%.
    assert median(100, 101, 120, 99, 100) == 100
    assert median(100, 99, 101, 100, 98) / 100 > 0.9
    # A candidate 15% slower on every run still reads 15% slower.
    assert median(85, 86, 84, 85, 85) / 100 < 0.9
    # Even N: the lower middle row; ns_per_op rows rank by inverse time.
    assert median(1, 4, 2, 3) == 2
    runs = [{"results": [{"name": "x", "ns_per_op": ns}]} for ns in (10, 30, 20)]
    assert merge(runs, ["a", "b", "c"])["results"][0]["ns_per_op"] == 20
    print("merge_bench selftest: ok")


def main(args):
    if args == ["--selftest"]:
        selftest()
        return
    if len(args) < 2:
        sys.exit("usage: merge_bench.py RUN1.json RUN2.json ... > "
                 "MEDIAN.json")
    docs = []
    for path in args:
        with open(path) as f:
            docs.append(json.load(f))
    json.dump(merge(docs, args), sys.stdout, indent=1)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
