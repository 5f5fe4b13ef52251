#!/usr/bin/env python3
"""Diff two benchmark JSON files and flag regressions.

The fig*/table* binaries emit one JSON object:
{"benchmark": <name>, ..., "results": [{"name": ..., ...}, ...]}.
This script matches `results` rows by `name` between a baseline file and a
candidate file and compares them per metric. Two tiers of comparison:

  * Throughput tier (default): the `throughput` pseudo-metric
    (`ops_per_sec`, falling back to the inverse of `ns_per_op` or
    `seconds`), higher-is-better, tolerance --threshold percent (default
    10). Timing is noisy, so this tier is statistical.
  * Metrics tier (--exact): every numeric field shared by both rows —
    except the timing-derived fields, which are never deterministic — must
    match bit-exactly. The hit-rate replays are seeded and clockless, so
    the goldens under bench/baselines/metrics/ are diffed at zero
    tolerance.

All failing rows and metrics are reported before exiting — a second
regression is never masked behind the first.

Usage:
    compare_bench.py BASELINE.json CANDIDATE.json [--threshold PCT]
    compare_bench.py BASELINE.json CANDIDATE.json --exact
    compare_bench.py --selftest

`--selftest` runs the built-in self-checks (no pytest needed) and is
exercised by the metrics-regression CI job.
"""

import argparse
import json
import math
import sys

# Fields derived from wall-clock time: meaningless to compare exactly, and
# already covered by the throughput tier.
NOISY_FIELDS = {"seconds", "ops_per_sec", "ns_per_op",
                "speedup_vs_single_thread"}
NOISY_SUFFIXES = ("_us", "_ns", "_ms", "_per_sec")


class CompareError(Exception):
    """Structural problem that makes the comparison itself impossible."""


def load_doc(path):
    with open(path) as f:
        return json.load(f)


def rows_from_doc(doc, label):
    if "results" not in doc or not isinstance(doc["results"], list):
        raise CompareError(f"{label}: no 'results' array "
                           "(not a benchmark JSON?)")
    rows = {}
    for row in doc["results"]:
        name = row.get("name")
        if name is None:
            raise CompareError(f"{label}: result row without 'name': {row}")
        if name in rows:
            raise CompareError(f"{label}: duplicate result name {name!r}")
        rows[name] = row
    return doc.get("benchmark", "?"), rows


def throughput(row):
    """Higher-is-better throughput pseudo-metric for a row."""
    if row.get("ops_per_sec"):
        return float(row["ops_per_sec"])
    if row.get("ns_per_op"):
        return 1e9 / float(row["ns_per_op"])
    if row.get("seconds"):
        return 1.0 / float(row["seconds"])
    return None


def is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def deterministic_fields(base_row, cand_row):
    """Numeric fields shared by both rows that --exact should pin."""
    fields = []
    for key, v in base_row.items():
        if key == "name" or key in NOISY_FIELDS:
            continue
        if key.endswith(NOISY_SUFFIXES):
            continue
        if is_number(v) and is_number(cand_row.get(key)):
            fields.append(key)
    return fields


def compare_docs(base_doc, cand_doc, exact_all, threshold=10.0,
                 base_label="baseline", cand_label="candidate", emit=print):
    """Compare two loaded benchmark docs: field by field with `exact_all`,
    else by throughput, failing a row that lost more than `threshold`
    percent.

    Returns the list of failure strings (empty = pass). Structural errors
    raise CompareError. Every failing row/metric is collected; nothing
    short-circuits.
    """
    base_name, base = rows_from_doc(base_doc, base_label)
    cand_name, cand = rows_from_doc(cand_doc, cand_label)
    if base_name != cand_name:
        emit(f"warning: comparing different benchmarks "
             f"({base_name!r} vs {cand_name!r})")

    matched = sorted(set(base) & set(cand))
    if not matched:
        raise CompareError("no result names in common between the two files")
    failures = []
    for name in sorted(set(base) ^ set(cand)):
        which = base_label if name in base else cand_label
        msg = f"{name!r} only in {which}"
        if exact_all:
            # In exact mode a missing/extra row is itself a golden mismatch.
            failures.append(f"row set differs: {msg}")
        else:
            emit(f"note: {msg}")

    width = max(len(n) for n in matched)

    if exact_all:
        for name in matched:
            fields = deterministic_fields(base[name], cand[name])
            bad = [f for f in fields
                   if base[name][f] != cand[name][f]]
            if bad:
                for f in bad:
                    failures.append(
                        f"{name}: {f} changed "
                        f"{base[name][f]!r} -> {cand[name][f]!r}")
                emit(f"{name:<{width}}  MISMATCH ({', '.join(bad)})")
            else:
                emit(f"{name:<{width}}  exact match "
                     f"({len(fields)} fields)")
        return failures

    log_ratios = []
    emit(f"{'row':<{width}}  {'baseline':>12}  {'candidate':>12}  "
         f"{'delta':>8}   [throughput]")
    for name in matched:
        b = throughput(base[name])
        c = throughput(cand[name])
        if b is None or c is None or b <= 0 or c <= 0:
            emit(f"{name:<{width}}  (no comparable 'throughput' metric)")
            continue
        delta_pct = (c / b - 1.0) * 100.0
        log_ratios.append(math.log(c / b))
        flag = ""
        if delta_pct < -threshold:
            failures.append(f"{name}: throughput regressed "
                            f"{delta_pct:+.1f}% (threshold -{threshold:.1f}%)")
            flag = "  <-- REGRESSION"
        emit(f"{name:<{width}}  {b:>12.4f}  {c:>12.4f}  "
             f"{delta_pct:>+7.1f}%{flag}")
    if log_ratios:
        gmean_pct = (math.exp(sum(log_ratios) / len(log_ratios)) - 1.0) * 100
        emit(f"geometric-mean throughput delta: {gmean_pct:+.1f}% "
             f"over {len(log_ratios)} rows")
    return failures


def selftest():
    """Built-in checks for the comparison logic itself (no pytest)."""
    checks = []

    def check(label, fn):
        try:
            fn()
            checks.append((label, None))
        except AssertionError as e:
            checks.append((label, str(e) or "assertion failed"))

    def doc(rows, benchmark="selftest"):
        return {"benchmark": benchmark, "results": rows}

    quiet = lambda *_args, **_kw: None

    def run(base, cand, exact=False):
        return compare_docs(doc(base), doc(cand), exact, emit=quiet)

    def identical_exact_passes():
        rows = [{"name": "a", "hit_rate": 0.53125, "seconds": 1.0},
                {"name": "b", "hit_rate": 0.25}]
        assert run(rows, json.loads(json.dumps(rows)), exact=True) == []

    def ulp_drift_fails_exact_and_names_row():
        base = [{"name": "app19/combined", "hit_rate": 0.5312500000000000}]
        cand = [{"name": "app19/combined", "hit_rate": 0.5312500000000001}]
        fails = run(base, cand, exact=True)
        assert len(fails) == 1, fails
        assert "app19/combined" in fails[0] and "hit_rate" in fails[0], fails

    def exact_ignores_timing_noise():
        base = [{"name": "a", "hit_rate": 0.5, "seconds": 1.0,
                 "ops_per_sec": 100.0, "p99_us": 5.0}]
        cand = [{"name": "a", "hit_rate": 0.5, "seconds": 2.0,
                 "ops_per_sec": 50.0, "p99_us": 9.0}]
        assert run(base, cand, exact=True) == []

    def exact_flags_missing_row():
        base = [{"name": "a", "hit_rate": 0.5}, {"name": "b", "hit_rate": 0.5}]
        cand = [{"name": "a", "hit_rate": 0.5}]
        fails = run(base, cand, exact=True)
        assert any("'b'" in f for f in fails), fails

    def all_regressions_reported_not_just_first():
        base = [{"name": "a", "ops_per_sec": 100.0},
                {"name": "b", "ops_per_sec": 100.0},
                {"name": "c", "ops_per_sec": 100.0}]
        cand = [{"name": "a", "ops_per_sec": 50.0},
                {"name": "b", "ops_per_sec": 98.0},
                {"name": "c", "ops_per_sec": 40.0}]
        fails = run(base, cand)
        assert len(fails) == 2, fails
        assert any(f.startswith("a:") for f in fails), fails
        assert any(f.startswith("c:") for f in fails), fails

    def threshold_tolerates_small_regression():
        base = [{"name": "a", "ops_per_sec": 100.0}]
        cand = [{"name": "a", "ops_per_sec": 95.0}]
        assert run(base, cand) == []

    def structural_error_raises():
        try:
            compare_docs({"benchmark": "x"}, doc([{"name": "a"}]), False,
                         emit=quiet)
        except CompareError:
            return
        raise AssertionError("missing results array not rejected")

    for fn in (identical_exact_passes, ulp_drift_fails_exact_and_names_row,
               exact_ignores_timing_noise, exact_flags_missing_row,
               all_regressions_reported_not_just_first,
               threshold_tolerates_small_regression,
               structural_error_raises):
        check(fn.__name__, fn)

    bad = [(label, err) for label, err in checks if err]
    for label, err in checks:
        print(f"selftest: {label}: {'FAIL: ' + err if err else 'ok'}")
    print(f"selftest: {len(checks) - len(bad)}/{len(checks)} checks passed")
    return 1 if bad else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", nargs="?")
    parser.add_argument("candidate", nargs="?")
    parser.add_argument("--threshold", type=float, default=10.0,
                        help="max tolerated per-row throughput regression "
                             "in percent (default: 10)")
    parser.add_argument("--exact", action="store_true",
                        help="require every shared deterministic numeric "
                             "field to match bit-exactly (golden-metrics "
                             "gate)")
    parser.add_argument("--selftest", action="store_true",
                        help="run the built-in self-checks and exit")
    args = parser.parse_args()

    if args.selftest:
        return selftest()
    if not args.baseline or not args.candidate:
        parser.error("baseline and candidate files are required "
                     "(or use --selftest)")

    try:
        failures = compare_docs(load_doc(args.baseline),
                                load_doc(args.candidate),
                                args.exact, args.threshold,
                                base_label=args.baseline,
                                cand_label=args.candidate)
    except CompareError as e:
        sys.exit(str(e))

    for f in failures:
        print(f"FAIL: {f}")
    if failures:
        print(f"{len(failures)} failure(s) "
              f"({args.baseline} vs {args.candidate})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
