#!/usr/bin/env python3
"""Gate perf-smoke metrics against a checked-in baseline.

Reads oblv-metrics-v1 JSON files (written by the bench harnesses via
OBLV_METRICS_JSON / --metrics-json) and checks them against the entries of
a baseline file.  Each check names a metric by path and one of:

  * "baseline": fail when value > baseline * (1 + tolerance_pct/100);
  * "max":      fail when value > max (absolute cap, e.g. an overhead
                budget or a deterministic upper bound);
  * "min":      fail when value < min (absolute floor, e.g. a
                throughput requirement);
  * "equals":   fail unless value == equals exactly (for deterministic
                outputs such as seeded congestion counts).

A check may also name a precondition on the host the bench ran on:

  "requires": {"metric": "gauges:host.hardware_concurrency", "min": 4}

The precondition metric is read from the check's own file and takes
"min" and/or "max". When it is unmet the check is not run: it prints
SKIP with the reason, counts as neither pass nor failure, and the
summary reports it as skipped. A missing precondition metric is an
error, like a missing checked metric.

Baseline format:

  {
    "tolerance_pct": 25.0,
    "checks": [
      {"file": "p4_metrics.json",
       "metric": "timers:routing.route_seconds:mean",
       "baseline": 0.025},
      {"file": "p5_metrics.json",
       "metric": "gauges:obs.overhead_pct",
       "max": 2.0}
    ]
  }

The metric path is "kind:name" for counters and gauges and
"kind:name:field" for timers (count/mean/stddev/min/max/total) and
histograms (count/sum/mean/p50/p90/p99).

Usage: check_bench.py --baseline bench/baselines/perf_smoke.json --dir perf
"""

import argparse
import json
import sys


def lookup(metrics, path):
    parts = path.split(":")
    if len(parts) not in (2, 3):
        raise KeyError(f"bad metric path '{path}'")
    kind, name = parts[0], parts[1]
    entry = metrics[kind][name]
    if len(parts) == 3:
        entry = entry[parts[2]]
    if not isinstance(entry, (int, float)):
        raise KeyError(f"metric path '{path}' is not scalar")
    return float(entry)


def run_check(check, value, tolerance_pct):
    """Returns (ok, description)."""
    if "equals" in check:
        want = float(check["equals"])
        return value == want, f"value {value} == {want}"
    if "max" in check:
        cap = float(check["max"])
        return value <= cap, f"value {value} <= max {cap}"
    if "min" in check:
        floor = float(check["min"])
        return value >= floor, f"value {value} >= min {floor}"
    if "baseline" in check:
        tol = float(check.get("tolerance_pct", tolerance_pct))
        cap = float(check["baseline"]) * (1.0 + tol / 100.0)
        return value <= cap, (
            f"value {value} <= baseline {check['baseline']} +{tol}% = {cap:g}"
        )
    raise KeyError("check needs one of 'equals', 'max', 'min', 'baseline'")


def unmet_precondition(check, metrics):
    """Returns why the check's precondition is unmet, or None."""
    requires = check.get("requires")
    if requires is None:
        return None
    value = lookup(metrics, requires["metric"])
    if "min" in requires and value < float(requires["min"]):
        return f"{requires['metric']} = {value:g} < {requires['min']}"
    if "max" in requires and value > float(requires["max"]):
        return f"{requires['metric']} = {value:g} > {requires['max']}"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True,
                        help="baseline JSON file with the checks")
    parser.add_argument("--dir", default=".",
                        help="directory holding the metrics JSON files")
    args = parser.parse_args()

    with open(args.baseline, encoding="utf-8") as f:
        baseline = json.load(f)
    tolerance_pct = float(baseline.get("tolerance_pct", 25.0))

    failures = 0
    skipped = 0
    for check in baseline["checks"]:
        path = f"{args.dir}/{check['file']}"
        try:
            with open(path, encoding="utf-8") as f:
                report = json.load(f)
            reason = unmet_precondition(check, report["metrics"])
            if reason is not None:
                print(f"[SKIP] {check['file']} {check['metric']}: "
                      f"precondition unmet: {reason}")
                skipped += 1
                continue
            value = lookup(report["metrics"], check["metric"])
            ok, description = run_check(check, value, tolerance_pct)
        except (OSError, KeyError, json.JSONDecodeError) as e:
            ok, description = False, f"error: {e}"
        status = "ok  " if ok else "FAIL"
        print(f"[{status}] {check['file']} {check['metric']}: {description}")
        failures += 0 if ok else 1

    skip_note = f"; {skipped} check(s) skipped, not run" if skipped else ""
    if failures:
        print(f"{failures} check(s) failed{skip_note}")
        return 1
    if skipped:
        print(f"every check that ran passed{skip_note}")
    else:
        print("all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
