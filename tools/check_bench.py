#!/usr/bin/env python3
"""Benchmark regression gate.

Compares freshly produced BENCH_*.json files against committed baselines
and fails (exit 1) when any metric regresses by more than the tolerance
(default 10%). Used by the CI bench-smoke job; the benches must run in the
same mode as the baselines were recorded in (DNSGUARD_BENCH_QUICK=1), where
virtual-time results are bit-for-bit deterministic.

Direction heuristics: metrics are higher-is-better (throughput,
events/sec) unless the key matches a lower-is-better pattern (latency,
cpu, p50/p90/p99, overhead). Standard errors ("*_se") are never
compared: a standard error has no better direction, and a quieter host
must not fail the gate.

The "counters" section is mostly informational (absolute counts
legitimately shift as code evolves): counters that appear or disappear
only warn. Three classes of counters do gate, with a wider tolerance
(default 20%): drop counters (keys containing ".drop." or "dropped")
fail when they *increase* beyond tolerance, and goodput counters
(completed / forwarded_to_ans / responses_relayed / responses_delivered)
fail when they *decrease* beyond tolerance — together they catch a guard
that silently starts shedding legitimate traffic. Event counters
("*events_dispatched*") fail when they *increase* beyond tolerance, so
the simulator cannot quietly grow its events per packet.

The "profile" section (per-label cost-attribution reports from
src/obs/profiler.h) is compared warn-only: a stage whose share of wall
time drifts beyond --profile-share-tolerance (absolute share points,
default 0.05), a stage present in the run but absent from the baseline
(or vice versa), or a whole label appearing/disappearing all warn but
never fail. Wall-clock shares are hardware-dependent, so the profile
gate stays advisory until per-machine baselines exist.

Usage:
  check_bench.py --baseline bench/baselines --current <dir> [--tolerance 0.1]
  check_bench.py --self-test
"""

import argparse
import fnmatch
import json
import os
import sys
import tempfile

LOWER_IS_BETTER_PATTERNS = [
    "*latency*",
    "*_ns",
    "*_us",
    "*_ms",
    "*p50*",
    "*p90*",
    "*p99*",
    "*cpu*",
    "*overhead*",
]

# Metric keys never compared: a standard error measures the host's noise,
# not the code, so neither direction is a regression.
UNGATED_METRIC_PATTERNS = ["*_se"]


def lower_is_better(key):
    k = key.lower()
    return any(fnmatch.fnmatch(k, pat) for pat in LOWER_IS_BETTER_PATTERNS)


def gated_metric(key):
    k = key.lower()
    return not any(fnmatch.fnmatch(k, pat) for pat in UNGATED_METRIC_PATTERNS)


# Counter keys that gate (everything else in "counters" is warn-only).
DROP_COUNTER_PATTERNS = ["*.drop.*", "*dropped*"]
GOODPUT_COUNTER_PATTERNS = [
    "*completed*",
    "*forwarded_to_ans*",
    "*responses_relayed*",
    "*responses_delivered*",
]
EVENT_COUNTER_PATTERNS = ["*events_dispatched*"]


def counter_class(key):
    """'drop', 'goodput', 'events', or None for informational counters."""
    k = key.lower()
    if any(fnmatch.fnmatch(k, pat) for pat in DROP_COUNTER_PATTERNS):
        return "drop"
    if any(fnmatch.fnmatch(k, pat) for pat in GOODPUT_COUNTER_PATTERNS):
        return "goodput"
    if any(fnmatch.fnmatch(k, pat) for pat in EVENT_COUNTER_PATTERNS):
        return "events"
    return None


def compare_counters(name, baseline, current, tolerance):
    """Returns (failures, warnings) for the "counters" section."""
    failures = []
    warnings = []
    for key in sorted(set(current) - set(baseline)):
        warnings.append(f"{name}: new counter '{key}' (no baseline yet)")
    for key, base_value in baseline.items():
        if not isinstance(base_value, (int, float)) or isinstance(
            base_value, bool
        ):
            continue
        cls = counter_class(key)
        if key not in current:
            if cls is None:
                warnings.append(
                    f"{name}: counter '{key}' missing from current run"
                )
            else:
                failures.append(
                    f"{name}: {cls} counter '{key}' missing from current run"
                )
            continue
        if cls is None or base_value == 0:
            continue
        cur_value = current[key]
        if not isinstance(cur_value, (int, float)) or isinstance(
            cur_value, bool
        ):
            failures.append(f"{name}: counter '{key}' is not numeric")
            continue
        change = (cur_value - base_value) / abs(base_value)
        if cls in ("drop", "events") and change > tolerance:
            failures.append(
                f"{name}: {cls} counter '{key}' increased beyond "
                f"{tolerance:.0%}: baseline {base_value:g} -> current "
                f"{cur_value:g} ({change:+.1%})"
            )
        elif cls == "goodput" and change < -tolerance:
            failures.append(
                f"{name}: goodput counter '{key}' decreased beyond "
                f"{tolerance:.0%}: baseline {base_value:g} -> current "
                f"{cur_value:g} ({change:+.1%})"
            )
    return failures, warnings


def compare_metrics(name, baseline, current, tolerance):
    """Returns a list of regression description strings (empty = pass)."""
    failures = []
    for key, base_value in baseline.items():
        if not isinstance(base_value, (int, float)) or isinstance(
            base_value, bool
        ):
            continue
        if not gated_metric(key):
            continue
        if key not in current:
            failures.append(f"{name}: metric '{key}' missing from current run")
            continue
        cur_value = current[key]
        if not isinstance(cur_value, (int, float)) or isinstance(
            cur_value, bool
        ):
            failures.append(f"{name}: metric '{key}' is not numeric")
            continue
        if base_value == 0:
            continue  # no meaningful relative comparison
        change = (cur_value - base_value) / abs(base_value)
        if lower_is_better(key):
            regressed = change > tolerance
            direction = "increased"
        else:
            regressed = change < -tolerance
            direction = "decreased"
        if regressed:
            failures.append(
                f"{name}: '{key}' {direction} beyond {tolerance:.0%} "
                f"tolerance: baseline {base_value:g} -> current {cur_value:g} "
                f"({change:+.1%})"
            )
    return failures


def profile_shares(profile):
    """Flattens a per-label profile section to {"label:parent>stage": share}.

    Accepts either {label: report} or a bare report (treated as one
    unnamed label). Edges without a "share" field (profile captured with
    no wall measurement) are skipped.
    """
    if not isinstance(profile, dict):
        return {}
    if isinstance(profile.get("stages"), list):
        profile = {"": profile}
    out = {}
    for label, report in profile.items():
        if not isinstance(report, dict):
            continue
        for edge in report.get("stages", []):
            share = edge.get("share")
            if not isinstance(share, (int, float)):
                continue
            key = f"{label}:{edge.get('parent')}>{edge.get('stage')}"
            out[key] = float(share)
    return out


def compare_profiles(name, baseline, current, share_tolerance):
    """Returns warnings only — the profile section never gates (yet)."""
    warnings = []
    base = profile_shares(baseline)
    cur = profile_shares(current)
    if not base and not cur:
        return warnings
    for key in sorted(set(cur) - set(base)):
        warnings.append(
            f"{name}: profile stage '{key}' present in run but absent "
            f"from baseline (share {cur[key]:.1%})"
        )
    for key in sorted(set(base) - set(cur)):
        warnings.append(
            f"{name}: profile stage '{key}' in baseline but absent from "
            f"this run"
        )
    for key in sorted(set(base) & set(cur)):
        drift = cur[key] - base[key]
        if abs(drift) > share_tolerance:
            warnings.append(
                f"{name}: profile stage '{key}' share drifted "
                f"{drift:+.1%} (baseline {base[key]:.1%} -> current "
                f"{cur[key]:.1%}, tolerance ±{share_tolerance:.0%})"
            )
    return warnings


def load_bench(path):
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    return doc.get("metrics", {}), doc.get("counters", {}), doc.get(
        "profile", {}
    )


def run_check(
    baseline_dir,
    current_dir,
    tolerance,
    counter_tolerance,
    profile_share_tolerance=0.05,
):
    baselines = sorted(
        f
        for f in os.listdir(baseline_dir)
        if f.startswith("BENCH_") and f.endswith(".json")
    )
    if not baselines:
        print(f"error: no BENCH_*.json baselines in {baseline_dir}")
        return 2

    failures = []
    warnings = []
    compared = 0
    for fname in baselines:
        current_path = os.path.join(current_dir, fname)
        if not os.path.exists(current_path):
            # A baseline without a fresh result means the bench did not run
            # in this job; skip rather than fail so the gate set can be a
            # subset of the baseline set.
            print(f"skip: {fname} (not produced by this run)")
            continue
        baseline_path = os.path.join(baseline_dir, fname)
        base_metrics, base_counters, base_profile = load_bench(baseline_path)
        cur_metrics, cur_counters, cur_profile = load_bench(current_path)
        failures.extend(
            compare_metrics(fname, base_metrics, cur_metrics, tolerance)
        )
        cfail, cwarn = compare_counters(
            fname, base_counters, cur_counters, counter_tolerance
        )
        failures.extend(cfail)
        warnings.extend(cwarn)
        warnings.extend(
            compare_profiles(
                fname, base_profile, cur_profile, profile_share_tolerance
            )
        )
        compared += 1
        print(
            f"compared: {fname} ({len(base_metrics)} metrics, "
            f"{len(base_counters)} counters) against {baseline_path}"
        )

    if compared == 0:
        print("error: no benches compared (nothing produced?)")
        return 2
    if warnings:
        print(f"\n{len(warnings)} warning(s) (non-fatal):")
        for w in warnings:
            print(f"  warn: {w}")
    if failures:
        print(f"\nFAIL: {len(failures)} regression(s):")
        for f in failures:
            print(f"  {f}")
        return 1
    print(
        f"\nOK: {compared} bench(es) within {tolerance:.0%} metric / "
        f"{counter_tolerance:.0%} counter tolerance"
    )
    return 0


def self_test():
    base = {"throughput_rps": 1000.0, "mean_latency_us": 50.0, "cpu": 0.5}

    # Unchanged results pass.
    assert compare_metrics("t", base, dict(base), 0.10) == []
    # Throughput 20% down: regression.
    worse = dict(base, throughput_rps=800.0)
    assert len(compare_metrics("t", base, worse, 0.10)) == 1
    # Throughput 5% down: inside tolerance.
    ok = dict(base, throughput_rps=950.0)
    assert compare_metrics("t", base, ok, 0.10) == []
    # Throughput up: improvement, never a failure.
    better = dict(base, throughput_rps=2000.0)
    assert compare_metrics("t", base, better, 0.10) == []
    # Latency 20% up: regression (lower-is-better heuristic).
    slow = dict(base, mean_latency_us=60.0)
    assert len(compare_metrics("t", base, slow, 0.10)) == 1
    # Latency down: improvement.
    fast = dict(base, mean_latency_us=10.0)
    assert compare_metrics("t", base, fast, 0.10) == []
    # CPU 20% up: regression.
    hot = dict(base, cpu=0.6)
    assert len(compare_metrics("t", base, hot, 0.10)) == 1
    # Missing metric: failure.
    missing = {k: v for k, v in base.items() if k != "cpu"}
    assert len(compare_metrics("t", base, missing, 0.10)) == 1
    # Synthetic >10% regression across the whole-file API.
    assert len(compare_metrics("t", {"rps": 100}, {"rps": 89}, 0.10)) == 1
    assert compare_metrics("t", {"rps": 100}, {"rps": 91}, 0.10) == []
    # Profiler overhead gate (table3): the ratio is lower-is-better, and its
    # standard error is never compared in either direction.
    gate = {"profiler_overhead_ratio": 1.008, "profiler_overhead_se": 0.0004}
    quiet = dict(gate, profiler_overhead_se=0.0002)
    assert compare_metrics("t", gate, quiet, 0.10) == []
    noisy = dict(gate, profiler_overhead_se=0.002)
    assert compare_metrics("t", gate, noisy, 0.10) == []
    cheaper = dict(gate, profiler_overhead_ratio=0.8)
    assert compare_metrics("t", gate, cheaper, 0.10) == []
    costlier = dict(gate, profiler_overhead_ratio=1.2)
    assert len(compare_metrics("t", gate, costlier, 0.10)) == 1

    # --- counters section ---
    cbase = {
        "guard.drop.bad_cookie": 1000,
        "guard.spoofs_dropped": 1000,
        "driver.completed": 500,
        "guard.forwarded_to_ans": 500,
        "sim.events_dispatched": 123456,
        "sim.queue_depth.max": 2000,
    }
    # Unchanged: clean.
    f, w = compare_counters("t", cbase, dict(cbase), 0.20)
    assert f == [] and w == []
    # New counter key: warn-only, never fails.
    f, w = compare_counters("t", cbase, dict(cbase, extra=1), 0.20)
    assert f == [] and len(w) == 1
    # Informational counter drifting wildly: not a failure.
    f, _ = compare_counters(
        "t", cbase, dict(cbase, **{"sim.queue_depth.max": 99999}), 0.20
    )
    assert f == []
    # Event count up 30%: regression; down: fine (fewer events per packet).
    f, _ = compare_counters(
        "t", cbase, dict(cbase, **{"sim.events_dispatched": 160493}), 0.20
    )
    assert len(f) == 1 and "events counter" in f[0], f
    f, _ = compare_counters(
        "t", cbase, dict(cbase, **{"sim.events_dispatched": 999}), 0.20
    )
    assert f == []
    # Drop counter up 30%: regression.
    f, _ = compare_counters(
        "t", cbase, dict(cbase, **{"guard.drop.bad_cookie": 1300}), 0.20
    )
    assert len(f) == 1
    # Drop counter down: fine (fewer drops is not a regression).
    f, _ = compare_counters(
        "t", cbase, dict(cbase, **{"guard.spoofs_dropped": 100}), 0.20
    )
    assert f == []
    # Goodput down 30%: regression; up: fine.
    f, _ = compare_counters(
        "t", cbase, dict(cbase, **{"driver.completed": 350}), 0.20
    )
    assert len(f) == 1
    f, _ = compare_counters(
        "t", cbase, dict(cbase, **{"guard.forwarded_to_ans": 900}), 0.20
    )
    assert f == []
    # Within counter tolerance: fine both ways.
    f, _ = compare_counters(
        "t",
        cbase,
        dict(
            cbase,
            **{"guard.drop.bad_cookie": 1150, "driver.completed": 450},
        ),
        0.20,
    )
    assert f == []
    # Gated counter disappearing: failure; informational one: warning.
    f, w = compare_counters(
        "t",
        {k: v for k, v in cbase.items()},
        {k: v for k, v in cbase.items() if k != "driver.completed"},
        0.20,
    )
    assert len(f) == 1 and w == []
    f, w = compare_counters(
        "t",
        cbase,
        {k: v for k, v in cbase.items() if k != "sim.queue_depth.max"},
        0.20,
    )
    assert f == [] and len(w) == 1

    # --- counters-only documents (no "metrics" key at all) ---
    # Some benches gate purely on counters (e.g. deterministic goodput /
    # drop tallies); the whole-file pipeline must treat a missing
    # "metrics" section as empty, not as an error, and still trip on a
    # counter regression.
    counters_only = {
        "counters": {
            "population.completed": 1000,
            "guard.spoofs_dropped": 50,
            "population.offered": 1400,
        }
    }
    with tempfile.TemporaryDirectory() as base_dir, tempfile.TemporaryDirectory() as cur_dir:
        name = "BENCH_counters_only.json"

        def write(directory, doc):
            with open(
                os.path.join(directory, name), "w", encoding="utf-8"
            ) as f:
                json.dump(doc, f)

        write(base_dir, counters_only)
        write(cur_dir, counters_only)
        assert run_check(base_dir, cur_dir, 0.10, 0.20) == 0
        # Goodput counter halves: the gate must fail without any metrics.
        write(
            cur_dir,
            {
                "counters": dict(
                    counters_only["counters"],
                    **{"population.completed": 500},
                )
            },
        )
        assert run_check(base_dir, cur_dir, 0.10, 0.20) == 1
        # Informational counter drifting in a counters-only doc: clean.
        write(
            cur_dir,
            {
                "counters": dict(
                    counters_only["counters"],
                    **{"population.offered": 9999},
                )
            },
        )
        assert run_check(base_dir, cur_dir, 0.10, 0.20) == 0

    # --- profile section (warn-only, never gates) ---
    def prof(shares):
        return {
            "run": {
                "enabled": True,
                "stages": [
                    {
                        "parent": "root",
                        "stage": stage,
                        "total_ns": 1.0,
                        "share": share,
                    }
                    for stage, share in shares.items()
                ],
            }
        }

    pbase = prof({"sim.dispatch": 0.40, "guard.verify": 0.30})
    # Unchanged: clean.
    assert compare_profiles("t", pbase, prof(
        {"sim.dispatch": 0.40, "guard.verify": 0.30}
    ), 0.05) == []
    # Drift within tolerance: clean.
    assert compare_profiles("t", pbase, prof(
        {"sim.dispatch": 0.43, "guard.verify": 0.28}
    ), 0.05) == []
    # Drift beyond tolerance: exactly one warning, zero failures by
    # construction (compare_profiles only ever returns warnings).
    w = compare_profiles("t", pbase, prof(
        {"sim.dispatch": 0.55, "guard.verify": 0.30}
    ), 0.05)
    assert len(w) == 1 and "drifted" in w[0], w
    # Stage present in run but absent from baseline: warn-only.
    w = compare_profiles("t", pbase, prof(
        {"sim.dispatch": 0.40, "guard.verify": 0.30, "guard.mint": 0.10}
    ), 0.05)
    assert len(w) == 1 and "absent from baseline" in w[0], w
    # Stage in baseline missing from run: warn-only.
    w = compare_profiles("t", pbase, prof({"sim.dispatch": 0.40}), 0.05)
    assert len(w) == 1 and "absent from this run" in w[0], w
    # Baseline with no profile section at all vs run with one: warns per
    # stage, still no failure path.
    w = compare_profiles("t", {}, pbase, 0.05)
    assert len(w) == 2, w
    # Bare-report form (flight-recorder style) is accepted.
    bare = {"stages": [{"parent": "root", "stage": "x", "share": 0.5}]}
    assert profile_shares(bare) == {":root>x": 0.5}

    # Whole-file pipeline: a profile drift must stay exit-0.
    with tempfile.TemporaryDirectory() as base_dir, tempfile.TemporaryDirectory() as cur_dir:
        name = "BENCH_profile_drift.json"

        def writep(directory, profile):
            with open(
                os.path.join(directory, name), "w", encoding="utf-8"
            ) as f:
                json.dump({"metrics": {"rps": 100}, "profile": profile}, f)

        writep(base_dir, pbase)
        writep(cur_dir, prof({"sim.dispatch": 0.90, "guard.rl1": 0.05}))
        assert run_check(base_dir, cur_dir, 0.10, 0.20) == 0

    print("self-test: OK")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", help="directory with baseline JSONs")
    parser.add_argument("--current", help="directory with fresh JSONs")
    parser.add_argument("--tolerance", type=float, default=0.10)
    parser.add_argument(
        "--counter-tolerance",
        type=float,
        default=0.20,
        help="relative tolerance for gated drop/goodput counters",
    )
    parser.add_argument(
        "--profile-share-tolerance",
        type=float,
        default=0.05,
        help="absolute share-point tolerance for warn-only profile diffs",
    )
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        return self_test()
    if not args.baseline or not args.current:
        parser.error("--baseline and --current are required (or --self-test)")
    return run_check(
        args.baseline,
        args.current,
        args.tolerance,
        args.counter_tolerance,
        args.profile_share_tolerance,
    )


if __name__ == "__main__":
    sys.exit(main())
