#!/usr/bin/env python3
"""Offline analyzer for ape.obs.v1 snapshots with a "timeseries" section.

`bench_smoke --timeline-out` dumps the run's windowed telemetry (per-window
counter deltas, gauge readings, histogram summaries) next to the end-of-run
totals, plus the SLO evaluator's alert transition log.  This tool re-checks
the timeline contract independently of the C++ Timeline::reconcile code:

  * window monotonicity — indices consecutive from 0, each window starting
    exactly where the previous one ended, end >= start;
  * delta-sum reconciliation — every counter's window deltas sum to its
    end-of-run snapshot value, every stable histogram's window counts sum
    to its final sample count (the windows *partition* the run);
  * alert state-machine legality — per rule, the transition log forms a
    chain (each `from` equals the previous `to`, starting from inactive),
    a resolve only ever leaves `firing`, and the fired/resolved tallies
    match the log.

Usage:
  tools/timeline_report.py timeline.json            # per-window + alert report
  tools/timeline_report.py --validate timeline.json # invariants only, exit 1
                                                    # on violation (CI lane)
  tools/timeline_report.py --validate --expect bench/baselines/smoke_timeline_expect.json \\
      timeline.json                                 # also pin run expectations

The fleet testbed (src/testbed/fleet_testbed) emits the same schema: enable
FleetParams::enable_timeline plus an slo_rules entry such as

  stale-redirects: dir.stale_redirects <= 0 over 1 windows

and the alert tables here show each window where a cooperative-cache
directory answer went stale (the owning AP evicted the object between
PUBLISH and the peer relay).  tests/test_fleet.cpp pins that alert's
firing transition in the retract-racing-a-lookup scenario.
"""

from __future__ import annotations

import argparse
import json
import sys

LEGAL_STATES = ("inactive", "pending", "firing")


def load(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        sys.exit(f"error: cannot read {path}: {err}")
    if doc.get("schema") != "ape.obs.v1":
        sys.exit(f"error: {path}: expected schema 'ape.obs.v1', got {doc.get('schema')!r}")
    if "timeseries" not in doc:
        sys.exit(f"error: {path}: no 'timeseries' section "
                 "(was the run missing --timeline-out / enable_timeline?)")
    return doc


def check_monotonicity(windows: list[dict]) -> list[str]:
    errors = []
    prev_end = 0
    for i, w in enumerate(windows):
        if w.get("index") != i:
            errors.append(f"window {i}: index {w.get('index')} is not consecutive")
        if w["end_us"] < w["start_us"]:
            errors.append(f"window {i}: end {w['end_us']}us precedes start {w['start_us']}us")
        if w["start_us"] != prev_end:
            errors.append(f"window {i}: start {w['start_us']}us != previous end {prev_end}us")
        prev_end = w["end_us"]
    return errors


def check_delta_sums(doc: dict) -> list[str]:
    errors = []
    windows = doc["timeseries"]["windows"]

    sums: dict[str, int] = {}
    for w in windows:
        for name, delta in w.get("counters", {}).items():
            sums[name] = sums.get(name, 0) + delta
    totals = doc.get("counters", {})
    for name, total in totals.items():
        got = sums.pop(name, 0)
        if got != total:
            errors.append(f"counter {name}: window deltas sum to {got}, snapshot says {total}")
    for name, got in sums.items():
        errors.append(f"counter {name}: windows carry {got} but snapshot has no such counter")

    counts: dict[str, int] = {}
    for w in windows:
        for name, h in w.get("histograms", {}).items():
            counts[name] = counts.get(name, 0) + h["count"]
    for name, hist in doc.get("histograms", {}).items():
        got = counts.pop(name, 0)
        if got != hist["count"]:
            errors.append(f"histogram {name}: window counts sum to {got}, "
                          f"snapshot holds {hist['count']} samples")
    for name, got in counts.items():
        errors.append(f"histogram {name}: windows carry {got} samples "
                      "but snapshot has no such histogram")
    return errors


def check_alerts(doc: dict) -> list[str]:
    alerts = doc.get("alerts")
    if alerts is None:
        return []
    errors = []
    window_count = len(doc["timeseries"]["windows"])

    per_rule: dict[str, list[dict]] = {}
    last_window: dict[str, int] = {}
    for i, t in enumerate(alerts.get("transitions", [])):
        for field in ("window", "rule", "from", "to"):
            if field not in t:
                errors.append(f"transition {i}: missing field {field!r}")
        if t.get("from") not in LEGAL_STATES or t.get("to") not in LEGAL_STATES:
            errors.append(f"transition {i}: illegal state "
                          f"{t.get('from')!r} -> {t.get('to')!r}")
            continue
        if t["from"] == t["to"]:
            errors.append(f"transition {i}: self-transition in state {t['from']!r}")
        if t["window"] >= window_count:
            errors.append(f"transition {i}: window {t['window']} out of range "
                          f"(only {window_count} windows)")
        rule = t.get("rule", "?")
        if rule in last_window and t["window"] < last_window[rule]:
            errors.append(f"rule {rule}: transitions out of window order "
                          f"({t['window']} after {last_window[rule]})")
        last_window[rule] = t.get("window", 0)
        per_rule.setdefault(rule, []).append(t)

    fired = resolved = 0
    for rule, transitions in sorted(per_rule.items()):
        state = "inactive"
        for t in transitions:
            if t["from"] != state:
                errors.append(f"rule {rule}: transition at window {t['window']} leaves "
                              f"{t['from']!r} but the rule was in {state!r}")
            if t["to"] == "firing":
                fired += 1
            if t["from"] == "firing" and t["to"] == "inactive":
                resolved += 1
            if t["to"] == "inactive" and t["from"] == "pending" and state == "inactive":
                errors.append(f"rule {rule}: resolved at window {t['window']} "
                              "without ever leaving inactive")
            state = t["to"]

    if alerts.get("fired", 0) != fired:
        errors.append(f"alerts.fired is {alerts.get('fired')} but the transition log "
                      f"shows {fired} firing transition(s)")
    if alerts.get("resolved", 0) != resolved:
        errors.append(f"alerts.resolved is {alerts.get('resolved')} but the transition "
                      f"log shows {resolved} resolve(s)")

    final = {r["name"]: r["state"] for r in alerts.get("rules", [])}
    for rule, transitions in per_rule.items():
        if rule not in final:
            errors.append(f"rule {rule}: appears in transitions but not in alerts.rules")
        elif transitions and final[rule] != transitions[-1]["to"]:
            errors.append(f"rule {rule}: final state {final[rule]!r} does not match "
                          f"last transition -> {transitions[-1]['to']!r}")
    return errors


def check_expectations(doc: dict, expect_path: str) -> list[str]:
    try:
        with open(expect_path, encoding="utf-8") as fh:
            expect = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        return [f"cannot read expectations {expect_path}: {err}"]
    errors = []
    windows = doc["timeseries"]["windows"]
    if "windows" in expect and len(windows) != expect["windows"]:
        errors.append(f"expected {expect['windows']} windows, snapshot has {len(windows)}")
    for name, value in expect.get("counters", {}).items():
        got = doc.get("counters", {}).get(name)
        if got != value:
            errors.append(f"expected counter {name}={value}, snapshot has {got}")
    alerts = doc.get("alerts", {})
    exp_alerts = expect.get("alerts", {})
    for field in ("fired", "resolved"):
        if field in exp_alerts and alerts.get(field) != exp_alerts[field]:
            errors.append(f"expected alerts.{field}={exp_alerts[field]}, "
                          f"snapshot has {alerts.get(field)}")
    final = {r["name"]: r["state"] for r in alerts.get("rules", [])}
    for rule, state in exp_alerts.get("final", {}).items():
        if final.get(rule) != state:
            errors.append(f"expected rule {rule} to end {state!r}, "
                          f"snapshot has {final.get(rule)!r}")
    return errors


def print_table(header: list[str], rows: list[list[str]]) -> None:
    widths = [max(len(header[i]), *(len(r[i]) for r in rows)) if rows else len(header[i])
              for i in range(len(header))]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    print("  ".join("-" * w for w in widths))
    for r in rows:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)))


def report(doc: dict) -> None:
    ts = doc["timeseries"]
    windows = ts["windows"]
    print(f"{len(windows)} windows, interval {ts['interval_us'] / 1e6:.0f}s\n")

    print("Per-window activity:")
    rows = []
    for w in windows:
        fetches = w.get("counters", {}).get("run.object_fetches", 0)
        hit_ratio = w.get("gauges", {}).get("ap.cache.hit_ratio")
        total = w.get("histograms", {}).get("client.total_ms")
        rows.append([
            str(w["index"]),
            f"{w['start_us'] / 1e6:.0f}-{w['end_us'] / 1e6:.0f}s",
            str(sum(w.get("counters", {}).values())),
            f"{hit_ratio:.3f}" if hit_ratio is not None else "-",
            f"{total['p99']:.1f}" if total else "-",
            str(total["count"]) if total else "0",
        ])
    print_table(["window", "span", "Σdeltas", "hit_ratio", "total p99 ms", "samples"], rows)

    alerts = doc.get("alerts")
    if alerts:
        print(f"\nAlerts: {alerts.get('fired', 0)} fired, "
              f"{alerts.get('resolved', 0)} resolved")
        rows = [[str(t["window"]), t["rule"], t["from"], t["to"], f"{t.get('value', 0):g}"]
                for t in alerts.get("transitions", [])]
        if rows:
            print_table(["window", "rule", "from", "to", "value"], rows)
        rows = [[r["name"], r["state"],
                 f"{r['metric']} {r['op']} {r['threshold']:g} over {r['for_windows']}"]
                for r in alerts.get("rules", [])]
        if rows:
            print("\nFinal rule states:")
            print_table(["rule", "state", "condition"], rows)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("snapshot", help="ape.obs.v1 JSON written by --timeline-out")
    parser.add_argument("--validate", action="store_true",
                        help="check invariants; exit 1 on any violation")
    parser.add_argument("--expect", metavar="JSON",
                        help="expectations file pinning window count / counter "
                             "totals / alert outcomes")
    args = parser.parse_args()

    doc = load(args.snapshot)
    errors = check_monotonicity(doc["timeseries"]["windows"])
    errors += check_delta_sums(doc)
    errors += check_alerts(doc)
    if args.expect:
        errors += check_expectations(doc, args.expect)

    if errors:
        for e in errors:
            print(f"error: {e}", file=sys.stderr)
        print(f"FAIL: {len(errors)} violation(s) in {args.snapshot}", file=sys.stderr)
        return 1

    if args.validate:
        n = len(doc["timeseries"]["windows"])
        print(f"OK: {n} windows validated; deltas reconcile exactly and the "
              "alert log is legal")
        return 0

    report(doc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
