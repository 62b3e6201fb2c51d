#!/usr/bin/env python3
"""Offline analyzer for ape.obs.v1 snapshots with an "mrc" section.

`bench_mrc --mrc-out` dumps the cache-analytics plane (DESIGN.md §5l): per-AP
SHARDS/oracle miss-ratio curves, the eviction-cause ledger, and the per-app
hit attribution, plus the fleet rollup.  This tool re-checks the plane's
contracts independently of the C++ code:

  * curve sanity — per profiler, point capacities strictly increasing,
    hit_weight cumulative (strictly increasing, zero-weight buckets are
    skipped at export), miss_ratio nonincreasing and exactly
    1 - hit_weight / total_weight at every point;
  * weight conservation — cold + overflow + reuse (last hit_weight) weight
    sums to total_weight, and sampled <= accesses;
  * rollup consistency — the fleet rollup's evict ledger and totals equal
    the per-AP sums.

Usage:
  tools/mrc_report.py mrc.json             # ASCII curves + what-if tables
  tools/mrc_report.py --validate mrc.json  # invariants only, exit 1 on
                                           # violation (CI lane)

The what-if table evaluates each profiler's curve at 0.5x / 1x / 2x / 4x of
the AP's configured capacity — the provisioning question the plane exists to
answer ("what does the hit ratio do if this AP had twice the DRAM?").
"""

from __future__ import annotations

import argparse
import json
import sys

CAUSES = ("capacity", "expired", "replaced", "invalidated", "cleared")
WHAT_IF = (0.5, 1.0, 2.0, 4.0)
# format_double emits shortest-round-trip doubles, so parsed values are
# bit-exact; the slack only covers the summation-order difference between
# this re-check and the C++ accumulation.
REL_TOL = 1e-9


def load(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        sys.exit(f"error: cannot read {path}: {err}")
    if doc.get("schema") != "ape.obs.v1":
        sys.exit(f"error: {path}: expected schema 'ape.obs.v1', got {doc.get('schema')!r}")
    if "mrc" not in doc:
        sys.exit(f"error: {path}: no 'mrc' section "
                 "(was the run missing --mrc-out / enable_analytics?)")
    return doc


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def check_profiler(where: str, label: str, prof: dict) -> list[str]:
    errors = []
    total = prof["total_weight"]
    points = prof["points"]
    if prof.get("sampled", 0) > prof.get("accesses", 0):
        errors.append(f"{where}/{label}: sampled {prof['sampled']} exceeds "
                      f"accesses {prof['accesses']}")
    prev_cap = 0
    prev_hit = 0.0
    prev_miss = 1.0 + REL_TOL
    for i, p in enumerate(points):
        at = f"{where}/{label} point {i} (cap {p['capacity_bytes']})"
        if p["capacity_bytes"] <= prev_cap:
            errors.append(f"{at}: capacity not strictly increasing "
                          f"({p['capacity_bytes']} after {prev_cap})")
        if p["hit_weight"] <= prev_hit:
            errors.append(f"{at}: hit_weight not strictly increasing "
                          f"({p['hit_weight']} after {prev_hit})")
        if p["miss_ratio"] > prev_miss + REL_TOL:
            errors.append(f"{at}: miss_ratio increases "
                          f"({p['miss_ratio']} after {prev_miss})")
        if not -REL_TOL <= p["miss_ratio"] <= 1.0 + REL_TOL:
            errors.append(f"{at}: miss_ratio {p['miss_ratio']} outside [0, 1]")
        if total > 0 and not close(p["miss_ratio"], 1.0 - p["hit_weight"] / total):
            errors.append(f"{at}: miss_ratio {p['miss_ratio']} != "
                          f"1 - hit_weight/total_weight "
                          f"({1.0 - p['hit_weight'] / total})")
        prev_cap = p["capacity_bytes"]
        prev_hit = p["hit_weight"]
        prev_miss = p["miss_ratio"]
    reuse = points[-1]["hit_weight"] if points else 0.0
    parts = prof["cold_weight"] + prof["overflow_weight"] + reuse
    if not close(parts, total):
        errors.append(f"{where}/{label}: cold {prof['cold_weight']} + overflow "
                      f"{prof['overflow_weight']} + reuse {reuse} = {parts} "
                      f"!= total_weight {total}")
    return errors


def check_rollup(doc: dict) -> list[str]:
    errors = []
    aps = doc["mrc"]["aps"]
    rollup = doc["mrc"]["rollup"]
    for cause in CAUSES + ("doa",):
        want = sum(ap["evict"][cause] for ap in aps)
        got = rollup["evict"][cause]
        if got != want:
            errors.append(f"rollup: evict.{cause} {got} != per-AP sum {want}")
    for field in ("hits", "misses", "delegations"):
        want = sum(ap["totals"][field] for ap in aps)
        got = rollup["totals"][field]
        if got != want:
            errors.append(f"rollup: totals.{field} {got} != per-AP sum {want}")
    for label, prof in rollup["profilers"].items():
        merged = [p for ap in aps
                  if label in ap["profilers"]
                  and ap["profilers"][label]["bucket_bytes"] == prof["bucket_bytes"]
                  for p in [ap["profilers"][label]]]
        for field in ("accesses", "sampled"):
            want = sum(p[field] for p in merged)
            if prof[field] != want:
                errors.append(f"rollup/{label}: {field} {prof[field]} != "
                              f"per-AP sum {want}")
        want_total = sum(p["total_weight"] for p in merged)
        if not close(prof["total_weight"], want_total):
            errors.append(f"rollup/{label}: total_weight {prof['total_weight']} "
                          f"!= per-AP sum {want_total}")
    return errors


def validate(doc: dict) -> list[str]:
    errors = []
    for ap in doc["mrc"]["aps"]:
        where = ap["name"]
        for label, prof in ap["profilers"].items():
            errors += check_profiler(where, label, prof)
    for label, prof in doc["mrc"]["rollup"]["profilers"].items():
        errors += check_profiler("rollup", label, prof)
    errors += check_rollup(doc)
    return errors


def miss_ratio_at(prof: dict, capacity: float) -> float:
    """Step interpolation: the last plotted point at or below `capacity`
    (matches MrcProfiler::miss_ratio_at's bucket cumulation)."""
    ratio = 1.0
    for p in prof["points"]:
        if p["capacity_bytes"] > capacity:
            break
        ratio = p["miss_ratio"]
    return ratio


def fmt_bytes(n: float) -> str:
    if n >= 1e9:
        return f"{n / 1e9:.2f}GB"
    if n >= 1e6:
        return f"{n / 1e6:.1f}MB"
    return f"{n / 1e3:.0f}KB"


def print_table(header: list[str], rows: list[list[str]]) -> None:
    widths = [max(len(header[i]), *(len(r[i]) for r in rows)) if rows else len(header[i])
              for i in range(len(header))]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    print("  ".join("-" * w for w in widths))
    for r in rows:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)))


def ascii_curve(prof: dict, width: int = 56, rows: int = 16) -> None:
    points = prof["points"]
    if not points:
        print("  (empty curve)")
        return
    max_cap = points[-1]["capacity_bytes"]
    step = max_cap / rows
    for i in range(1, rows + 1):
        cap = step * i
        miss = miss_ratio_at(prof, cap)
        bar = "#" * round(miss * width)
        print(f"  {fmt_bytes(cap):>9} |{bar:<{width}}| {miss:.3f}")


def report_ap(ap: dict) -> None:
    totals = ap["totals"]
    lookups = totals["hits"] + totals["misses"] + totals["delegations"]
    served = totals["hits"] + totals["delegations"]
    print(f"\n=== {ap['name']} (capacity {fmt_bytes(ap['capacity_bytes'])}) ===")
    print(f"{lookups} lookups over {len(ap['apps'])} apps: "
          f"{totals['hits']} hits, {totals['misses']} misses, "
          f"{totals['delegations']} delegations "
          f"(served ratio {served / lookups:.3f})" if lookups else "no lookups")

    evict = ap["evict"]
    ledger = ", ".join(f"{cause} {evict[cause]}" for cause in CAUSES if evict[cause])
    print(f"evictions: {ledger or 'none'}; dead-on-arrival {evict['doa']} "
          f"(ratio {ap['doa_ratio']:.3f})")

    for label, prof in ap["profilers"].items():
        print(f"\n  {label}: rate {prof['current_rate']:.3f}, "
              f"{prof['sampled']}/{prof['accesses']} accesses sampled, "
              f"{len(prof['points'])} curve points")
        ascii_curve(prof)

    print("\n  What-if capacity table (miss ratio per profiler):")
    header = ["capacity"] + list(ap["profilers"])
    rows = []
    for mult in WHAT_IF:
        cap = ap["capacity_bytes"] * mult
        row = [f"{mult:g}x = {fmt_bytes(cap)}"]
        for prof in ap["profilers"].values():
            row.append(f"{miss_ratio_at(prof, cap):.3f}")
        rows.append(row)
    print_table(header, rows)

    top = sorted(ap["apps"].items(),
                 key=lambda kv: kv[1]["hits"] + kv[1]["misses"] + kv[1]["delegations"],
                 reverse=True)[:8]
    rows = []
    for app, tally in top:
        n = tally["hits"] + tally["misses"] + tally["delegations"]
        rows.append([app, str(n), str(tally["hits"]), str(tally["misses"]),
                     str(tally["delegations"]),
                     f"{tally['hits'] / n:.3f}" if n else "-"])
    print("\n  Top apps by lookups:")
    print_table(["app", "lookups", "hits", "misses", "deleg", "hit_ratio"], rows)


def report(doc: dict) -> None:
    aps = doc["mrc"]["aps"]
    for ap in aps:
        report_ap(ap)
    if len(aps) > 1:
        rollup = doc["mrc"]["rollup"]
        totals = rollup["totals"]
        print(f"\n=== fleet rollup ({len(aps)} APs) ===")
        print(f"totals: {totals['hits']} hits, {totals['misses']} misses, "
              f"{totals['delegations']} delegations")
        for label, prof in rollup["profilers"].items():
            print(f"\n  {label} (merged):")
            ascii_curve(prof)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("snapshot", help="ape.obs.v1 JSON written by --mrc-out")
    parser.add_argument("--validate", action="store_true",
                        help="check invariants; exit 1 on any violation")
    args = parser.parse_args()

    doc = load(args.snapshot)
    errors = validate(doc)
    if errors:
        for e in errors:
            print(f"error: {e}", file=sys.stderr)
        print(f"FAIL: {len(errors)} violation(s) in {args.snapshot}", file=sys.stderr)
        return 1

    if args.validate:
        aps = doc["mrc"]["aps"]
        curves = sum(len(ap["profilers"]) for ap in aps)
        print(f"OK: {len(aps)} AP(s), {curves} curve(s) validated; curves are "
              "monotone, weights conserve, and the rollup sums the APs")
        return 0

    report(doc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
