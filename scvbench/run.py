#!/usr/bin/env python3
"""Benchmark runner for sc-verify.

    python3 scvbench/run.py --workload proof|bughunt|coverage \
        --seed N --seconds S --trace 0|1

Builds the `scvbench-cell` binary from source (release, offline), then
runs passes over the workload's cells until S seconds have gone by. Each
cell runs in a process of its own, so its peak RSS is its own. Every
outcome is checked against the known-answer table in src/cells.rs.

--trace 0 reports the end-to-end metrics, medians over passes:
  setup_s          time from cell-process start until the search is
                   entered, summed over cells (s); each cell's figure is
                   the median of every cold set-up timed in the run
  verdict_s        search start to checked outcome, summed over cells (s)
  peak_rss_mb      largest peak RSS of any cell process (MB)
  bytes_per_state  peak RSS / states admitted, largest cell (B)
  pass_share       cells passing every check / cells run

--trace 1 runs every cell untraced and then traced (src/traced.rs) in each
pass and reports the per-layer metrics plus the tracing overhead.

Stdout ends with one JSON line: correct, attempted, failed, metrics.
attempted and failed count every cell process, set-up probes included;
the printed fail_share counts search runs only. A cell fails when it crashes, overruns its time limit, or gives a wrong
verdict, count or witness replay, or a witness with a serial reordering
where a genuine one is expected; any failure makes `correct` false and
the exit code 1. Where the table expects only a violation (tso, fig4), a
witness with a serial reordering makes the cell not pass (pass_share
drops) but does not fail it, because the verdict itself is right. The seed orders the cells within each pass and
picks the traced run's replay sample. See NOTES.md.
"""

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)

WORKLOADS = {
    "proof": ["serial-off", "serial-full"],
    "bughunt": ["msi-buggy", "mesi-buggy", "tso", "fig4"],
    "coverage": ["msi-cov"],
}

# Every run ends within this many seconds of its start (the build excepted).
RUN_LIMIT_S = 170.0
# No cell may take longer than this; an overrun is a failed cell.
CELL_LIMIT_S = 60.0
# Processes per cell and pass that only set up, to time cold set-up: one
# reading varies by a third or more, so setup_s is a median of many.
SETUP_PROBES = 64

END_TO_END = [
    ("setup_s", "s"),
    ("verdict_s", "s"),
    ("peak_rss_mb", "MB"),
    ("bytes_per_state", "B"),
    ("pass_share", "ratio"),
]

# Per-layer metrics, name -> unit. RATIOS are ratios of sums over the
# workload's cells, TOTALS are sums over them (see src/traced.rs), and
# DERIVED are computed here.
RATIOS = {
    "protocol.step_ns": "ns",
    "protocol.succ_per_state": "count",
    "protocol.encode_state_ns": "ns",
    "protocol.sort_keys_ns": "ns",
    "observer.step_ns": "ns",
    "observer.symbols_per_step": "count",
    "checker.step_ns": "ns",
    "checker.end_ns": "ns",
    "encode.ns": "ns",
    "encode.words_per_state": "count",
    "canon.ns": "ns",
    "canon.refine_exact_share": "ratio",
    "canon.seal_cache_hit_share": "ratio",
    "fingerprint.ns": "ns",
    "admit.ns": "ns",
    "admit.yield": "ratio",
    "seen.insert_ns": "ns",
    "expand.ns": "ns",
    "expand.self_ns": "ns",
    "materialize.clones_avoided_share": "ratio",
    "ws.idle_share": "ratio",
    "witness.check_ns": "ns",
    "witness.len": "count",
}
TOTALS = {
    "checker.rejects": "count",
    "ws.steals": "count",
    "setup.group_build_s": "s",
    "expand.total_s": "s",
    "expand.protocol_s": "s",
    "expand.admit_s": "s",
    "expand.copy_s": "s",
    "expand.observer_s": "s",
    "expand.checker_s": "s",
    "expand.seal_s": "s",
    "expand.fingerprint_s": "s",
    "expand.self_s": "s",
    "checker.end_s": "s",
    "search.other_s": "s",
    "alloc.deferred_s": "s",
}
DERIVED = {
    "mc.states": "count",
    "mc.peak_frontier": "count",
    "trace.overhead_s": "s",
}
PER_LAYER = {**RATIOS, **TOTALS, **DERIVED}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Build the cell binary; return its path, or None if the build failed."""
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    target = os.path.join(ROOT, target)  # a relative path is taken from the root
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(BENCH, "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    except OSError as e:
        log(f"cannot run cargo: {e}")
        return None
    if proc.returncode != 0:
        log(f"build failed ({' '.join(cmd)} exited {proc.returncode})")
        return None
    return os.path.join(target, "release", "scvbench-cell")


def run_cell(binary, cell, seed, mode, deadline):
    """Run one cell process; return its record, with 'ok' false on failure.

    mode is None for the timed run, or "--trace" or "--setup-only"."""
    limit = min(CELL_LIMIT_S, deadline - time.monotonic())
    if limit <= 0:
        return None
    cmd = [binary, cell, "--seed", str(seed)] + ([mode] if mode else [])
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=limit)
    except subprocess.TimeoutExpired:
        return {"cell": cell, "ok": False, "pass": False,
                "detail": f"time limit of {limit:.0f} s overrun"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        err = proc.stderr.strip().splitlines()
        return {"cell": cell, "ok": False, "pass": False,
                "detail": f"exit code {proc.returncode}: {err[-1] if err else ''}"}
    try:
        return json.loads(lines[-1])
    except ValueError:
        return {"cell": cell, "ok": False, "pass": False,
                "detail": "unparsable cell record"}


def largest(records):
    return max(records, key=lambda r: r.get("states", 0))


def end_to_end(records):
    """One pass's end-to-end metrics, setup_s aside, from its untraced
    cell records."""
    big = largest(records)
    return {
        "verdict_s": sum(r["verdict_s"] for r in records),
        "peak_rss_mb": max(r["peak_rss_bytes"] for r in records) / 1e6,
        "bytes_per_state": big["peak_rss_bytes"] / big["states"],
        "pass_share": sum(r["pass"] for r in records) / len(records),
    }


def per_layer(untraced, traced):
    """One pass's per-layer metrics from its traced cell records."""
    out = {}
    for name in RATIOS:
        num = sum(r["ratios"][name][0] for r in traced)
        den = sum(r["ratios"][name][1] for r in traced)
        out[name] = num / den if den else 0.0
    for name in TOTALS:
        out[name] = sum(r["totals"][name] for r in traced)
    big = largest(traced)
    out["mc.states"] = big["states"]
    out["mc.peak_frontier"] = big["peak_frontier"]
    out["trace.overhead_s"] = (sum(r["verdict_s"] for r in traced)
                               - sum(r["verdict_s"] for r in untraced))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    binary = build()
    if binary is None:
        return 2
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    cells = WORKLOADS[args.workload]
    rng = random.Random(args.seed)
    traced_mode = args.trace == 1

    passes = []  # per pass: (untraced records, traced records)
    setups = {cell: [] for cell in cells}  # every cold set-up time, per cell
    attempted = failed = 0
    searched = search_failed = 0  # the same, for search runs only
    failures = []
    while not passes or time.monotonic() - start < args.seconds:
        order = cells[:]
        rng.shuffle(order)
        untraced, traced, complete = [], [], True
        for cell in order:
            modes = ["--setup-only"] * SETUP_PROBES + [None]
            if traced_mode:
                modes.append("--trace")
            for mode in modes:
                rec = run_cell(binary, cell, rng.getrandbits(32), mode, deadline)
                if rec is None:
                    complete = False
                    break
                attempted += 1
                searched += mode != "--setup-only"
                if not rec["ok"]:
                    failed += 1
                    search_failed += mode != "--setup-only"
                    failures.append(f"{cell}: {rec['detail']}")
                elif mode != "--trace":
                    setups[cell].append(rec["setup_s"])
                if mode is None:
                    untraced.append(rec)
                elif mode == "--trace":
                    traced.append(rec)
            if not complete:
                break
        if not complete:
            break
        passes.append((untraced, traced))
        if failed:
            break
        # Stop if another pass of the same length might overrun the limit.
        if time.monotonic() + (time.monotonic() - start) / len(passes) > deadline:
            break

    # Per-cell lines for the reader.
    for untraced, traced in passes:
        for rec in untraced + traced:
            kind = "traced" if "ratios" in rec else "timed"
            extra = f" genuine={rec['genuine']}" if rec.get("genuine") is not None else ""
            log(f"{kind:6} {rec['cell']:<11} {rec.get('verdict', '?'):<9} "
                f"states={rec.get('states', 0):<7} verdict_s={rec.get('verdict_s', 0):.3f} "
                f"ok={rec['ok']} pass={rec['pass']}{extra} {rec['detail']}")
    for f in failures:
        log(f"FAILED {f}")

    usable = [p for p in passes if all(r["ok"] for r in p[0] + p[1])]
    metrics = {}
    if usable:
        e2e = [end_to_end(u) for u, _ in usable]
        values = {name: statistics.median(m[name] for m in e2e) for name in e2e[0]}
        values["setup_s"] = sum(statistics.median(setups[c]) for c in cells)
        for name, unit in END_TO_END:
            value = values[name]
            print(f"{name:<34} {value:>16.7g} {unit}")
            if not traced_mode:
                metrics[name] = {"value": value, "unit": unit}
        fail_share = search_failed / searched if searched else 1.0
        print(f"{'fail_share':<34} {fail_share:>16.7g} ratio")
        if traced_mode:
            layers = [per_layer(u, t) for u, t in usable]
            for name, unit in PER_LAYER.items():
                value = statistics.median(m[name] for m in layers)
                print(f"{name:<34} {value:>16.7g} {unit}")
                metrics[name] = {"value": value, "unit": unit}
    print(f"passes {len(passes)}, cells attempted {attempted}, failed {failed}, "
          f"{time.monotonic() - start:.1f} s")

    correct = failed == 0 and bool(usable)
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed if attempted else 1, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
