#!/usr/bin/env python3
"""End-to-end performance gate: compare benchmark runs of two commits.

    python3 .github/bench_gate.py BENCHMARK.json RESULTS_DIR

RESULTS_DIR holds one file per run of `scvbench/run.py`, named
`<workload>-<side>-<pair>.json` (side `base` or `head`, pair 1 or 2), each
holding the run's final JSON line. The runs are made in ABBA order (base,
head, head, base), and pair k runs both sides with seed k.

Workloads, end-to-end metric names, directions (`better`) and bounds come
from the head's BENCHMARK.json. The gate fails (exit 1) if
  * any head run has `correct: false`;
  * the head's failed/attempted, summed over its runs, is above the base's;
  * an end-to-end metric is worse than the base by more than its bound in
    every pair: for lower-is-better, head > base * (1 + bound); for
    higher-is-better, head < base * (1 - bound). One pair alone cannot
    tell a regression from noise, so a metric worse in one pair passes.
It prints one row per workload and metric, and exits 2 on malformed input
(a missing or truncated file, a missing field, a non-numeric value).
"""

import json
import os
import sys
from collections import namedtuple

SIDES = ("base", "head")
PAIRS = (1, 2)
Run = namedtuple("Run", "correct attempted failed values")


def load_spec(path):
    with open(path) as f:
        spec = json.load(f)
    metrics = [(m["name"], m["better"], float(m["bound"])) for m in spec["end_to_end"]]
    if any(better not in ("lower", "higher") for _, better, _ in metrics):
        raise ValueError(f"{path}: `better` must be lower or higher")
    return [w["name"] for w in spec["workloads"]], metrics


def load_run(path):
    """One run's final JSON line."""
    try:
        with open(path) as f:
            run = json.loads(f.read().strip().splitlines()[-1])
        if not isinstance(run["correct"], bool):
            raise ValueError("correct must be true or false")
        values = {name: float(m["value"]) for name, m in run["metrics"].items()}
        return Run(run["correct"], float(run["attempted"]), float(run["failed"]), values)
    except (ValueError, KeyError, TypeError, AttributeError, IndexError) as e:
        raise ValueError(f"{path}: {e!r}") from e


def worse(base, head, better, bound):
    if better == "lower":
        return head > base * (1 + bound)
    return head < base * (1 - bound)


def fmt(values):
    return " / ".join("-" if v is None else f"{v:.4g}" for v in values)


def gate(spec_path, results):
    workloads, metrics = load_spec(spec_path)
    failures = []
    print(f"{'workload':<10} {'metric':<16} {'base (pair 1 / 2)':>22} "
          f"{'head (pair 1 / 2)':>22} {'bound':>6}  result")
    for w in workloads:
        runs = {(side, k): load_run(os.path.join(results, f"{w}-{side}-{k}.json"))
                for side in SIDES for k in PAIRS}
        for name, better, bound in metrics:
            base = [runs["base", k].values.get(name) for k in PAIRS]
            head = [runs["head", k].values.get(name) for k in PAIRS]
            if all(runs["head", k].correct for k in PAIRS) and None in head:
                raise ValueError(f"{w}: a correct head run lacks {name}")
            if None in base or None in head:
                result = "not compared"
            else:
                n = sum(worse(b, h, better, bound) for b, h in zip(base, head))
                if n == len(PAIRS):
                    result = "WORSE in every pair"
                    failures.append(f"{w}: {name} {result}")
                else:
                    result = f"ok (worse in {n} of {len(PAIRS)} pairs)" if n else "ok"
            limit = f"{'+' if better == 'lower' else '-'}{bound:.0%}"
            print(f"{w:<10} {name:<16} {fmt(base):>22} {fmt(head):>22} {limit:>6}  {result}")
        share = {side: sum(runs[side, k].failed for k in PAIRS)
                 / max(sum(runs[side, k].attempted for k in PAIRS), 1) for side in SIDES}
        over = share["head"] > share["base"]
        print(f"{w:<10} {'failed/attempted':<16} {share['base']:>22.4g} "
              f"{share['head']:>22.4g} {'':>6}  {'ABOVE BASE' if over else 'ok'}")
        if over:
            failures.append(f"{w}: failed/attempted {share['head']:.4g} > {share['base']:.4g}")
        wrong = [k for k in PAIRS if not runs["head", k].correct]
        correct = {side: " / ".join(str(runs[side, k].correct).lower() for k in PAIRS)
                   for side in SIDES}
        print(f"{w:<10} {'correct':<16} {correct['base']:>22} {correct['head']:>22} "
              f"{'':>6}  {'WRONG' if wrong else 'ok'}")
        if wrong:
            failures.append(f"{w}: head run(s) of pair {wrong} not correct")
    for f in failures:
        print(f"FAIL {f}")
    print("bench gate: " + ("failed" if failures else "passed"))
    return 1 if failures else 0


def main(argv):
    if len(argv) != 2:
        print("usage: python3 .github/bench_gate.py BENCHMARK.json RESULTS_DIR", file=sys.stderr)
        return 2
    try:
        return gate(*argv)
    except (OSError, ValueError, KeyError, TypeError, AttributeError, IndexError) as e:
        print(f"bench gate: malformed input: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
