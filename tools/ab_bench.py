"""Paired benchmark runs of two checkouts: a parent and a change.

    python3 tools/ab_bench.py PARENT_DIR CHANGE_DIR --workload W --seed S --pairs N --seconds T

Each pair runs the benchmark command of PARENT_DIR's BENCHMARK.json
(`python3 bench/run.py`) once in each checkout, as a subprocess with that
checkout as its working directory, so each side builds what it runs from its
own source. Which side runs first alternates from pair to pair. The last line
of each run's output is its result; a run with `correct: false` or
`failed > 0` stops the comparison with an error.

For every end-to-end metric of BENCHMARK.json the report gives each side's
median and quartiles, the median over pairs of change / parent, the change's
wins (ties count for neither) and one verdict, the first that holds, where
"the bound" is the metric's `bound` times the parent's median:

- gain: at least ten pairs, the change wins at least 9 in 10 of them, and its
  median is better than the parent's by more than the distance between the
  parent's quartiles;
- worse than bound: the change's median is worse than the parent's by more
  than the bound;
- unresolved: the distance between the parent's quartiles is wider than the
  bound, and not every run of the change reads better than every run of the
  parent, so the runs cannot tell whether the change is within the bound;
- no gain: the change's median is no worse than the parent's by more than
  the bound, and no gain is shown.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

MIN_PAIRS = 10
WIN_SHARE = 0.9


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), interpolated between order statistics."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> tuple[str, int]:
    """(verdict, wins) of paired runs, pair i being (parent[i], change[i]);
    `better` is "higher" or "lower", and `bound` the share of the parent's
    median by which the change may be worse."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need one parent and one change value per pair, and at least one pair")
    if better not in ("higher", "lower"):
        raise ValueError(f"better={better!r} must be 'higher' or 'lower'")
    if not bound >= 0:
        raise ValueError(f"bound={bound!r} must be a share of at least 0")
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    q1, median, q3 = quartiles(parent)
    gap = sign * (statistics.median(change) - median)
    allowed = bound * abs(median)
    if len(parent) >= MIN_PAIRS and wins >= math.ceil(WIN_SHARE * len(parent)) and gap > q3 - q1:
        return "gain", wins
    if gap < -allowed:
        return "worse than bound", wins
    every_run_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if q3 - q1 > allowed and not every_run_better:
        return "unresolved", wins
    return "no gain", wins


def run_once(checkout: str, command: list[str], workload: str, seed: int, seconds: float) -> dict:
    """Run the benchmark once in `checkout` and return its result line,
    raising RuntimeError if it failed or reported a problem."""
    args = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(args, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise RuntimeError(f"{checkout}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result.get("correct") or result.get("failed", 0) > 0:
        record = lines[-2][:2000] if len(lines) > 1 else ""
        raise RuntimeError(f"{checkout}: correct={result.get('correct')} failed={result.get('failed')}\n{record}")
    return result


COLUMNS = (f"{'parent q1 / median / q3':>30s} {'change q1 / median / q3':>30s} "
           f"{'change/parent':>13s} {'wins':>6s}  verdict")


def row(label: str, parent: list[float], change: list[float], better: str, bound: float) -> str:
    """One report line under COLUMNS: each side's quartiles, the median
    over pairs of change / parent, the change's wins and the verdict."""
    ratios = [b / a for a, b in zip(parent, change) if a]
    ratio = statistics.median(ratios) if ratios else math.nan
    result, wins = verdict(parent, change, better, bound)
    sides = ["{:9.4g} {:9.4g} {:9.4g}".format(*quartiles(v)) for v in (parent, change)]
    return f"{label:24s} {sides[0]:>30s} {sides[1]:>30s} {ratio:13.4f} {wins:>3d}/{len(parent):<2d}  {result}"


def report(metrics: list[dict], parent_runs: list[dict], change_runs: list[dict]) -> list[str]:
    """One line per end-to-end metric."""
    lines = [f"{'metric':24s} {COLUMNS}"]
    for m in metrics:
        name = m["name"]
        p = [r["metrics"][name]["value"] for r in parent_runs]
        c = [r["metrics"][name]["value"] for r in change_runs]
        lines.append(row(name, p, c, m["better"], m["bound"]))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    with open(os.path.join(args.parent, "BENCHMARK.json")) as f:
        spec = json.load(f)

    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    try:
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                checkout = getattr(args, side)
                runs[side].append(run_once(checkout, spec["command"], args.workload, args.seed, args.seconds))
                value = {m["name"]: round(runs[side][-1]["metrics"][m["name"]]["value"], 4) for m in spec["end_to_end"]}
                print(json.dumps({"pair": i, "side": side, "metrics": value}), flush=True)
    except RuntimeError as e:
        print(f"ab_bench: {e}", file=sys.stderr)
        return 1
    print(f"workload {args.workload}, seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s")
    print("\n".join(report(spec["end_to_end"], runs["parent"], runs["change"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
