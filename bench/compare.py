"""Summarize one set of benchmark runs, or compare two (parent, change).

    python3 bench/compare.py RUNS.jsonl
    python3 bench/compare.py PARENT.jsonl CHANGE.jsonl

Inputs are the JSONL files ``bench/run.py`` appends to (``--results``).
Only untraced runs are compared.  Each workload's header gives the
operations failed / attempted on each side; metrics come only from runs
in which every operation passed its check.  For every workload and end-to-end
metric of ``BENCHMARK.json`` one row gives each side's median, quartiles
(``statistics.quantiles(n=4)``) and number of runs, the spread
(interquartile range over median), and the ratio change/parent with its
base.  The verdict applies the rules the benchmark was defined with:

* ``regression``: the change's median is worse than the parent's by more
  than the metric's ``bound``;
* ``unresolved``: either side's spread is wider than the bound, unless
  every run of the change reads better than every run of the parent
  (then ``better``);
* ``gain``: pairs of runs, matched by seed (else by order), show the
  change better in at least 9/10 of them (ties count for neither) and the
  medians differ by more than the parent's interquartile range;
* ``same`` otherwise.

The exit code is 1 when any row is a regression, else 0.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WIN_SHARE = 0.9


def load_runs(path: str) -> dict[str, list[dict]]:
    """Untraced runs of each workload, in file order."""
    runs: dict[str, list[dict]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            if rec["trace"] == 0:
                runs.setdefault(rec["workload"], []).append(rec)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med


def _values(runs: list[dict], name: str) -> list[float]:
    """The metric over the runs whose every operation passed its check."""
    return [r["metrics"][name] for r in runs if r["correct"] and r["metrics"].get(name) is not None]


def _pairs(parent: list[dict], change: list[dict], name: str) -> list[tuple[float, float]]:
    parent = [r for r in parent if r["correct"]]
    change = [r for r in change if r["correct"]]
    by_seed = {r["seed"]: r["metrics"].get(name) for r in parent}
    pairs = [(by_seed[r["seed"]], r["metrics"].get(name)) for r in change if r["seed"] in by_seed]
    if len(pairs) < min(len(parent), len(change)):
        pairs = [(p["metrics"].get(name), c["metrics"].get(name)) for p, c in zip(parent, change)]
    return [(p, c) for p, c in pairs if p is not None and c is not None]


def verdict(parent: list[float], change: list[float], pairs, spec: dict) -> tuple[str, int]:
    """(verdict, pairs the change won) for one metric of one workload."""
    sign = 1.0 if spec["better"] == "lower" else -1.0
    better = lambda c, p: sign * (p - c) > 0  # noqa: E731
    wins = sum(1 for p, c in pairs if better(c, p))
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = quartiles(change)[1]
    worse_by = sign * (c_med - p_med) / p_med
    if worse_by > spec["bound"]:
        return "regression", wins
    if max(spread(parent), spread(change)) > spec["bound"]:
        if all(better(c, p) for c in change for p in parent):
            return "better", wins
        return "unresolved", wins
    if pairs and wins >= WIN_SHARE * len(pairs) and abs(c_med - p_med) > p_q3 - p_q1:
        return "gain", wins
    return "same", wins


def _fmt(v: float) -> str:
    return f"{v:.5g}"


def _side(values: list[float]) -> str:
    q1, med, q3 = quartiles(values)
    return f"{_fmt(med)} [{_fmt(q1)}, {_fmt(q3)}] n={len(values)}"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        specs = json.load(fh)["end_to_end"]
    sets = [load_runs(p) for p in argv]
    regressions = 0
    for workload in sorted(set().union(*sets)):
        ops = [
            f"{sum(r['failed'] for r in s.get(workload, []))}/{sum(r['attempted'] for r in s.get(workload, []))}"
            for s in sets
        ]
        print(f"== {workload}  (operations failed/attempted: {' | '.join(ops)})")
        for spec in specs:
            name, unit = spec["name"], spec["unit"]
            sides = [_values(s.get(workload, []), name) for s in sets]
            if not all(sides):
                print(f"  {name:<16} missing runs")
                continue
            if len(sets) == 1:
                print(f"  {name:<16} {unit:<4} {_side(sides[0])} spread={spread(sides[0]):.3f} "
                      f"(bound {spec['bound']})")
                continue
            parent, change = sides
            pairs = _pairs(sets[0][workload], sets[1][workload], name)
            result, wins = verdict(parent, change, pairs, spec)
            regressions += result == "regression"
            p_med = quartiles(parent)[1]
            c_med = quartiles(change)[1]
            print(f"  {name:<16} {unit:<4} parent {_side(parent)} | change {_side(change)} | "
                  f"ratio {c_med / p_med:.4f} (base: parent median {_fmt(p_med)} {unit}) | "
                  f"spread {spread(parent):.3f}/{spread(change):.3f} bound {spec['bound']} | "
                  f"pairs won {wins}/{len(pairs)} | {result}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
