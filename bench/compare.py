"""Compare two benchmark result documents written by ``run.py``.

    python3 bench/compare.py A.json B.json

``A`` is the parent, ``B`` the change, each from ``run.py --runs N``
with the same seed, seconds and trace settings.  For every workload and
metric present on both sides it prints each side's median and
quartiles, and -- for the end-to-end metrics, which carry a bound in
``BENCHMARK.json`` -- a verdict:

* ``unchanged`` -- B's median is within the bound of A's, and both
  sides' spreads (quartile distance over median) are within it;
* ``improved`` / ``regressed`` -- B's median is better / worse than A's
  by more than the bound;
* ``unresolved`` -- a side's spread is wider than the bound, so no
  change of that size could be told apart from noise; except that B
  is ``improved`` (``regressed``) when every run of B beats (loses to)
  every run of A.

Exits 1 when any metric regressed.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def bounds() -> dict:
    """``{metric: (better, bound)}`` of the end-to-end metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}


def quartiles(values) -> tuple:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(a, b, better: str, bound: float) -> str:
    """The verdict for runs ``a`` (parent) and ``b`` (change)."""
    sign = 1.0 if better == "higher" else -1.0
    qa, qb = quartiles(a), quartiles(b)
    spread = max((qa[2] - qa[0]) / abs(qa[1]), (qb[2] - qb[0]) / abs(qb[1]))
    change = sign * (qb[1] - qa[1]) / abs(qa[1])
    if spread > bound:
        if all(sign * (y - x) > 0 for x in a for y in b):
            return "improved"
        if all(sign * (y - x) < 0 for x in a for y in b):
            return "regressed"
        return "unresolved"
    if change > bound:
        return "improved"
    if change < -bound:
        return "regressed"
    return "unchanged"


def _runs(path: str) -> dict:
    with open(path) as fh:
        document = json.load(fh)
    out = {}
    for workload, results in document["runs"].items():
        for result in results:
            for name, metric in result["metrics"].items():
                out.setdefault((workload, name), (metric["unit"], []))[1] \
                    .append(metric["value"])
    return out


def compare(path_a: str, path_b: str) -> list:
    """Table rows ``(workload, metric, unit, A, B, change, verdict)``."""
    runs_a, runs_b = _runs(path_a), _runs(path_b)
    limits = bounds()
    rows = []
    for key in sorted(set(runs_a) & set(runs_b)):
        workload, name = key
        unit, a = runs_a[key]
        b = runs_b[key][1]
        qa, qb = quartiles(a), quartiles(b)
        change = (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else float("nan")
        if name in limits:
            better, bound = limits[name]
            result = verdict(a, b, better, bound)
        else:
            result = ""
        rows.append((workload, name, unit, qa, qb, change, result))
    return rows


def _fmt(q) -> str:
    return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    rows = compare(*argv)
    for workload, name, unit, qa, qb, change, result in rows:
        print(f"{workload:6} {name:44} {unit:6} A {_fmt(qa):40} "
              f"B {_fmt(qb):40} {change:+8.2%} {result}")
    return 1 if any(row[-1] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
