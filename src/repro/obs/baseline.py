"""Performance baselines and regression checking.

``anaheim-repro bench`` writes one ``BENCH_<workload>.json`` per
workload/configuration; ``anaheim-repro bench --check`` re-runs the
model and compares every recorded metric against the baseline with a
relative tolerance, exiting nonzero on regression.  Because the
performance model is deterministic, an unchanged tree reproduces its
baseline exactly — any drift is a real modeling change.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.core.scheduler import ScheduleReport
from repro.obs.export import write_json
from repro.obs.provenance import environment_info

#: Metrics recorded in a baseline and compared by ``check``.
BASELINE_METRICS = ("total_time", "gpu_time", "pim_time",
                    "transition_time", "energy", "edp", "gpu_dram_bytes")


@dataclass(frozen=True)
class BaselineRegression:
    """One metric outside tolerance."""

    metric: str
    baseline: float
    current: float | None   # None: the run did not report the metric
    tolerance: float

    @property
    def ratio(self) -> float:
        return self.current / self.baseline if self.baseline else float("inf")

    def describe(self) -> str:
        if self.current is None:
            return (f"{self.metric}: baseline {self.baseline:.6g} -> "
                    f"missing from this run")
        return (f"{self.metric}: baseline {self.baseline:.6g} -> "
                f"current {self.current:.6g} ({self.ratio:+.2%} of baseline, "
                f"tolerance ±{self.tolerance:.0%})".replace("+", ""))


def baseline_path(directory, workload: str) -> Path:
    return Path(directory) / f"BENCH_{workload}.json"


def baseline_metrics(report: ScheduleReport) -> dict:
    return {name: getattr(report, name) if hasattr(report, name)
            else None for name in BASELINE_METRICS}


def write_baseline_metrics(directory, workload: str, metrics: dict,
                           config: dict | None = None,
                           extra: dict | None = None) -> Path:
    """Write a ``BENCH_<workload>.json`` from an explicit metrics dict
    (:func:`baseline_metrics` of a ``ScheduleReport`` for model runs)."""
    path = baseline_path(directory, workload)
    path.parent.mkdir(parents=True, exist_ok=True)
    document = {
        "workload": workload,
        "config": config or {},
        "environment": environment_info(),
        "metrics": metrics,
    }
    document.update(extra or {})
    write_json(path, document)
    return path


def load_baseline(directory, workload: str) -> dict:
    with open(baseline_path(directory, workload)) as fh:
        return json.load(fh)


def check_baseline_metrics(baseline: dict, current: dict,
                           tolerance: float = 0.02) -> list:
    """Regressions of a current metrics dict against a stored baseline.

    A metric regresses when it deviates from the baseline by more than
    ``tolerance`` *in either direction* — an unexplained speedup is as
    suspicious as a slowdown in a deterministic model — or when the
    current run no longer reports it.
    """
    regressions = []
    for metric, reference in baseline.get("metrics", {}).items():
        if reference is None:
            continue
        value = current.get(metric)
        if value is None:
            deviation = float("inf")
        elif reference == 0:
            deviation = 0.0 if value == 0 else float("inf")
        else:
            deviation = abs(value - reference) / abs(reference)
        if deviation > tolerance:
            regressions.append(BaselineRegression(
                metric=metric, baseline=reference, current=value,
                tolerance=tolerance))
    return regressions


# -- Run history ---------------------------------------------------------------
#
# Baselines answer "did this run regress against the pinned reference";
# the history answers "how has this metric *moved*" — every bench run
# appends one JSONL line to ``history/<workload>.jsonl`` next to the
# baseline file, and ``bench --history`` renders the trend.


def history_path(directory, workload: str) -> Path:
    return Path(directory) / "history" / f"{workload}.jsonl"


def append_history(directory, workload: str, metrics: dict,
                   config: dict | None = None,
                   timestamp: str | None = None) -> Path:
    """Append one bench run's metrics to the workload's history file."""
    path = history_path(directory, workload)
    path.parent.mkdir(parents=True, exist_ok=True)
    entry = {"workload": workload, "config": config or {},
             "git_sha": environment_info()["git_sha"],
             "metrics": metrics}
    if timestamp is not None:
        entry["timestamp"] = timestamp
    with open(path, "a") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")
    return path


def load_history(directory, workload: str) -> list:
    """All recorded runs, oldest first; [] when no history exists."""
    path = history_path(directory, workload)
    if not path.exists():
        return []
    entries = []
    with open(path) as fh:
        for line in fh:
            if line.strip():
                entries.append(json.loads(line))
    return entries


def _format_delta(current, reference):
    if current is None or reference is None:
        return "-"
    if reference == 0:
        return "-" if current == 0 else "new"
    return f"{(current / reference - 1.0):+.2%}"


def render_history(entries: list, baseline: dict | None = None,
                   metrics=("total_time", "energy", "edp")) -> str:
    """Trend table: each run's metrics with delta vs the previous run,
    and (when a baseline document is given) delta vs the baseline."""
    if not entries:
        return "no history recorded"
    base_metrics = (baseline or {}).get("metrics", {})
    lines = []
    header = ["run", "sha"]
    for name in metrics:
        header += [name, "vs prev", "vs base"]
    widths = None
    rows = []
    previous = None
    for i, entry in enumerate(entries):
        values = entry.get("metrics", {})
        row = [str(i), (entry.get("git_sha") or "-")[:9]]
        for name in metrics:
            value = values.get(name)
            row.append("-" if value is None else f"{value:.6g}")
            row.append(_format_delta(
                value, (previous or {}).get(name)))
            row.append(_format_delta(value, base_metrics.get(name)))
        rows.append(row)
        previous = values
    widths = [max(len(header[i]), *(len(r[i]) for r in rows))
              for i in range(len(header))]
    lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for row in rows:
        lines.append("  ".join(c.rjust(w) if i > 1 else c.ljust(w)
                               for i, (c, w) in enumerate(zip(row,
                                                              widths))))
    return "\n".join(lines)
