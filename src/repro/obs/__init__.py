"""Observability: tracing, exporters, run manifests, and baselines.

This package makes runs of the reproduction *measurable*:

* :mod:`repro.obs.tracer` — a lightweight wall-clock span tracer
  threaded through the modeling pipeline only: the framework, lowering
  and the plain scheduler dispatch (opt-in: every instrumented call
  site is a single ``is None`` check when tracing is off).  It only
  times; its spans feed ``anaheim-repro profile``.
* :mod:`repro.obs.export` — Chrome trace-event JSON (loadable in
  Perfetto / ``chrome://tracing``) generated from tracer spans or from
  a :class:`~repro.core.scheduler.ScheduleReport`'s simulated Gantt
  segments, plus a full JSON run manifest with config provenance.
* :mod:`repro.obs.metrics` — a label-aware metrics registry
  (counters, gauges, histograms) with deterministic snapshots,
  Prometheus text exposition, and a structured JSONL event log.  It is
  the only thing that counts: the scheduler and the GPU/PIM cost
  models count each modeled event once here, and it is the only
  recorder of the serving, fault and RAS layers (resilient scheduler
  fault loop, health monitor, breakers, admission, job runner, RAS
  engine), which take ``metrics=`` and no tracer.  Every caller builds
  its own registry.
* :mod:`repro.obs.utilization` — :class:`UtilizationReport`, derived
  device-utilization accounting (busy fractions, MMAC lane occupancy,
  bandwidth utilization, overlap efficiency) from any schedule report.
* :mod:`repro.obs.baseline` — ``BENCH_<workload>.json`` performance
  baselines, a tolerance-based regression check, and per-workload
  run-history trend files.
* :mod:`repro.obs.profile` — aggregated span-tree rendering with
  self/cumulative times, plus the counter table (the ``anaheim-repro
  profile`` output).
* :mod:`repro.obs.provenance` — git SHA, environment, and dataclass
  serialization helpers used by the manifest.
"""

from repro.obs.baseline import (BaselineRegression, baseline_metrics,
                                baseline_path, check_baseline_metrics,
                                load_baseline, write_baseline_metrics)
from repro.obs.export import (chrome_trace_from_report,
                              chrome_trace_from_tracer, report_dict,
                              run_manifest, write_json)
from repro.obs.metrics import (Counter, EventLog, Gauge, Histogram,
                               MetricsRegistry, parse_prometheus)
from repro.obs.profile import render_counters, render_span_tree
from repro.obs.provenance import config_dict, environment_info, git_sha
from repro.obs.tracer import Span, Tracer, maybe_span
from repro.obs.utilization import UtilizationReport

__all__ = [
    "BaselineRegression",
    "Counter",
    "EventLog",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "Tracer",
    "UtilizationReport",
    "baseline_metrics",
    "baseline_path",
    "check_baseline_metrics",
    "chrome_trace_from_report",
    "chrome_trace_from_tracer",
    "config_dict",
    "environment_info",
    "git_sha",
    "load_baseline",
    "maybe_span",
    "parse_prometheus",
    "render_counters",
    "render_span_tree",
    "report_dict",
    "run_manifest",
    "write_baseline_metrics",
    "write_json",
]
