"""Label-aware metrics: counters, gauges, histograms, and exporters.

The tracer (:mod:`repro.obs.tracer`) only times: it answers "where
did *this* run spend its wall clock".  This module is the one thing
that counts.  It answers the aggregate questions the paper's
evaluation is about — rates, distributions, and utilization
breakdowns over many kernels, units, and jobs — for the modeling
pipeline (scheduler, GPU/PIM cost models) and the serving, fault and
RAS layers alike.  A :class:`MetricsRegistry` holds three metric
kinds:

* :class:`Counter` — monotonically non-decreasing totals (kernels
  dispatched, faults detected, retries);
* :class:`Gauge` — point-in-time values that move both ways (breaker
  state, degradation level);
* :class:`Histogram` — value distributions over explicit buckets with
  Prometheus ``le`` (upper-inclusive) semantics, tracking per-bucket
  counts plus sum and count for mean/quantile estimation.

Every metric family is declared with a fixed tuple of label names;
samples are keyed by label *values* so one family holds e.g. kernel
latencies split by ``(device, category)``.

Three export paths, all deterministic (snapshots are sorted by family
name and label values, so two runs with the same seed/config produce
byte-identical documents):

* :meth:`MetricsRegistry.render_prometheus` — the text exposition
  format scrapable by any Prometheus-compatible collector;
* :meth:`MetricsRegistry.snapshot` / :meth:`MetricsRegistry.digest` —
  a JSON document (embedded in run manifests) plus its sha256;
* :class:`EventLog` — an append-only structured event stream written
  as JSONL.

:func:`parse_prometheus` is the validating parser the ``metrics
--smoke`` CLI gate and CI use: it checks line format, label syntax,
histogram bucket monotonicity, and counter non-negativity.

Instrumented components accept ``metrics=None`` and guard every site
with one ``is None`` check, so the un-instrumented path stays free.
Every caller builds its own registry and passes it down.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from bisect import bisect_left

from repro.errors import ParameterError

#: Valid Prometheus metric and label names.
_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default buckets for simulated kernel durations (seconds).  Kernel
#: times in the performance model span ~100ns (launch-overhead bound)
#: to ~100ms (full bootstrap phases).
KERNEL_SECONDS_BUCKETS = (1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1,
                          1.0, 10.0)

#: Default buckets for serving-unit latencies (simulated seconds).
UNIT_SECONDS_BUCKETS = (1e-3, 1e-2, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
                        10.0, 30.0, 60.0)

#: Default buckets for queue waits (simulated seconds).  Finer at the
#: low end than the unit buckets: at light load most jobs dispatch in
#: well under a millisecond of simulated queueing.
QUEUE_SECONDS_BUCKETS = (1e-4, 1e-3, 5e-3, 1e-2, 0.05, 0.1, 0.25, 0.5,
                         1.0, 2.5, 5.0, 10.0)


def format_value(value: float) -> str:
    """Deterministic sample rendering: integers stay integral."""
    if value != value:                       # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape_label(value: str) -> str:
    return (value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _render_labels(names, values) -> str:
    if not names:
        return ""
    inner = ",".join(f'{n}="{_escape_label(str(v))}"'
                     for n, v in zip(names, values))
    return "{" + inner + "}"


class Metric:
    """Shared bookkeeping: name, help text, fixed label names."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "", labelnames=()):
        if not _NAME_RE.match(name):
            raise ParameterError(f"invalid metric name {name!r}")
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise ParameterError(f"invalid label name {label!r}")
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        #: label-value tuple (in ``labelnames`` order) -> sample state.
        self._samples: dict = {}

    def _key(self, labels: dict) -> tuple:
        if set(labels) != set(self.labelnames):
            raise ParameterError(
                f"metric {self.name!r} takes labels "
                f"{list(self.labelnames)}, got {sorted(labels)}")
        return tuple(str(labels[n]) for n in self.labelnames)

    def _sorted_samples(self):
        return sorted(self._samples.items())

    def clear(self) -> None:
        self._samples.clear()

    def _check_mergeable(self, other: "Metric") -> None:
        """One-line rejection of structurally incompatible families."""
        if type(other) is not type(self):
            raise ParameterError(
                f"cannot merge {other.kind} into {self.kind} metric "
                f"{self.name!r}")
        if other.labelnames != self.labelnames:
            raise ParameterError(
                f"cannot merge metric {self.name!r}: label names "
                f"{list(other.labelnames)} != {list(self.labelnames)}")

    def merge(self, other: "Metric") -> None:
        """Fold ``other``'s samples into this family.

        Deterministic label-sorted semantics: samples are visited in
        sorted label-value order, counters/histograms accumulate, and
        gauges take the incoming value (the merger is replaying
        ``other`` *after* this registry's own history).
        """
        raise NotImplementedError


class Counter(Metric):
    """A monotonically non-decreasing total."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels) -> None:
        if amount < 0:
            raise ParameterError(
                f"counter {self.name!r} cannot decrease (inc {amount})")
        key = self._key(labels)
        self._samples[key] = self._samples.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        return self._samples.get(self._key(labels), 0.0)

    def snapshot_samples(self) -> list:
        return [{"labels": dict(zip(self.labelnames, key)),
                 "value": value}
                for key, value in self._sorted_samples()]

    def samples(self) -> dict:
        """``{sample name as exposed: value}``, sorted by labels."""
        return {f"{self.name}{_render_labels(self.labelnames, key)}": value
                for key, value in self._sorted_samples()}

    def render(self) -> list:
        return [f"{name} {format_value(value)}"
                for name, value in self.samples().items()]

    def merge(self, other: Metric) -> None:
        self._check_mergeable(other)
        for key, value in other._sorted_samples():
            self._samples[key] = self._samples.get(key, 0.0) + value


class Gauge(Metric):
    """A value that can move in both directions."""

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        self._samples[self._key(labels)] = float(value)

    def merge(self, other: Metric) -> None:
        self._check_mergeable(other)
        for key, value in other._sorted_samples():
            self._samples[key] = value

    def inc(self, amount: float = 1.0, **labels) -> None:
        key = self._key(labels)
        self._samples[key] = self._samples.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels) -> float:
        return self._samples.get(self._key(labels), 0.0)

    snapshot_samples = Counter.snapshot_samples
    samples = Counter.samples
    render = Counter.render


class _HistogramState:
    __slots__ = ("bucket_counts", "sum", "count")

    def __init__(self, n_buckets: int):
        self.bucket_counts = [0] * n_buckets    # per-bucket, not cumulative
        self.sum = 0.0
        self.count = 0


class Histogram(Metric):
    """Explicit-bucket histogram with Prometheus ``le`` semantics.

    ``buckets`` are finite upper bounds in strictly increasing order; a
    ``+Inf`` bucket is always appended.  A value lands in the first
    bucket whose bound is **>=** the value (boundary values count in
    the bucket they name, matching ``le`` = "less than or equal").
    """

    kind = "histogram"

    def __init__(self, name: str, help: str = "", labelnames=(),
                 buckets=KERNEL_SECONDS_BUCKETS):
        super().__init__(name, help, labelnames)
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ParameterError(f"histogram {name!r} needs >= 1 bucket")
        if any(b != b or b == float("inf") for b in bounds):
            raise ParameterError(
                f"histogram {name!r}: finite bounds only (+Inf is "
                f"implicit)")
        if list(bounds) != sorted(set(bounds)):
            raise ParameterError(
                f"histogram {name!r}: bucket bounds must strictly "
                f"increase")
        self.buckets = bounds

    def _state(self, labels: dict) -> _HistogramState:
        key = self._key(labels)
        state = self._samples.get(key)
        if state is None:
            state = self._samples[key] = _HistogramState(
                len(self.buckets) + 1)
        return state

    def observe(self, value: float, **labels) -> None:
        state = self._state(labels)
        # First bound >= value; everything past the last bound is +Inf.
        state.bucket_counts[bisect_left(self.buckets, value)] += 1
        state.sum += value
        state.count += 1

    # -- Per-labelset queries ------------------------------------------------

    def count(self, **labels) -> int:
        key = self._key(labels)
        state = self._samples.get(key)
        return state.count if state else 0

    def sum(self, **labels) -> float:
        key = self._key(labels)
        state = self._samples.get(key)
        return state.sum if state else 0.0

    def cumulative(self, **labels) -> list:
        """Cumulative counts per bucket (``le`` order, +Inf last)."""
        key = self._key(labels)
        state = self._samples.get(key)
        counts = (state.bucket_counts if state
                  else [0] * (len(self.buckets) + 1))
        out, running = [], 0
        for c in counts:
            running += c
            out.append(running)
        return out

    def quantile(self, q: float, **labels) -> float:
        """Estimated q-quantile by linear interpolation within the
        containing bucket.  ``nan`` for an empty histogram; values in
        the +Inf bucket clamp to the largest finite bound."""
        if not 0.0 <= q <= 1.0:
            raise ParameterError("quantile must be in [0, 1]")
        cumulative = self.cumulative(**labels)
        total = cumulative[-1]
        if total == 0:
            return math.nan
        rank = q * total
        for i, running in enumerate(cumulative):
            if running >= rank:
                if i >= len(self.buckets):
                    return self.buckets[-1]
                lower = self.buckets[i - 1] if i else 0.0
                upper = self.buckets[i]
                prev = cumulative[i - 1] if i else 0
                in_bucket = running - prev
                if in_bucket == 0:
                    return upper
                frac = (rank - prev) / in_bucket
                return lower + frac * (upper - lower)
        return self.buckets[-1]

    def merge(self, other: Metric) -> None:
        self._check_mergeable(other)
        if other.buckets != self.buckets:
            raise ParameterError(
                f"cannot merge histogram {self.name!r}: bucket edges "
                f"{[format_value(b) for b in other.buckets]} != "
                f"{[format_value(b) for b in self.buckets]}")
        for key, theirs in other._sorted_samples():
            state = self._samples.get(key)
            if state is None:
                state = self._samples[key] = _HistogramState(
                    len(self.buckets) + 1)
            for i, count in enumerate(theirs.bucket_counts):
                state.bucket_counts[i] += count
            state.sum += theirs.sum
            state.count += theirs.count

    # -- Export --------------------------------------------------------------

    def snapshot_samples(self) -> list:
        out = []
        for key, state in self._sorted_samples():
            labels = dict(zip(self.labelnames, key))
            out.append({
                "labels": labels,
                "buckets": [{"le": format_value(b), "count": c}
                            for b, c in zip(
                                list(self.buckets) + [float("inf")],
                                self.cumulative(**labels))],
                "sum": state.sum,
                "count": state.count,
            })
        return out

    def render(self) -> list:
        lines = []
        for key, state in self._sorted_samples():
            labels = dict(zip(self.labelnames, key))
            bounds = [format_value(b) for b in self.buckets] + ["+Inf"]
            for bound, running in zip(bounds, self.cumulative(**labels)):
                names = self.labelnames + ("le",)
                values = key + (bound,)
                lines.append(f"{self.name}_bucket"
                             f"{_render_labels(names, values)} {running}")
            suffix = _render_labels(self.labelnames, key)
            lines.append(f"{self.name}_sum{suffix} "
                         f"{format_value(state.sum)}")
            lines.append(f"{self.name}_count{suffix} {state.count}")
        return lines


class MetricsRegistry:
    """Get-or-create registry with deterministic export ordering."""

    def __init__(self):
        self._metrics: dict = {}

    # -- Declaration ---------------------------------------------------------

    def _declare(self, cls, name, help, labelnames, **kwargs):
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ParameterError(
                    f"metric {name!r} already registered as "
                    f"{existing.kind}, not {cls.kind}")
            if existing.labelnames != tuple(labelnames):
                raise ParameterError(
                    f"metric {name!r} already registered with labels "
                    f"{list(existing.labelnames)}")
            return existing
        metric = cls(name, help, labelnames, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "",
                labelnames=()) -> Counter:
        return self._declare(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "", labelnames=()) -> Gauge:
        return self._declare(Gauge, name, help, labelnames)

    def histogram(self, name: str, help: str = "", labelnames=(),
                  buckets=KERNEL_SECONDS_BUCKETS) -> Histogram:
        return self._declare(Histogram, name, help, labelnames,
                             buckets=buckets)

    # -- Introspection -------------------------------------------------------

    def get(self, name: str):
        return self._metrics.get(name)

    def families(self) -> list:
        return [self._metrics[name] for name in sorted(self._metrics)]

    def counter_samples(self) -> dict:
        """Every counter sample by its exposition name (the ``profile``
        counter table)."""
        return {name: value for metric in self.families()
                if isinstance(metric, Counter)
                for name, value in metric.samples().items()}

    def clear(self) -> None:
        self._metrics.clear()

    # -- Merge ---------------------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry's families into this one.

        The worker-pool seam: each worker process records into its own
        registry, and the parent merges them back **in unit order**, so
        the merged registry is byte-identical to what a serial run
        would have recorded (counters and histograms accumulate; a
        gauge takes the incoming value, replaying the worker's write
        after this registry's history).  Families are visited in sorted
        name order; a structural mismatch — kind, label names, or
        histogram bucket edges — is a one-line
        :class:`~repro.errors.ParameterError`.
        """
        for name in sorted(other._metrics):
            theirs = other._metrics[name]
            mine = self._metrics.get(name)
            if mine is None:
                kwargs = ({"buckets": theirs.buckets}
                          if isinstance(theirs, Histogram) else {})
                mine = self._declare(type(theirs), name, theirs.help,
                                     theirs.labelnames, **kwargs)
            mine.merge(theirs)

    # -- Export --------------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON document: families sorted by name, samples by labels."""
        return {"metrics": [
            {"name": m.name, "type": m.kind, "help": m.help,
             "labels": list(m.labelnames),
             **({"buckets": [format_value(b) for b in m.buckets]}
                if isinstance(m, Histogram) else {}),
             "samples": m.snapshot_samples()}
            for m in self.families()]}

    def digest(self) -> str:
        canonical = json.dumps(self.snapshot(), sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()

    def render_prometheus(self) -> str:
        """The text exposition format, newline-terminated."""
        lines = []
        for metric in self.families():
            if metric.help:
                lines.append(f"# HELP {metric.name} {metric.help}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            lines.extend(metric.render())
        return "\n".join(lines) + "\n" if lines else ""


class EventLog:
    """Append-only structured events, exported as JSONL.

    Events carry no wall-clock timestamps by default — a sequence
    number plus whatever simulated-time fields the emitter supplies —
    so the log of a seeded run is byte-reproducible.
    """

    def __init__(self):
        self.events: list = []

    def emit(self, kind: str, **fields) -> dict:
        event = {"seq": len(self.events), "kind": kind}
        event.update(fields)
        self.events.append(event)
        return event

    def to_jsonl(self) -> str:
        return "".join(json.dumps(e, sort_keys=True) + "\n"
                       for e in self.events)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_jsonl())


# -- Exposition-format validation ----------------------------------------------

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>[^\s]+)(?:\s+\d+)?$")
_LABEL_PAIR_RE = re.compile(
    r'^(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"$')


def _parse_value(text: str) -> float:
    if text == "+Inf":
        return float("inf")
    if text == "-Inf":
        return float("-inf")
    if text == "NaN":
        return math.nan
    return float(text)


def parse_prometheus(text: str) -> dict:
    """Parse and validate a text-exposition document.

    Returns ``{"types": {family: type}, "samples": [(name, labels,
    value)]}``.  Raises :class:`~repro.errors.ParameterError` on any
    malformed line, unknown sample suffix, non-monotone histogram
    buckets, or negative counter — the checks ``metrics --smoke``
    gates CI on.
    """
    types: dict = {}
    samples: list = []
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4 or parts[3] not in (
                    "counter", "gauge", "histogram", "summary",
                    "untyped"):
                raise ParameterError(
                    f"line {lineno}: malformed TYPE line: {line!r}")
            types[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if not match:
            raise ParameterError(
                f"line {lineno}: malformed sample line: {line!r}")
        labels = {}
        label_text = match.group("labels")
        if label_text:
            for pair in re.split(r",(?=[a-zA-Z_])", label_text):
                pair_match = _LABEL_PAIR_RE.match(pair.strip())
                if not pair_match:
                    raise ParameterError(
                        f"line {lineno}: malformed label pair "
                        f"{pair!r}")
                labels[pair_match.group("name")] = \
                    pair_match.group("value")
        try:
            value = _parse_value(match.group("value"))
        except ValueError:
            raise ParameterError(
                f"line {lineno}: unparseable value "
                f"{match.group('value')!r}")
        samples.append((match.group("name"), labels, value))

    # Semantic checks against the declared types.
    histogram_buckets: dict = {}
    for name, labels, value in samples:
        family, suffix = name, ""
        for candidate in ("_bucket", "_sum", "_count"):
            if name.endswith(candidate) and name[:-len(candidate)] \
                    in types and types[name[:-len(candidate)]] \
                    == "histogram":
                family, suffix = name[:-len(candidate)], candidate
                break
        kind = types.get(family)
        if kind is None:
            raise ParameterError(
                f"sample {name!r} has no preceding TYPE declaration")
        if kind == "histogram" and not suffix:
            raise ParameterError(
                f"histogram {family!r} sample {name!r} must use "
                f"_bucket/_sum/_count")
        if kind == "counter" and value < 0:
            raise ParameterError(
                f"counter {name!r} has negative value {value}")
        if suffix == "_bucket":
            if "le" not in labels:
                raise ParameterError(
                    f"bucket sample of {family!r} is missing its "
                    f"'le' label")
            key = (family, tuple(sorted((k, v) for k, v in
                                        labels.items() if k != "le")))
            histogram_buckets.setdefault(key, []).append(
                (_parse_value(labels["le"]), value))
    for (family, _), buckets in histogram_buckets.items():
        bounds = [b for b, _ in buckets]
        counts = [c for _, c in buckets]
        if bounds != sorted(bounds):
            raise ParameterError(
                f"histogram {family!r} buckets are not in increasing "
                f"'le' order")
        if bounds[-1] != float("inf"):
            raise ParameterError(
                f"histogram {family!r} is missing its +Inf bucket")
        if counts != sorted(counts):
            raise ParameterError(
                f"histogram {family!r} bucket counts are not "
                f"monotone")
    return {"types": types, "samples": samples}
