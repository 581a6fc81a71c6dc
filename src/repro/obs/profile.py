"""Span-tree and counter-table rendering (the ``profile`` subcommand
output)."""

from __future__ import annotations

from repro.obs.tracer import Tracer


def _format_time(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:9.3f}s "
    if seconds >= 1e-3:
        return f"{seconds * 1e3:9.3f}ms"
    return f"{seconds * 1e6:9.3f}us"


def render_span_tree(tracer: Tracer, name_width: int = 44) -> str:
    """Call-tree profile: spans grouped by name at each tree level.

    ``cum`` is the wall-clock time inside a span including children;
    ``self`` excludes direct children — the classic profiler split, so
    hot leaf passes stand out even under broad parent spans.
    """
    if not tracer.spans:
        return "(no spans recorded)"
    header = (f"{'span':<{name_width}s}{'calls':>8s}"
              f"{'cum':>12s}{'self':>12s}")
    lines = [header, "-" * len(header)]

    def walk(spans, depth):
        groups: dict = {}
        for span in spans:
            groups.setdefault(span.name, []).append(span)
        for name, group in groups.items():
            cum = sum(s.duration for s in group)
            self_time = sum(tracer.self_time(s) for s in group)
            label = "  " * depth + name
            lines.append(f"{label:<{name_width}s}{len(group):>8d}"
                         f"  {_format_time(cum)}  {_format_time(self_time)}")
            children = [child for span in group
                        for child in tracer.children(span.index)]
            if children:
                walk(children, depth + 1)

    walk(tracer.roots(), 0)
    return "\n".join(lines)


def render_counters(counters: dict, name_width: int = 44) -> str:
    """``{name: value}`` as a sorted two-column table; the name column
    widens to fit the longest name."""
    if not counters:
        return "(no counters recorded)"
    name_width = max(name_width, max(map(len, counters)) + 2)
    lines = [f"{'counter':<{name_width}s}{'value':>16s}"]
    lines.append("-" * (name_width + 16))
    for name in sorted(counters):
        value = counters[name]
        text = f"{value:,.0f}" if value == int(value) else f"{value:,.3f}"
        lines.append(f"{name:<{name_width}s}{text:>16s}")
    return "\n".join(lines)
