"""Plain-text formatting helpers for tables, times, bytes and ratios."""

from repro.analysis.reporting import (format_bytes, format_ratio,
                                      format_seconds, format_table)

__all__ = [
    "format_bytes", "format_ratio", "format_seconds", "format_table",
]
