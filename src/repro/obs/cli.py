"""Renderer behind ``python -m repro obs``: trace tree + metric summary.

Reads one run's JSON-lines event log (see :mod:`repro.obs.fleet`) and
renders:

* the **span tree** — spans nested under their parents with wall-clock
  durations; runs of sibling spans sharing a name (e.g. hundreds of
  ``train.step`` spans) collapse into one ``×N`` aggregate line;
* the **epoch table** — one row per ``epoch`` event (loss, split timings,
  monitored metric);
* the **metric summary** — counters, gauges and histogram percentiles from
  the run's final metrics snapshot;
* a one-line census of everything else (log records by level).

Malformed lines (torn writes from a live run) are skipped and counted,
never fatal.
"""

from __future__ import annotations

from pathlib import Path

from .fleet import collect_fleet

__all__ = ["render_events", "render_span_tree"]


def _fmt_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    return f"{seconds * 1e3:.1f}ms"


def _fmt_attrs(attrs: dict) -> str:
    if not attrs:
        return ""
    inner = ", ".join(f"{key}={value}" for key, value in attrs.items())
    return f" [{inner}]"


def _start_key(event: dict) -> float:
    # Wall-clock start when available; fall back to the perf_counter start.
    ts = event.get("ts")
    if ts is not None:
        return ts - (event.get("seconds") or 0.0)
    return event.get("start", 0.0)


def _span_line(event: dict) -> str:
    attrs = dict(event.get("attrs") or {})
    if event.get("request_id") is not None:
        attrs = {"request_id": event["request_id"], **attrs}
    return (f"{event['name']} ({_fmt_seconds(event['seconds'])})"
            f"{_fmt_attrs(attrs)}")


def render_span_tree(spans: list[dict], collapse_after: int = 5) -> str:
    """Indented tree of span events (grouping large same-name sibling runs).

    ``spans`` are raw ``span`` events (any order); parentage comes from
    ``parent_id``.  Sibling groups larger than
    ``collapse_after`` render as one aggregate line with count, total and
    mean duration.
    """
    children: dict[int | None, list[dict]] = {}
    known = {event["span_id"] for event in spans}
    for event in spans:
        parent = event.get("parent_id")
        if parent not in known:
            parent = None  # orphaned spans surface at the root
        children.setdefault(parent, []).append(event)
    for siblings in children.values():
        siblings.sort(key=_start_key)

    lines: list[str] = []

    def render(parent: int | None, depth: int) -> None:
        indent = "  " * depth
        siblings = children.get(parent, [])
        by_name: dict[str, list[dict]] = {}
        for event in siblings:
            by_name.setdefault(event["name"], []).append(event)
        for name, group in by_name.items():
            if len(group) > collapse_after:
                total = sum(event["seconds"] for event in group)
                lines.append(
                    f"{indent}{name} ×{len(group)} "
                    f"(total {_fmt_seconds(total)}, "
                    f"mean {_fmt_seconds(total / len(group))})")
                # Collapsed spans usually have homogeneous children
                # (steps inside an epoch); render the first one's subtree
                # as the representative if it has any.
                for event in group:
                    if children.get(event["span_id"]):
                        render(event["span_id"], depth + 1)
                        break
            else:
                for event in group:
                    lines.append(f"{indent}{_span_line(event)}")
                    render(event["span_id"], depth + 1)

    render(None, 0)
    return "\n".join(lines)


def _render_epochs(epochs: list[dict]) -> str:
    from repro.utils import format_table

    headers = ["epoch", "train_loss", "train s", "eval s", "monitor"]
    rows = []
    for event in epochs:
        rows.append([
            event.get("epoch"),
            f"{event.get('train_loss', float('nan')):.4f}",
            f"{event.get('train_seconds', 0.0):.2f}",
            f"{event.get('eval_seconds', 0.0):.2f}",
            f"{event.get('monitored', float('nan')):.4f}",
        ])
    return format_table(headers, rows)


def _render_metrics(snapshot: dict) -> str:
    from repro.utils import format_table

    sections: list[str] = []
    scalars = [["counter", name, value]
               for name, value in snapshot.get("counters", {}).items()]
    scalars += [["gauge", name, f"{value:.6g}"]
                for name, value in snapshot.get("gauges", {}).items()]
    if scalars:
        sections.append(format_table(["kind", "name", "value"], scalars))
    histograms = snapshot.get("histograms", {})
    if histograms:
        def ms(summary: dict, key: str) -> str:
            # Histogram snapshots carry seconds; LatencyHistogram pre-scales
            # to `<key>_ms`.  Render both in milliseconds.
            if f"{key}_ms" in summary:
                return f"{summary[f'{key}_ms']:.3f}"
            return f"{summary.get(key, 0.0) * 1e3:.3f}"

        rows = [[name, summary.get("count", 0), ms(summary, "mean"),
                 ms(summary, "p50"), ms(summary, "p90"), ms(summary, "p99"),
                 ms(summary, "max")]
                for name, summary in histograms.items()]
        sections.append(format_table(
            ["histogram", "count", "mean ms", "p50 ms", "p90 ms", "p99 ms",
             "max ms"], rows))
    return "\n".join(sections)


def render_events(path: str | Path, collapse_after: int = 5) -> str:
    """Full human-readable report for one run's event log."""
    view = collect_fleet(path)
    if not view.events and not view.malformed_lines:
        return f"{path}: no events"
    by_type: dict[str, list[dict]] = {}
    for event in view.events:
        by_type.setdefault(event.get("type", "?"), []).append(event)

    sections: list[str] = []
    spans = view.spans
    if spans:
        known = {event["span_id"] for event in spans}
        total = sum(event["seconds"] for event in spans
                    if event.get("parent_id") not in known)
        sections.append(f"trace ({len(spans)} spans, "
                        f"root time {_fmt_seconds(total)}):")
        sections.append(render_span_tree(spans, collapse_after=collapse_after))
    epochs = by_type.get("epoch", [])
    if epochs:
        sections.append("\nepochs:")
        sections.append(_render_epochs(epochs))
    rendered = _render_metrics(view.registry.snapshot())
    if rendered:
        sections.append("\nmetrics:")
        sections.append(rendered)
    logs = by_type.get("log", [])
    if logs:
        levels: dict[str, int] = {}
        for event in logs:
            levels[event.get("level", "?")] = levels.get(event.get("level", "?"), 0) + 1
        census = ", ".join(f"{count} {level}"
                           for level, count in sorted(levels.items()))
        sections.append(f"\nlogs: {census}")
    if view.malformed_lines:
        sections.append(f"\nmalformed_lines: {view.malformed_lines} "
                        f"(skipped)")
    return "\n".join(sections)
