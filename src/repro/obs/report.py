"""The latency-breakdown view: where did each request's time go?

Instrumented layers charge simulated nanoseconds to category attributes
on whatever span is running (``cat_cache_ns``, ``cat_link_ns``,
``cat_fabric_ns``, ``cat_dram_ns``, ``cat_queue_ns``,
``cat_migration_ns``); the breakdown
walks each request tree, sums the categories over the subtree, and
reports them as percentages of the request's wall time.  Time the
instrumentation did not attribute (pure compute, model bookkeeping)
lands in ``other``.

Works on live :class:`~repro.obs.tracing.Span` objects or on the plain
dicts of a ``spans.json`` dump, so the ``repro obs`` CLI renders dumps
without re-running anything.  A dump whose run built fluid models also
gets one ``fluid solver`` line: how many water-filling passes ran, the
mean ``(path, rate_cap)`` groups and flows each one solved, and the
share that took the single-group fast path.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import typing as _t

from repro.analysis.report import format_table
from repro.errors import ObservabilityError

#: the latency categories, in display order
CATEGORIES = ("cache", "link", "fabric", "dram", "queue", "migration")

#: the :class:`~repro.sim.fluid.FluidModel` self-counters, by attribute
SOLVER_COUNTERS = (
    "recomputes",
    "single_group_recomputes",
    "groups_solved",
    "flows_solved",
    "solves_reused",
    "ticks_rearmed",
)

#: root-eligible components: a request tree starts at a driver request /
#: microbenchmark repetition, or a bare session access outside any request
_ROOT_COMPONENTS = ("request", "session")


def _as_dicts(spans: _t.Sequence[_t.Any]) -> list[dict[str, _t.Any]]:
    return [span if isinstance(span, dict) else span.to_dict() for span in spans]


@dataclasses.dataclass
class BreakdownRow:
    """Aggregated breakdown for one request kind."""

    op: str
    requests: int
    wall_ns: float  # summed wall time across requests
    category_ns: dict[str, float]
    other_ns: float

    @property
    def mean_wall_ns(self) -> float:
        return self.wall_ns / self.requests if self.requests else 0.0

    def percent(self, category: str) -> float:
        denom = sum(self.category_ns.values()) + self.other_ns
        if denom <= 0:
            return 0.0
        part = self.other_ns if category == "other" else self.category_ns[category]
        return 100.0 * part / denom


def latency_breakdown(spans: _t.Sequence[_t.Any]) -> list[BreakdownRow]:
    """Aggregate per-request latency categories, grouped by op kind."""
    flat = _as_dicts(spans)
    by_id = {span["span_id"]: span for span in flat}
    children: dict[int, list[dict[str, _t.Any]]] = {}
    for span in flat:
        parent = span["parent_id"]
        if parent is not None and parent in by_id:
            children.setdefault(parent, []).append(span)

    def has_root_ancestor(span: dict[str, _t.Any]) -> bool:
        parent = span["parent_id"]
        while parent is not None and parent in by_id:
            ancestor = by_id[parent]
            if ancestor["component"] in _ROOT_COMPONENTS:
                return True
            parent = ancestor["parent_id"]
        return False

    roots = [
        span
        for span in flat
        if span["component"] in _ROOT_COMPONENTS and not has_root_ancestor(span)
    ]

    def subtree_categories(root: dict[str, _t.Any]) -> dict[str, float]:
        sums = {cat: 0.0 for cat in CATEGORIES}
        stack = [root]
        while stack:
            span = stack.pop()
            attrs = span["attrs"]
            for cat in CATEGORIES:
                sums[cat] += attrs.get(f"cat_{cat}_ns", 0.0)
            stack.extend(children.get(span["span_id"], ()))
        return sums

    grouped: dict[str, BreakdownRow] = {}
    for root in roots:
        op = str(root["attrs"].get("op", root["name"]))
        wall = root["end_ns"] - root["start_ns"]
        sums = subtree_categories(root)
        other = max(0.0, wall - sum(sums.values()))
        row = grouped.get(op)
        if row is None:
            row = grouped[op] = BreakdownRow(
                op=op, requests=0, wall_ns=0.0,
                category_ns={cat: 0.0 for cat in CATEGORIES}, other_ns=0.0,
            )
        row.requests += 1
        row.wall_ns += wall
        for cat in CATEGORIES:
            row.category_ns[cat] += sums[cat]
        row.other_ns += other
    return [grouped[op] for op in sorted(grouped)]


def render_breakdown(rows: _t.Sequence[BreakdownRow], title: str = "") -> str:
    """The breakdown as an aligned text table."""
    if not rows:
        return "no request spans recorded (nothing reached an instrumented layer)"
    headers = ["op", "requests", "avg wall ns", *(f"{c}%" for c in CATEGORIES), "other%"]
    table_rows = [
        [
            row.op,
            row.requests,
            row.mean_wall_ns,
            *(row.percent(cat) for cat in CATEGORIES),
            row.percent("other"),
        ]
        for row in rows
    ]
    return format_table(
        headers, table_rows, title=title or "latency breakdown (% of request wall time)"
    )


def solver_line(totals: _t.Mapping[str, float]) -> str:
    """One line summarizing the fluid solver's self-counters."""
    recomputes = totals["recomputes"]
    if not recomputes:
        return "fluid solver: 0 recomputes"
    return (
        f"fluid solver: {int(recomputes)} recomputes, "
        f"{totals['groups_solved'] / recomputes:.2f} groups and "
        f"{totals['flows_solved'] / recomputes:.2f} flows per recompute, "
        f"{100.0 * totals['single_group_recomputes'] / recomputes:.1f}% single-group, "
        f"{int(totals['solves_reused'])} reused, "
        f"{int(totals['ticks_rearmed'])} ticks re-armed"
    )


# -- dump loading (the `repro obs` CLI) ---------------------------------------


def load_spans(dump_dir: _t.Any) -> list[dict[str, _t.Any]]:
    """Read ``spans.json`` from an ``--obs`` dump directory."""
    path = pathlib.Path(dump_dir) / "spans.json"
    if not path.is_file():
        raise ObservabilityError(f"no spans.json under {pathlib.Path(dump_dir)}")
    doc = json.loads(path.read_text())
    spans = doc.get("spans")
    if not isinstance(spans, list):
        raise ObservabilityError(f"{path} is not a spans dump")
    return spans


def load_solver_totals(dump_dir: _t.Any) -> dict[str, float] | None:
    """The ``repro_fluid_*`` counters from a dump's ``metrics.prom``, or
    None when the run built no fluid model (or the file is absent)."""
    path = pathlib.Path(dump_dir) / "metrics.prom"
    if not path.is_file():
        return None
    values: dict[str, float] = {}
    for line in path.read_text().splitlines():
        name, _, value = line.partition(" ")
        if name.startswith("repro_fluid_") and name.endswith("_total"):
            values[name[len("repro_fluid_"):-len("_total")]] = float(value)
    if not all(counter in values for counter in SOLVER_COUNTERS):
        return None
    return values


def summarize_dump(dump_dir: _t.Any) -> str:
    """Render one dump directory: span counts, the fluid solver line
    when the run had one, and the breakdown table."""
    directory = pathlib.Path(dump_dir)
    spans = load_spans(directory)
    components: dict[str, int] = {}
    for span in spans:
        components[span["component"]] = components.get(span["component"], 0) + 1
    lines = [
        f"{directory}: {len(spans)} spans "
        f"({', '.join(f'{k}={v}' for k, v in sorted(components.items()))})",
    ]
    totals = load_solver_totals(directory)
    if totals is not None:
        lines.append(solver_line(totals))
    lines.append(render_breakdown(latency_breakdown(spans)))
    return "\n".join(lines)


def iter_dump_dirs(root: _t.Any) -> list[pathlib.Path]:
    """Dump directories under *root*: itself, or its child dumps."""
    directory = pathlib.Path(root)
    if (directory / "spans.json").is_file():
        return [directory]
    if not directory.is_dir():
        raise ObservabilityError(f"no such dump directory: {directory}")
    found = sorted(
        child for child in directory.iterdir()
        if child.is_dir() and (child / "spans.json").is_file()
    )
    if not found:
        raise ObservabilityError(f"no observability dumps under {directory}")
    return found
