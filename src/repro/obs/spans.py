"""Hierarchical span profiling: where does the time actually go?

The flat metrics in :mod:`repro.obs.metrics` answer *how much* (rounds,
bits, assignments/sec); this module answers *where*. A
:class:`SpanRecorder` collects a tree of timed :class:`Span` objects --
run -> round -> broadcast/deliver, search -> precompute -> enumerate,
rank -> elimination -- with per-span attributes (n, round, work units)
and monotonic-clock timing, so a profile of any kernel can be rendered
as an indented tree with self-vs-cumulative time or exported as a
self-contained JSON payload (schema below) and as ``span_start`` /
``span_end`` events on a :class:`~repro.obs.trace.RunTrace` (trace
schema v3).

Design constraints, in order:

1. **Near-zero overhead when off.** Instrumented call sites resolve the
   process-wide recorder once (:func:`get_recorder`, a single
   module-level attribute read) and guard every span operation with a
   local ``is not None`` check -- the same discipline as the metrics
   registry and PR 2's fault hook. With no recorder installed the hot
   paths run their original code.
2. **Correct nesting under threads.** The open-span stack is
   thread-local, so spans started on different threads attach to their
   own thread's parent, never to another thread's.
3. **Deterministic shape.** Span names, nesting, and attributes are
   functions of the computation only (never of wall time), so two runs
   with the same seed produce identical tree *shapes*
   (:meth:`Span.shape`); only the timings differ.

Usage::

    from repro.obs import SpanRecorder, span, use_recorder

    rec = SpanRecorder()
    with use_recorder(rec):
        with span("experiment", n=8):
            run_kernel()          # instrumented layers nest underneath
    print(render_span_tree(rec.tree_payload()))

Span-tree JSON (schema version 1)::

    {"schema_version": 1, "created_unix": 1754464000.1,
     "roots": [{"name": "simulator.run", "attrs": {"n": 16, ...},
                "duration_seconds": 0.01, "self_seconds": 0.002,
                "children": [...]}]}
"""

from __future__ import annotations

import threading
import time
from contextlib import ContextDecorator
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

from repro.obs.metrics import ProcessSink
from repro.obs.trace import _jsonable

__all__ = [
    "SPAN_TREE_SCHEMA_VERSION",
    "Span",
    "SpanRecorder",
    "aggregate_spans",
    "get_recorder",
    "render_hotspots",
    "render_span_tree",
    "set_recorder",
    "span",
    "use_recorder",
    "validate_span_tree_payload",
]

#: Bump when the span-tree JSON payload changes incompatibly.
SPAN_TREE_SCHEMA_VERSION = 1


class Span:
    """One timed node in the profile tree.

    Timing uses the monotonic ``time.perf_counter`` clock. ``attrs``
    carry the span's deterministic context (n, round, vertex, work
    units); they must never contain wall-clock-derived values, so the
    tree *shape* (:meth:`shape`) is reproducible under a fixed seed.
    """

    __slots__ = ("name", "attrs", "span_id", "start", "end", "children")

    def __init__(self, name: str, span_id: int, attrs: Optional[Dict[str, Any]] = None):
        self.name = name
        self.span_id = span_id
        self.attrs: Dict[str, Any] = dict(attrs) if attrs else {}
        self.start = time.perf_counter()
        self.end: Optional[float] = None
        self.children: List["Span"] = []

    # -- timing --------------------------------------------------------
    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def duration_seconds(self) -> float:
        """Cumulative wall seconds (0.0 while the span is still open)."""
        return (self.end - self.start) if self.end is not None else 0.0

    @property
    def self_seconds(self) -> float:
        """Cumulative time minus the time attributed to child spans."""
        return max(
            0.0,
            self.duration_seconds - sum(c.duration_seconds for c in self.children),
        )

    # -- attributes ----------------------------------------------------
    def set_attr(self, key: str, value: Any) -> None:
        """Attach/overwrite one attribute (e.g. a count known only at end)."""
        self.attrs[key] = value

    # -- export --------------------------------------------------------
    def as_dict(self) -> Dict[str, Any]:
        """JSON-serializable node: name/attrs/timings/children."""
        return {
            "name": self.name,
            "attrs": {k: _jsonable(v) for k, v in self.attrs.items()},
            "duration_seconds": self.duration_seconds,
            "self_seconds": self.self_seconds,
            "children": [c.as_dict() for c in self.children],
        }

    def shape(self) -> Tuple[Any, ...]:
        """Hashable timing-free structure: (name, sorted attrs, children).

        Two runs of the same seeded computation must produce equal
        shapes; the determinism tests assert exactly this.
        """
        return (
            self.name,
            tuple(sorted((k, repr(v)) for k, v in self.attrs.items())),
            tuple(c.shape() for c in self.children),
        )

    def walk(self) -> Iterator["Span"]:
        """Depth-first pre-order iteration over this subtree."""
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:
        state = f"{self.duration_seconds * 1e3:.3f}ms" if self.finished else "open"
        return f"Span({self.name!r}, {state}, children={len(self.children)})"


class SpanRecorder:
    """Collects span trees; optionally mirrors them onto a RunTrace.

    Parameters
    ----------
    trace:
        Optional :class:`repro.obs.trace.RunTrace`; when given, every
        span start/finish is mirrored as a ``span_start`` /
        ``span_end`` event (trace schema v3), so profiles interleave
        with the existing round/fault events on one timeline.

    The open-span stack is **thread-local**: a span started on thread A
    becomes the parent only of spans subsequently started on thread A.
    Roots (and span ids) are shared across threads under a lock.
    """

    def __init__(self, trace: Any = None) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._roots: List[Span] = []
        self._next_id = 0
        self._trace = trace

    # -- the open-span stack (per thread) ------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def current(self) -> Optional[Span]:
        """The innermost open span on this thread, or None."""
        stack = self._stack()
        return stack[-1] if stack else None

    # -- recording -----------------------------------------------------
    def start(self, name: str, **attrs: Any) -> Span:
        """Open a span as a child of this thread's innermost open span."""
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        node = Span(name, span_id, attrs)
        stack = self._stack()
        if stack:
            parent: Optional[Span] = stack[-1]
            parent.children.append(node)
        else:
            parent = None
            with self._lock:
                self._roots.append(node)
        stack.append(node)
        if self._trace is not None:
            self._trace.emit(
                "span_start",
                span_id=node.span_id,
                parent_id=parent.span_id if parent is not None else None,
                name=name,
                attrs={k: _jsonable(v) for k, v in node.attrs.items()},
            )
        return node

    def finish(self, node: Span) -> None:
        """Close a span (and, leniently, any still-open descendants).

        Instrumented code normally closes spans innermost-first via the
        :func:`span` context manager; if an exception skipped an inner
        ``finish``, everything above ``node`` on this thread's stack is
        closed with it so the tree stays well-formed.
        """
        stack = self._stack()
        if node not in stack:
            raise ValueError(
                f"span {node.name!r} is not open on this thread"
            )
        now = time.perf_counter()
        while stack:
            top = stack.pop()
            top.end = now
            if self._trace is not None:
                self._trace.emit(
                    "span_end",
                    span_id=top.span_id,
                    name=top.name,
                    duration_seconds=top.duration_seconds,
                    self_seconds=top.self_seconds,
                )
            if top is node:
                break

    # -- export --------------------------------------------------------
    @property
    def roots(self) -> List[Span]:
        with self._lock:
            return list(self._roots)

    def span_count(self) -> int:
        return sum(1 for root in self.roots for _ in root.walk())

    def tree_payload(self) -> Dict[str, Any]:
        """The self-contained span-tree JSON payload (schema version 1)."""
        return {
            "schema_version": SPAN_TREE_SCHEMA_VERSION,
            "created_unix": time.time(),
            "roots": [root.as_dict() for root in self.roots],
        }

    def reset(self) -> None:
        with self._lock:
            self._roots.clear()
        self._local = threading.local()


_recorder = ProcessSink()
#: The installed :class:`SpanRecorder` (None: span profiling is off).
get_recorder, set_recorder, use_recorder = _recorder.get, _recorder.set, _recorder.use


class span(ContextDecorator):
    """Context manager *and* decorator opening a span on the active recorder.

    ::

        with span("indist.build_graph", n=n):
            ...

        @span("partitions.rank_exact")
        def rank_exact(...): ...

    With no recorder installed, ``__enter__`` is a single module-level
    check and nothing is allocated. Each decorated call gets a fresh
    instance (``_recreate_cm``), so recursion and concurrency are safe.
    """

    __slots__ = ("_name", "_attrs", "_recorder", "_span")

    def __init__(self, name: str, **attrs: Any):
        self._name = name
        self._attrs = attrs
        self._recorder: Optional[SpanRecorder] = None
        self._span: Optional[Span] = None

    def _recreate_cm(self) -> "span":
        return span(self._name, **self._attrs)

    def __enter__(self) -> Optional[Span]:
        recorder = _recorder.value  # the one module-level check
        if recorder is None:
            return None
        self._recorder = recorder
        self._span = recorder.start(self._name, **self._attrs)
        return self._span

    def __exit__(self, *exc_info: Any) -> bool:
        if self._span is not None:
            self._recorder.finish(self._span)  # type: ignore[union-attr]
            self._span = None
            self._recorder = None
        return False


# ----------------------------------------------------------------------
# rendering + validation
# ----------------------------------------------------------------------
def _payload_roots(payload_or_recorder: Any) -> List[Dict[str, Any]]:
    if isinstance(payload_or_recorder, SpanRecorder):
        return payload_or_recorder.tree_payload()["roots"]
    return list(payload_or_recorder.get("roots", []))


def aggregate_spans(payload_or_recorder: Any) -> List[Dict[str, Any]]:
    """Collapse a span tree into per-path rows (flame-style table).

    Sibling spans with the same name merge into one row per *path*
    (root-to-node name sequence), accumulating count, cumulative and
    self seconds -- the bounded, diff-friendly view of profiles whose
    trees repeat a round- or cover-shaped subtree many times. Rows come
    back in first-seen depth-first order with a ``depth`` field for
    indentation.
    """
    rows: List[Dict[str, Any]] = []
    index: Dict[Tuple[str, ...], Dict[str, Any]] = {}

    def visit(node: Mapping[str, Any], path: Tuple[str, ...]) -> None:
        key = path + (node["name"],)
        row = index.get(key)
        if row is None:
            row = {
                "path": key,
                "name": node["name"],
                "depth": len(path),
                "count": 0,
                "cumulative_seconds": 0.0,
                "self_seconds": 0.0,
            }
            index[key] = row
            rows.append(row)
        row["count"] += 1
        row["cumulative_seconds"] += float(node.get("duration_seconds", 0.0))
        row["self_seconds"] += float(node.get("self_seconds", 0.0))
        for child in node.get("children", []):
            visit(child, key)

    for root in _payload_roots(payload_or_recorder):
        visit(root, ())
    return rows


def render_span_tree(payload_or_recorder: Any, max_depth: Optional[int] = None) -> str:
    """Indented profile tree: one line per path with cum/self time.

    ``max_depth`` truncates the tree (0 = roots only); deeper rows are
    folded into their parents' cumulative time, which is already
    accounted for.
    """
    rows = aggregate_spans(payload_or_recorder)
    if not rows:
        return "(no spans recorded)"
    lines = [
        f"{'span':<44}  {'count':>6}  {'cum ms':>10}  {'self ms':>10}  {'self %':>6}"
    ]
    lines.append("-" * len(lines[0]))
    total_self = sum(r["self_seconds"] for r in rows) or 1.0
    for row in rows:
        if max_depth is not None and row["depth"] > max_depth:
            continue
        label = "  " * row["depth"] + row["name"]
        lines.append(
            f"{label:<44}  {row['count']:>6}  "
            f"{row['cumulative_seconds'] * 1e3:>10.3f}  "
            f"{row['self_seconds'] * 1e3:>10.3f}  "
            f"{100.0 * row['self_seconds'] / total_self:>5.1f}%"
        )
    return "\n".join(lines)


def render_hotspots(payload_or_recorder: Any, top: int = 10) -> str:
    """Top spans by *self* time, aggregated by name across all paths."""
    by_name: Dict[str, Dict[str, Any]] = {}
    for row in aggregate_spans(payload_or_recorder):
        agg = by_name.setdefault(
            row["name"],
            {"name": row["name"], "count": 0, "cumulative_seconds": 0.0, "self_seconds": 0.0},
        )
        agg["count"] += row["count"]
        agg["cumulative_seconds"] += row["cumulative_seconds"]
        agg["self_seconds"] += row["self_seconds"]
    ranked = sorted(by_name.values(), key=lambda r: -r["self_seconds"])[:top]
    if not ranked:
        return "(no spans recorded)"
    lines = [f"{'hotspot (by self time)':<32}  {'count':>6}  {'self ms':>10}  {'cum ms':>10}"]
    lines.append("-" * len(lines[0]))
    for row in ranked:
        lines.append(
            f"{row['name']:<32}  {row['count']:>6}  "
            f"{row['self_seconds'] * 1e3:>10.3f}  "
            f"{row['cumulative_seconds'] * 1e3:>10.3f}"
        )
    return "\n".join(lines)


_NUMERIC = (int, float)


def validate_span_tree_payload(payload: Mapping[str, Any]) -> List[str]:
    """Return a list of schema violations (empty = valid)."""
    problems: List[str] = []
    if not isinstance(payload, Mapping):
        return [f"payload is {type(payload).__name__}, expected object"]
    version = payload.get("schema_version")
    if isinstance(version, bool) or not isinstance(version, int):
        problems.append("missing integer schema_version")
    elif version > SPAN_TREE_SCHEMA_VERSION:
        problems.append(
            f"schema_version {version} is newer than supported "
            f"{SPAN_TREE_SCHEMA_VERSION}"
        )
    elif version < 1:
        problems.append("schema_version must be >= 1")
    if not isinstance(payload.get("created_unix"), _NUMERIC):
        problems.append("missing numeric created_unix")
    roots = payload.get("roots")
    if not isinstance(roots, list):
        return problems + ["roots is not a list"]

    def check(node: Any, where: str) -> None:
        if not isinstance(node, Mapping):
            problems.append(f"{where} is not an object")
            return
        if not isinstance(node.get("name"), str):
            problems.append(f"{where} missing string name")
        if not isinstance(node.get("attrs"), Mapping):
            problems.append(f"{where} missing attrs object")
        for field in ("duration_seconds", "self_seconds"):
            value = node.get(field)
            if isinstance(value, bool) or not isinstance(value, _NUMERIC):
                problems.append(f"{where} field {field!r} is not numeric")
        children = node.get("children")
        if not isinstance(children, list):
            problems.append(f"{where} children is not a list")
            return
        for i, child in enumerate(children):
            check(child, f"{where}.children[{i}]")

    for i, root in enumerate(roots):
        check(root, f"roots[{i}]")
    return problems
