"""Human-readable execution traces.

Debugging a distributed lower-bound argument usually means staring at who
said what when; this module renders a :class:`RunResult` as a
round-by-round table over the {0, 1, ⊥} alphabet and can diff two runs
(e.g. an instance and its crossing) highlighting the first divergence.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core.model import message_to_char
from repro.core.simulator import RunResult


def render_run(result: RunResult, max_rounds: Optional[int] = None) -> str:
    """A table: rows = rounds, columns = vertices (by index), entries =
    broadcast characters."""
    n = result.instance.n
    rounds = result.rounds_executed if max_rounds is None else min(
        max_rounds, result.rounds_executed
    )
    header = "round | " + " ".join(f"v{v:<3d}" for v in range(n))
    lines = [header, "-" * len(header)]
    for t in range(rounds):
        chars = " ".join(
            f"{message_to_char(result.broadcast_history[t][v]):<4s}" for v in range(n)
        )
        lines.append(f"{t + 1:5d} | {chars}")
    outputs = " ".join(f"{str(out):<4s}" for out in result.outputs)
    lines.append("-" * len(header))
    lines.append(f"  out | {outputs}")
    return "\n".join(lines)


def render_vertex(result: RunResult, v: int) -> str:
    """One vertex's transcript: sent characters and per-port receipts."""
    transcript = result.transcripts[v]
    lines = [f"vertex index {v} (ID {result.instance.vertex_id(v)})"]
    for t in range(1, transcript.rounds + 1):
        record = transcript.record(t)
        received = ", ".join(
            f"{port}<-{message_to_char(msg)}"
            for port, msg in sorted(record.received.items())
        )
        lines.append(
            f"  round {t}: sent {message_to_char(record.sent)}; received {received}"
        )
    lines.append(f"  output: {result.outputs[v]!r}")
    return "\n".join(lines)


def first_divergence(
    run_a: RunResult, run_b: RunResult
) -> Optional[Tuple[int, int]]:
    """The earliest (round, vertex) where the two broadcast histories
    differ, or None if they are truly identical.

    Two sentinel vertex values mark shape mismatches: ``(t, -1)`` when
    the runs have different lengths (first round past the common prefix)
    and ``(1, -2)`` when they have different widths (``n`` mismatch --
    vertices beyond ``min(n_a, n_b)`` exist in only one run, so the
    histories differ from the first round onward and are never
    "identical")."""
    rounds = min(run_a.rounds_executed, run_b.rounds_executed)
    n = min(run_a.instance.n, run_b.instance.n)
    for t in range(rounds):
        for v in range(n):
            if run_a.broadcast_history[t][v] != run_b.broadcast_history[t][v]:
                return (t + 1, v)
    if run_a.instance.n != run_b.instance.n:
        return (1, -2)
    if run_a.rounds_executed != run_b.rounds_executed:
        return (rounds + 1, -1)
    return None


def render_diff(run_a: RunResult, run_b: RunResult, label_a: str = "A", label_b: str = "B") -> str:
    """Side-by-side character diff of two runs' broadcast histories."""
    divergence = first_divergence(run_a, run_b)
    n = min(run_a.instance.n, run_b.instance.n)
    rounds = min(run_a.rounds_executed, run_b.rounds_executed)
    lines = [f"diff {label_a} vs {label_b} (n = {n}, rounds = {rounds})"]
    for t in range(rounds):
        row_a = "".join(message_to_char(run_a.broadcast_history[t][v]) for v in range(n))
        row_b = "".join(message_to_char(run_b.broadcast_history[t][v]) for v in range(n))
        marker = "" if row_a == row_b else "   <-- differs"
        lines.append(f"  round {t + 1}: {label_a}={row_a}  {label_b}={row_b}{marker}")
    if divergence is None:
        lines.append("  histories identical")
    else:
        t, v = divergence
        if v >= 0:
            where = f"vertex {v}"
        elif v == -1:
            where = "run lengths"
        else:
            where = (
                f"run widths (n = {run_a.instance.n} vs {run_b.instance.n})"
            )
        lines.append(f"  first divergence: round {t}, {where}")
    return "\n".join(lines)
