"""Output checks for the end-to-end benchmark.

Every request is checked against a fact from the paper or the model:

* ``ranks``: every row has rank == predicted, and predicted is B_n for
  M_n (Theorem 2.3) or (n-1)!! for E_n (Lemma 4.1), recomputed here;
* ``crossing``: the Lemma 3.4 premise implies indistinguishability;
* ``star``: the achieved error is at least the Theorem 3.5 floor;
* ``exhaustive``: the class search completed;
* ``sampling`` (exact protocol): error rate 0 and I(P_A; Pi) <= H(P_A);
* ``fault-sweep``: every rate-0.0 cell is fully correct.

Across requests, :class:`Checker` holds the repo's byte-identity
contracts: two runs of the same request give the same stdout, where
"the same" ignores ``--workers`` (workers=1 == workers=N) and the cache
directory's temperature (cold == warm). A failed check is counted and
the first one is kept; nothing here raises or stops a run.

One documented exception: ``sampling`` with ``--workers 1`` runs the
estimator's lean serial loop, which sums floats in another order than
the sharded path, and ``repro.information.sampling`` promises agreement
only up to that order. Those two outputs are compared with a relative
tolerance instead; a warm or repeated run must still match byte for
byte.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, List, Optional, Sequence, Tuple

FLOAT_ORDER_COMMANDS = ("sampling",)
FLOAT_ORDER_REL_TOL = 1e-9


def bell_number(n: int) -> int:
    """B_n by the Bell triangle."""
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for value in row:
            nxt.append(nxt[-1] + value)
        row = nxt
    return row[0]


def perfect_matchings(n: int) -> int:
    """(n-1)!!, the number of perfect matchings of an even [n]."""
    count = 1
    for k in range(n - 1, 0, -2):
        count *= k
    return count


def _ranks(rows: List[List[Any]], _argv: Sequence[str]) -> Optional[str]:
    if not rows:
        return "no rank rows"
    for matrix, n, rank, predicted in rows:
        expected = bell_number(n) if matrix == "M" else perfect_matchings(n)
        if not rank == predicted == expected:
            return f"{matrix}_{n}: rank {rank}, predicted {predicted}, expected {expected}"
    return None


def _crossing(rows: List[List[Any]], _argv: Sequence[str]) -> Optional[str]:
    for n, _split, _rounds, premise, indistinguishable in rows:
        if premise and not indistinguishable:
            return f"n={n}: Lemma 3.4 premise holds but the runs are distinguishable"
    return None


def _star(rows: List[List[Any]], _argv: Sequence[str]) -> Optional[str]:
    for row in rows:
        achieved, floor = row[6], row[7]
        if achieved < floor:
            return f"n={row[0]}: achieved error {achieved} below the floor {floor}"
    return None


def _exhaustive(rows: List[List[Any]], _argv: Sequence[str]) -> Optional[str]:
    for row in rows:
        if row[5] != "complete":
            return f"n={row[0]}: status {row[5]!r}"
    return None


def _sampling(rows: List[List[Any]], argv: Sequence[str]) -> Optional[str]:
    if "--eps" in argv:
        return None
    for n, _samples, info, _corrected, entropy, _saturated, error, status in rows:
        if status != "complete":
            return f"n={n}: status {status!r}"
        if error != 0:
            return f"n={n}: exact protocol has error rate {error}"
        if info > entropy + 1e-9:
            return f"n={n}: I={info} exceeds H(P_A)={entropy}"
    return None


def _fault_sweep(rows: List[List[Any]], _argv: Sequence[str]) -> Optional[str]:
    for algorithm, kind, rate, trials, correct, *_rest in rows:
        if rate == 0.0 and correct != trials:
            return f"{algorithm}/{kind} at rate 0: {correct} of {trials} correct"
    return None


_ROW_CHECKS = {
    "ranks": _ranks,
    "crossing": _crossing,
    "star": _star,
    "exhaustive": _exhaustive,
    "sampling": _sampling,
    "fault-sweep": _fault_sweep,
}


def check_request(argv: Sequence[str], returncode: int, stdout: str) -> Optional[str]:
    """The first problem with one request's result, or None if it is correct."""
    if returncode != 0:
        return f"exit code {returncode}"
    if "--json" not in argv:
        return None if stdout.strip() else "empty stdout"
    try:
        rows = json.loads(stdout)["rows"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"unparseable --json output: {exc}"
    row_check = _ROW_CHECKS.get(argv[0])
    if row_check is None:
        return None
    try:
        return row_check(rows, argv)
    except (ValueError, TypeError, IndexError) as exc:
        return f"malformed rows: {exc!r}"


def identity_key(argv: Sequence[str]) -> tuple:
    """The request with ``--workers N`` removed: equal keys, equal stdout."""
    out: List[str] = []
    skip = False
    for token in argv:
        if skip:
            skip = False
        elif token == "--workers":
            skip = True
        else:
            out.append(token)
    return tuple(out)


def _close(a: Any, b: Any) -> bool:
    """Equal JSON values, floats compared to FLOAT_ORDER_REL_TOL."""
    if isinstance(a, float) and isinstance(b, float):
        return math.isclose(a, b, rel_tol=FLOAT_ORDER_REL_TOL)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_close(a[k], b[k]) for k in a)
    return a == b


class Checker:
    """Counts failed requests and keeps the first failure.

    ``float_order_differences`` counts the sampling runs that matched
    their other worker count only up to float summation order.
    """

    def __init__(self) -> None:
        self.checked = 0
        self.failed = 0
        self.float_order_differences = 0
        self.first_failure: Optional[Dict[str, Any]] = None
        self._first: Dict[tuple, Tuple[Sequence[str], str]] = {}

    def _same(self, argv: Sequence[str], stdout: str) -> bool:
        first_argv, first = self._first.setdefault(identity_key(argv), (argv, stdout))
        if first == stdout:
            return True
        if (
            argv[0] in FLOAT_ORDER_COMMANDS
            and "--json" in argv
            and tuple(first_argv) != tuple(argv)
        ):
            if _close(json.loads(first), json.loads(stdout)):
                self.float_order_differences += 1
                return True
        return False

    def check(self, argv: Sequence[str], returncode: int, stdout: str, stderr: str = "") -> bool:
        """Check one request; returns whether it passed."""
        self.checked += 1
        problem = check_request(argv, returncode, stdout)
        if problem is None and not self._same(argv, stdout):
            problem = (
                "stdout differs from an earlier run of the same request "
                "(neither --workers nor a warm cache may change it)"
            )
        if problem is None:
            return True
        self.fail(argv, problem, stderr if returncode != 0 else "")
        return False

    def fail(self, argv: Sequence[str], problem: str, stderr: str = "") -> None:
        """Count a checked request as failed."""
        self.failed += 1
        if self.first_failure is None:
            self.first_failure = {"argv": list(argv), "problem": problem}
            if stderr.strip():
                self.first_failure["stderr"] = stderr.strip()[-400:]
