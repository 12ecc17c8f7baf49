"""A symbolic cost calculus for communication-complexity predictions.

The paper's statements are closed-form functions of the model parameters
-- Theta((Delta + 1) * W) NeighborExchange rounds, 4n bits per simulated
round, Omega(n log n) total bits -- and this module makes those formulas
*first-class values*: small expression trees over named symbols (``n``,
``t``, ``W``, ...) that can be printed, composed with ordinary Python
operators, and evaluated exactly at finite parameter values. The
conformance layer (:mod:`repro.costs.conformance`) substitutes a concrete
``n`` into each protocol's declared expression and compares the result
against what the simulator actually measured, following the sympy
per-phase cost-accounting idiom of pia-mpc's ``complexity.py``.

Two backends, one answer:

* the **dependency-free evaluator** (this module's own tree walk) is the
  source of truth -- integer arithmetic stays exact (``bits``/``ceil``/
  ``floor``/``dfact`` never round through floats on int inputs), so a
  predicted bit count is an ``int`` comparable with ``==``;
* when **sympy is importable** (:data:`HAVE_SYMPY`), every expression
  also converts via :meth:`Expr.to_sympy`, and
  :func:`sympy_cross_check` re-evaluates it there -- a second,
  independently implemented opinion that the conformance checker treats
  as a self-test of the calculus. Results are identical with and
  without sympy; only the cross-check disappears.

Usage::

    n, t = symbols("n t")
    bits = n * t                     # ConstantAlgorithm on any instance
    rounds = 2 * bits_width(n - 1)   # NeighborExchange KT-1, Delta = 2
    evaluate(bits, {"n": 16, "t": 4})    # -> 64 (exact int)
"""

from __future__ import annotations

import functools
import math
from typing import Any, Dict, FrozenSet, Mapping, Tuple, Union

__all__ = [
    "HAVE_SYMPY",
    "Expr",
    "Sym",
    "Const",
    "bits_width",
    "ceil",
    "dfact",
    "evaluate",
    "floor",
    "log2",
    "symbols",
    "sympy_cross_check",
]

Number = Union[int, float]


@functools.lru_cache(maxsize=None)
def _sympy() -> Any:
    """The optional second opinion, imported on first use; None if absent.

    sympy takes longer to import than any command here takes to run, so
    nothing imports it until a cross-check or :meth:`Expr.to_sympy` asks.
    """
    try:
        import sympy  # type: ignore
    except ImportError:
        return None
    return sympy


def __getattr__(name: str) -> Any:
    # HAVE_SYMPY is settled by a real import attempt on first read (an
    # import that is blocked or broken reads False), not at module import.
    if name == "HAVE_SYMPY":
        return _sympy() is not None
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _wrap(value: Any) -> "Expr":
    if isinstance(value, Expr):
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"cannot use {value!r} in a cost expression")
    return Const(value)


class Expr:
    """Base of the expression tree; supports +, -, *, /, //, **.

    Subclasses implement :meth:`evaluate` (exact, dependency-free),
    :meth:`free_symbols`, ``__str__``, and :meth:`to_sympy`.
    """

    def evaluate(self, env: Mapping[str, Number]) -> Number:
        raise NotImplementedError

    def free_symbols(self) -> FrozenSet[str]:
        raise NotImplementedError

    def to_sympy(self) -> Any:
        raise NotImplementedError

    # -- operator sugar -------------------------------------------------
    def __add__(self, other: Any) -> "Expr":
        return BinOp("+", self, _wrap(other))

    def __radd__(self, other: Any) -> "Expr":
        return BinOp("+", _wrap(other), self)

    def __sub__(self, other: Any) -> "Expr":
        return BinOp("-", self, _wrap(other))

    def __rsub__(self, other: Any) -> "Expr":
        return BinOp("-", _wrap(other), self)

    def __mul__(self, other: Any) -> "Expr":
        return BinOp("*", self, _wrap(other))

    def __rmul__(self, other: Any) -> "Expr":
        return BinOp("*", _wrap(other), self)

    def __truediv__(self, other: Any) -> "Expr":
        return BinOp("/", self, _wrap(other))

    def __rtruediv__(self, other: Any) -> "Expr":
        return BinOp("/", _wrap(other), self)

    def __floordiv__(self, other: Any) -> "Expr":
        return BinOp("//", self, _wrap(other))

    def __rfloordiv__(self, other: Any) -> "Expr":
        return BinOp("//", _wrap(other), self)

    def __pow__(self, other: Any) -> "Expr":
        return BinOp("**", self, _wrap(other))

    def __rpow__(self, other: Any) -> "Expr":
        return BinOp("**", _wrap(other), self)

    def __neg__(self) -> "Expr":
        return BinOp("-", Const(0), self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self!s})"


class Sym(Expr):
    """A named symbol (``n``, ``t``, ``W``, ``b``, ``error``, ...)."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        if not name or not name.replace("_", "").isalnum():
            raise ValueError(f"symbol name must be alphanumeric, got {name!r}")
        self.name = name

    def evaluate(self, env: Mapping[str, Number]) -> Number:
        try:
            return env[self.name]
        except KeyError:
            raise KeyError(
                f"symbol {self.name!r} has no value; provided: {sorted(env)}"
            ) from None

    def free_symbols(self) -> FrozenSet[str]:
        return frozenset({self.name})

    def to_sympy(self) -> Any:
        return _sympy().Symbol(self.name, positive=True)

    def __str__(self) -> str:
        return self.name


class Const(Expr):
    """A literal int or float."""

    __slots__ = ("value",)

    def __init__(self, value: Number):
        self.value = value

    def evaluate(self, env: Mapping[str, Number]) -> Number:
        return self.value

    def free_symbols(self) -> FrozenSet[str]:
        return frozenset()

    def to_sympy(self) -> Any:
        sympy = _sympy()
        return sympy.Integer(self.value) if isinstance(self.value, int) else sympy.Float(self.value)

    def __str__(self) -> str:
        return str(self.value)


class BinOp(Expr):
    """One arithmetic node; division is the only op that may produce floats
    from int operands (truediv), everything else preserves exactness."""

    __slots__ = ("op", "left", "right")

    _OPS = ("+", "-", "*", "/", "//", "**")

    def __init__(self, op: str, left: Expr, right: Expr):
        if op not in self._OPS:
            raise ValueError(f"unknown operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def evaluate(self, env: Mapping[str, Number]) -> Number:
        a = self.left.evaluate(env)
        b = self.right.evaluate(env)
        if self.op == "+":
            return a + b
        if self.op == "-":
            return a - b
        if self.op == "*":
            return a * b
        if self.op == "/":
            return a / b
        if self.op == "//":
            return a // b
        return a**b

    def free_symbols(self) -> FrozenSet[str]:
        return self.left.free_symbols() | self.right.free_symbols()

    def to_sympy(self) -> Any:
        a, b = self.left.to_sympy(), self.right.to_sympy()
        if self.op == "+":
            return a + b
        if self.op == "-":
            return a - b
        if self.op == "*":
            return a * b
        if self.op == "/":
            return a / b
        if self.op == "//":
            return _sympy().floor(a / b)
        return a**b

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


class Call(Expr):
    """A named function application (``bits``, ``log2``, ``ceil``, ...)."""

    __slots__ = ("fn", "args")

    #: fn -> (exact evaluator, sympy constructor)
    _FNS: Dict[str, Tuple[Any, Any]] = {}

    def __init__(self, fn: str, *args: Expr):
        if fn not in self._FNS:
            raise ValueError(f"unknown cost function {fn!r}")
        self.fn = fn
        self.args = tuple(args)

    def evaluate(self, env: Mapping[str, Number]) -> Number:
        exact, _ = self._FNS[self.fn]
        return exact(*(a.evaluate(env) for a in self.args))

    def free_symbols(self) -> FrozenSet[str]:
        out: FrozenSet[str] = frozenset()
        for a in self.args:
            out |= a.free_symbols()
        return out

    def to_sympy(self) -> Any:
        _, build = self._FNS[self.fn]
        return build(*(a.to_sympy() for a in self.args))

    def __str__(self) -> str:
        return f"{self.fn}({', '.join(str(a) for a in self.args)})"


# ----------------------------------------------------------------------
# the function vocabulary
# ----------------------------------------------------------------------
def _exact_bits(x: Number) -> int:
    """Fixed ID width: bits to encode integers in [0, x] -- exactly
    :func:`repro.algorithms.bit_codec.id_bit_width` (duplicated as pure
    arithmetic so the calculus stays import-free of the algorithm layer)."""
    if x != int(x) or x < 0:
        raise ValueError(f"bits() needs an integer >= 0, got {x!r}")
    return max(1, int(x).bit_length())


def _exact_dfact(x: Number) -> int:
    """Double factorial x!! (the perfect-matching count (m-1)!! behind
    rank(E_m), Lemma 4.1)."""
    if x != int(x) or x < -1:
        raise ValueError(f"dfact() needs an integer >= -1, got {x!r}")
    out, k = 1, int(x)
    while k > 1:
        out *= k
        k -= 2
    return out


def _exact_ceil(x: Number) -> int:
    return math.ceil(x)


def _exact_floor(x: Number) -> int:
    return math.floor(x)


def _exact_log2(x: Number) -> Number:
    if isinstance(x, int) and x > 0 and (x & (x - 1)) == 0:
        return x.bit_length() - 1  # powers of two stay exact ints
    return math.log2(x)


def _sympy_bits(x: Any) -> Any:
    sympy = _sympy()
    return sympy.Max(1, sympy.floor(sympy.log(x, 2)) + 1)


def _sympy_dfact(x: Any) -> Any:
    return _sympy().factorial2(x)


Call._FNS = {
    "bits": (_exact_bits, _sympy_bits),
    "dfact": (_exact_dfact, _sympy_dfact),
    "ceil": (_exact_ceil, lambda a: _sympy().ceiling(a)),
    "floor": (_exact_floor, lambda a: _sympy().floor(a)),
    "log2": (_exact_log2, lambda a: _sympy().log(a, 2)),
}


def bits_width(x: Any) -> Expr:
    """Symbolic fixed ID width ``W`` for IDs in [0, x] (max(1, floor(log2 x) + 1))."""
    return Call("bits", _wrap(x))


def dfact(x: Any) -> Expr:
    """Symbolic double factorial ``x!!``."""
    return Call("dfact", _wrap(x))


def ceil(x: Any) -> Expr:
    return Call("ceil", _wrap(x))


def floor(x: Any) -> Expr:
    return Call("floor", _wrap(x))


def log2(x: Any) -> Expr:
    return Call("log2", _wrap(x))


def symbols(names: str) -> Tuple[Sym, ...]:
    """``symbols("n t W")`` -> a tuple of :class:`Sym`, sympy-style."""
    return tuple(Sym(name) for name in names.replace(",", " ").split())


def evaluate(expr: Any, env: Mapping[str, Number]) -> Number:
    """Evaluate an expression (or a plain number) at concrete values."""
    if isinstance(expr, (int, float)) and not isinstance(expr, bool):
        return expr
    if not isinstance(expr, Expr):
        raise TypeError(f"cannot evaluate {expr!r} as a cost expression")
    return expr.evaluate(env)


def sympy_cross_check(
    expr: Expr, env: Mapping[str, Number], tolerance: float = 1e-9
) -> bool:
    """Re-evaluate ``expr`` through sympy and compare with the exact walk.

    Returns True when sympy agrees (or trivially when sympy is absent --
    there is nothing to cross-check and the dependency-free answer
    stands). A disagreement raises ``ArithmeticError``: the two backends
    implementing one formula differently is a calculus bug, not data.
    """
    sympy = _sympy()
    if sympy is None:
        return False
    own = expr.evaluate(env)
    via = expr.to_sympy().subs({sympy.Symbol(k, positive=True): v for k, v in env.items()})
    via_value = float(sympy.N(via))
    if not math.isclose(float(own), via_value, rel_tol=tolerance, abs_tol=tolerance):
        raise ArithmeticError(
            f"sympy disagrees with the exact evaluator on {expr}: "
            f"{own} (exact) vs {via_value} (sympy) at {dict(env)}"
        )
    return True
