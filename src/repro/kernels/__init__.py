"""The batched mod-p rank engine behind the bit-identical contract.

A kernel here produces *exactly* the same answers as the pure-python
reference implementation (exact ``==`` on full enumerable spaces), with
a silent fallback when the accelerator (numpy) is absent. There is one:

* :mod:`repro.kernels.modp` -- batched mod-p rank over numpy int64
  blocks (one pivot search per column, then one chunked update of only
  the rows the pivot touches, reduced mod p only when int64 could
  overflow, instead of per-entry Python loops); the engine for every
  rank of at least ``repro.partitions.linalg.BATCHED_MIN_ROWS`` rows, at
  every prime (p = 2 included).

The indistinguishability graph (Definition 3.6) and its k-matchings
(Theorem 2.1) have one engine each, in :mod:`repro.indist`, and take no
``kernel`` argument.

Every rank call site takes a ``kernel`` argument (also exposed as
``--kernel`` on the relevant CLI subcommands) with these values:

* ``"auto"`` (the default) -- the batched engine, except on a matrix
  below ``BATCHED_MIN_ROWS`` rows, when numpy is absent, or when the
  prime overflows the int64 reduction: there, silently, the reference;
* ``"reference"`` -- the pure-python reference implementation, exactly
  as it was before this package existed.

Every rank, M_n and E_n included, goes through
:func:`repro.partitions.linalg.rank_mod_p` on a dense matrix, which
picks the batched engine or the reference by mode, row count, prime
and numpy's presence. :func:`resolve_kernel` validates the mode and resolves its
*family* (fast vs reference).

The contract, enforced by the ``tests/kernels`` suites: identical
ranks at any worker count and under every kernel mode, and identical
:class:`~repro.resilience.Budget` tick boundaries (one tick per pivot
column), so budget boundaries and span trees are unchanged.
"""

from __future__ import annotations

from typing import Tuple

from repro import lazy_getattr

# The engine is re-exported lazily (PEP 562): the CLI parser reads
# KERNEL_MODES without loading the engine module.
_LAZY_EXPORTS = {
    "HAVE_NUMPY": "repro.kernels.modp",
    "batched_modp_supported": "repro.kernels.modp",
    "rank_mod_p_batched": "repro.kernels.modp",
}

__getattr__ = lazy_getattr(globals())

__all__ = sorted([*_LAZY_EXPORTS, "KERNEL_MODES", "resolve_kernel"])

#: The accepted values of every ``kernel`` argument / ``--kernel`` flag.
KERNEL_MODES: Tuple[str, ...] = ("auto", "reference")


def resolve_kernel(kernel: str) -> str:
    """Resolve a kernel mode to its *family*: ``"packed"`` or ``"reference"``.

    Every consumer only needs the family: ``"auto"`` resolves to
    ``"packed"`` because the batched engine degrades silently to the
    reference when numpy is absent, so there is never a reason not to
    prefer it. Unknown values raise ``ValueError`` (a user error: the
    CLI maps it to exit code 2).
    """
    if kernel not in KERNEL_MODES:
        raise ValueError(
            f"unknown kernel {kernel!r}; expected one of {', '.join(KERNEL_MODES)}"
        )
    return "reference" if kernel == "reference" else "packed"
