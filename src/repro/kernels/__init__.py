"""Packed / batched compute kernels behind the bit-identical contract.

PR 4 established the pattern for scaling this repo's engines: a fast
kernel that produces *exactly* the same answers as the pure-python
reference implementation (exact ``==`` on full enumerable spaces), with
a silent fallback when the accelerator (numpy) is absent. This package
generalizes that pattern to the paper's hot paths:

* :mod:`repro.kernels.modp` -- batched mod-p rank over numpy int64
  blocks (one argmax per pivot, then one chunked update + ``mod`` of
  only the rows the pivot touches, instead of per-entry Python loops);
  the engine for every rank, at every prime (p = 2 included).
* :mod:`repro.kernels.bitset_matching` -- integer-indexed Hopcroft-Karp
  on big-int adjacency masks, with a dedicated k-clone path that shares
  one mask across all k clones of a left vertex (Theorem 2.1).
* :mod:`repro.kernels.crossing_batch` -- batched validity filtering of
  crossing pairs (Definition 3.2/3.6) for the indistinguishability
  graph builder, scoring all candidate pairs of a cover in one numpy
  block.

Every consumer that picks up a kernel takes a ``kernel`` argument (also
exposed as ``--kernel`` on the relevant CLI subcommands) with these
values:

* ``"auto"`` (the default) -- the fast engines; the numpy-backed ones
  silently fall back to the reference when numpy is absent (or, for
  the rank, when the prime overflows the int64 reduction);
* ``"reference"`` -- the pure-python reference implementation, exactly
  as it was before this package existed.

Every rank, M_n and E_n included, goes through
:func:`repro.partitions.linalg.rank_mod_p` on a dense matrix, which
picks the batched engine or the reference by mode, prime and numpy's
presence. :func:`resolve_kernel` validates the mode and resolves its
*family* (fast vs reference) for the matching / graph-builder / rank
call sites.

The contract, enforced by the ``tests/kernels`` suites: identical
results at any worker count and under every kernel mode -- ranks are
equal integers, matchings are valid and of identical size, graphs are
edge-for-edge equal -- and identical
:class:`~repro.resilience.Budget` tick boundaries (one tick per pivot
column), so budget boundaries and span trees are unchanged.
"""

from __future__ import annotations

from typing import Tuple

from repro import lazy_getattr

# The engines are re-exported lazily (PEP 562): the CLI parser reads
# KERNEL_MODES, and the graph builder resolve_kernel, without loading
# every engine module.
_LAZY_EXPORTS = {
    "compile_bipartite": "repro.kernels.bitset_matching",
    "hopcroft_karp_bitset": "repro.kernels.bitset_matching",
    "k_matching_bitset": "repro.kernels.bitset_matching",
    "valid_crossing_pairs": "repro.kernels.crossing_batch",
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
    ``"packed"`` because the fast engines are either dependency-free
    (big-int bitsets) or degrade silently to the reference when numpy is
    absent, so there is never a reason not to prefer them. Unknown
    values raise ``ValueError`` (a user error: the CLI maps it to exit
    code 2).
    """
    if kernel not in KERNEL_MODES:
        raise ValueError(
            f"unknown kernel {kernel!r}; expected one of {', '.join(KERNEL_MODES)}"
        )
    return "reference" if kernel == "reference" else "packed"
