"""Per-edge channel network layer for the BCC simulator.

``repro.net`` turns message delivery into an explicit, pluggable policy:
a :class:`NetworkPlan` describes how every directed edge behaves (delay,
duplication, deterministic reordering -- all seeded), a
:class:`NetworkManager` owns the per-run :class:`Channel` objects, and
the existing :class:`~repro.resilience.faults.FaultPlan` rides along as
the corruption stage of the same pipeline. See :mod:`repro.net.plan` for
the policy semantics and determinism contract.
"""

from repro import lazy_getattr

_LAZY_EXPORTS = {
    "Channel": "repro.net.channel",
    "NetworkManager": "repro.net.channel",
    "delivery_population": "repro.net.channel",
    "DELIVERY_KINDS": "repro.net.plan",
    "NetworkEvent": "repro.net.plan",
    "NetworkPlan": "repro.net.plan",
}

__getattr__ = lazy_getattr(globals())

__all__ = sorted(_LAZY_EXPORTS)
