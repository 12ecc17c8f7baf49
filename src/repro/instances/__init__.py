"""Cycle instance families and exhaustive enumeration of V1 / V2."""

from repro import lazy_getattr

_LAZY_EXPORTS = {
    "multi_cycle_instance": "repro.instances.cycles",
    "one_cycle_instance": "repro.instances.cycles",
    "random_multi_cycle_instance": "repro.instances.cycles",
    "random_one_cycle_instance": "repro.instances.cycles",
    "two_cycle_instance": "repro.instances.cycles",
    "CycleCover": "repro.instances.enumeration",
    "count_cycles_on_set": "repro.instances.enumeration",
    "count_one_cycle_covers": "repro.instances.enumeration",
    "count_two_cycle_covers": "repro.instances.enumeration",
    "count_two_cycle_covers_with_split": "repro.instances.enumeration",
    "enumerate_multi_cycle_covers": "repro.instances.enumeration",
    "enumerate_one_cycle_covers": "repro.instances.enumeration",
    "enumerate_two_cycle_covers": "repro.instances.enumeration",
    "v2_to_v1_ratio": "repro.instances.enumeration",
}

__getattr__ = lazy_getattr(globals())

__all__ = sorted(_LAZY_EXPORTS)
