"""Problem definitions: Connectivity, ConnectedComponents, TwoCycle, MultiCycle."""

from repro import lazy_getattr

_LAZY_EXPORTS = {
    "DecisionProblem": "repro.problems.base",
    "LabellingProblem": "repro.problems.base",
    "Problem": "repro.problems.base",
    "ConnectedComponents": "repro.problems.connectivity",
    "Connectivity": "repro.problems.connectivity",
    "MultiCycle": "repro.problems.cycles",
    "TwoCycle": "repro.problems.cycles",
    "cycle_lengths": "repro.problems.cycles",
    "K4Detection": "repro.problems.subgraph",
    "contains_k4": "repro.problems.subgraph",
    "dko14_round_lower_bound": "repro.problems.subgraph",
    "trivial_upper_bound_rounds": "repro.problems.subgraph",
}

__getattr__ = lazy_getattr(globals())

__all__ = sorted(_LAZY_EXPORTS)
