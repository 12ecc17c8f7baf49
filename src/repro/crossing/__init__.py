"""Port-preserving crossings and operational indistinguishability (Section 3)."""

from repro import lazy_getattr

_LAZY_EXPORTS = {
    "active_edges": "repro.crossing.active",
    "directed_input_edges": "repro.crossing.active",
    "edge_label": "repro.crossing.active",
    "edge_labels": "repro.crossing.active",
    "label_classes": "repro.crossing.active",
    "largest_active_pair": "repro.crossing.active",
    "largest_label_class": "repro.crossing.active",
    "cross": "repro.crossing.crossing",
    "crossed_edge_sets": "repro.crossing.crossing",
    "DirectedEdge": "repro.crossing.independent",
    "are_independent": "repro.crossing.independent",
    "independent_edge_set_on_cycle": "repro.crossing.independent",
    "independent_pairs": "repro.crossing.independent",
    "check_lemma_3_4": "repro.crossing.indistinguishability",
    "distinguishing_vertices": "repro.crossing.indistinguishability",
    "indistinguishable_runs": "repro.crossing.indistinguishability",
    "lemma_3_4_premise_holds": "repro.crossing.indistinguishability",
    "vertex_states": "repro.crossing.indistinguishability",
}

__getattr__ = lazy_getattr(globals())

__all__ = sorted(_LAZY_EXPORTS)
