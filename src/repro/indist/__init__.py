"""Indistinguishability graphs, Hall machinery, and degree statistics."""

from repro import lazy_getattr

_LAZY_EXPORTS = {
    "hall_expansion_curve": "repro.indist.degree_stats",
    "harmonic": "repro.indist.degree_stats",
    "lemma_3_9_table": "repro.indist.degree_stats",
    "measured_one_cycle_degree": "repro.indist.degree_stats",
    "measured_split_population": "repro.indist.degree_stats",
    "measured_two_cycle_degree": "repro.indist.degree_stats",
    "one_cycle_degree": "repro.indist.degree_stats",
    "one_cycle_neighbor_split_counts": "repro.indist.degree_stats",
    "predicted_split_counts": "repro.indist.degree_stats",
    "predicted_v2_v1_ratio": "repro.indist.degree_stats",
    "split_population_bound": "repro.indist.degree_stats",
    "two_cycle_degree": "repro.indist.degree_stats",
    "all_two_cycle_covers_present": "repro.indist.graph_builder",
    "build_combinatorial_graph": "repro.indist.graph_builder",
    "build_operational_graph": "repro.indist.graph_builder",
    "cover_from_edges": "repro.indist.graph_builder",
    "cross_cover": "repro.indist.graph_builder",
    "crossing_neighbors": "repro.indist.graph_builder",
    "one_cycle_two_cycle_neighbors": "repro.indist.graph_builder",
    "all_subsets_satisfy_hall": "repro.indist.hall",
    "cloned_graph": "repro.indist.hall",
    "hall_condition_violations": "repro.indist.hall",
    "is_valid_k_matching": "repro.indist.hall",
    "k_matching": "repro.indist.hall",
    "k_matching_size": "repro.indist.hall",
    "max_saturating_k": "repro.indist.hall",
    "sampled_hall_check": "repro.indist.hall",
    "saturates": "repro.indist.hall",
    "BipartiteGraph": "repro.indist.matching",
    "hopcroft_karp": "repro.indist.matching",
    "is_valid_matching": "repro.indist.matching",
    "maximum_matching_size": "repro.indist.matching",
}

__getattr__ = lazy_getattr(globals())

__all__ = sorted(_LAZY_EXPORTS)
