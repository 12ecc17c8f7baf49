"""Executable lower-bound engines, one per theorem of the paper."""

from repro import lazy_getattr

_LAZY_EXPORTS = {
    "FoolingPair": "repro.lowerbounds.adversary",
    "adversary_defeats": "repro.lowerbounds.adversary",
    "find_fooling_pairs": "repro.lowerbounds.adversary",
    "UniversalBoundReport": "repro.lowerbounds.exhaustive",
    "assignment_at": "repro.lowerbounds.exhaustive",
    "clear_pair_cache": "repro.lowerbounds.exhaustive",
    "covers_and_pairs_for": "repro.lowerbounds.exhaustive",
    "disconnecting_pairs": "repro.lowerbounds.exhaustive",
    "forced_error_of_assignment": "repro.lowerbounds.exhaustive",
    "universal_bound_id_oblivious": "repro.lowerbounds.exhaustive",
    "ForcedErrorReport": "repro.lowerbounds.kt0_constant_error",
    "forced_error_curve": "repro.lowerbounds.kt0_constant_error",
    "forced_error_of_algorithm": "repro.lowerbounds.kt0_constant_error",
    "FoolingReport": "repro.lowerbounds.kt0_star",
    "fool_algorithm": "repro.lowerbounds.kt0_star",
    "guaranteed_class_size": "repro.lowerbounds.kt0_star",
    "label_class_count": "repro.lowerbounds.kt0_star",
    "minimum_rounds_for_error": "repro.lowerbounds.kt0_star",
    "theorem_3_5_error_bound": "repro.lowerbounds.kt0_star",
    "KT1InformationBound": "repro.lowerbounds.kt1_infotheory",
    "components_round_bound": "repro.lowerbounds.kt1_infotheory",
    "information_bound_table": "repro.lowerbounds.kt1_infotheory",
    "measure_bcc_algorithm_information": "repro.lowerbounds.kt1_infotheory",
    "KT1RankBound": "repro.lowerbounds.kt1_rank",
    "connectivity_round_bound": "repro.lowerbounds.kt1_rank",
    "multicycle_round_bound": "repro.lowerbounds.kt1_rank",
    "omega_log_constant": "repro.lowerbounds.kt1_rank",
    "round_bound_table": "repro.lowerbounds.kt1_rank",
    "FullReport": "repro.lowerbounds.report",
    "full_report": "repro.lowerbounds.report",
    "WeightedInput": "repro.lowerbounds.yao",
    "star_distribution": "repro.lowerbounds.yao",
    "uniform_v1_v2_distribution": "repro.lowerbounds.yao",
}

__getattr__ = lazy_getattr(globals())

__all__ = sorted(_LAZY_EXPORTS)
