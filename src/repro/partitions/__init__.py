"""The set-partition lattice, Bell numbers, and the M_n / E_n rank results."""

from repro import lazy_getattr

_LAZY_EXPORTS = {
    "bell_number": "repro.partitions.bell",
    "bell_numbers_upto": "repro.partitions.bell",
    "double_factorial_odd": "repro.partitions.bell",
    "log2_bell": "repro.partitions.bell",
    "log2_perfect_matchings": "repro.partitions.bell",
    "perfect_matching_count": "repro.partitions.bell",
    "stirling2": "repro.partitions.bell",
    "enumerate_partitions": "repro.partitions.enumeration",
    "enumerate_perfect_matchings": "repro.partitions.enumeration",
    "enumerate_rgs": "repro.partitions.enumeration",
    "random_partition": "repro.partitions.enumeration",
    "random_perfect_matching": "repro.partitions.enumeration",
    "characteristic_polynomial": "repro.partitions.lattice_stats",
    "interval": "repro.partitions.lattice_stats",
    "mobius": "repro.partitions.lattice_stats",
    "mobius_bottom_top": "repro.partitions.lattice_stats",
    "predicted_characteristic_polynomial": "repro.partitions.lattice_stats",
    "predicted_mobius_bottom_top": "repro.partitions.lattice_stats",
    "predicted_mobius_to_top": "repro.partitions.lattice_stats",
    "whitney_numbers_second_kind": "repro.partitions.lattice_stats",
    "whitney_sum_is_bell": "repro.partitions.lattice_stats",
    "DEFAULT_PRIMES": "repro.partitions.linalg",
    "is_full_rank": "repro.partitions.linalg",
    "rank_bareiss": "repro.partitions.linalg",
    "rank_exact": "repro.partitions.linalg",
    "rank_mod_p": "repro.partitions.linalg",
    "rank_multi_prime": "repro.partitions.linalg",
    "build_e_matrix": "repro.partitions.matrices",
    "build_m_matrix": "repro.partitions.matrices",
    "clear_enumeration_cache": "repro.partitions.matrices",
    "e_matrix_is_full_rank": "repro.partitions.matrices",
    "e_matrix_rank": "repro.partitions.matrices",
    "m_matrix_is_full_rank": "repro.partitions.matrices",
    "m_matrix_rank": "repro.partitions.matrices",
    "matchings_for": "repro.partitions.matrices",
    "partition_cc_lower_bound": "repro.partitions.matrices",
    "partition_matrix": "repro.partitions.matrices",
    "partitions_for": "repro.partitions.matrices",
    "two_partition_cc_lower_bound": "repro.partitions.matrices",
    "Block": "repro.partitions.set_partition",
    "SetPartition": "repro.partitions.set_partition",
    "joins_to_top": "repro.partitions.set_partition",
}

__getattr__ = lazy_getattr(globals())

__all__ = sorted(_LAZY_EXPORTS)
