"""Two-party communication: protocols, reductions (Sec. 4.2), simulation (Sec. 4.3)."""

from repro import lazy_getattr

_LAZY_EXPORTS = {
    "fooling_set_lower_bound": "repro.twoparty.lower_bounds",
    "is_fooling_set": "repro.twoparty.lower_bounds",
    "rank_lower_bound": "repro.twoparty.lower_bounds",
    "rank_lower_bound_from_rank": "repro.twoparty.lower_bounds",
    "verify_rank_bound_on_protocol": "repro.twoparty.lower_bounds",
    "PartitionCompProblem": "repro.twoparty.problems",
    "PartitionProblem": "repro.twoparty.problems",
    "TwoPartitionProblem": "repro.twoparty.problems",
    "ALICE": "repro.twoparty.protocol",
    "BOB": "repro.twoparty.protocol",
    "ProtocolResult": "repro.twoparty.protocol",
    "Turn": "repro.twoparty.protocol",
    "TwoPartyProtocol": "repro.twoparty.protocol",
    "decode_int": "repro.twoparty.protocol",
    "encode_int": "repro.twoparty.protocol",
    "all_classes_are_rectangles": "repro.twoparty.rectangles",
    "is_rectangle": "repro.twoparty.rectangles",
    "partition_is_monochromatic": "repro.twoparty.rectangles",
    "rectangle_count_bound": "repro.twoparty.rectangles",
    "transcript_partition": "repro.twoparty.rectangles",
    "verify_rectangle_structure": "repro.twoparty.rectangles",
    "worst_case_bits": "repro.twoparty.rectangles",
    "HostedInstance": "repro.twoparty.reductions",
    "NamedVertex": "repro.twoparty.reductions",
    "ReductionGraph": "repro.twoparty.reductions",
    "build_partition_reduction": "repro.twoparty.reductions",
    "build_two_partition_reduction": "repro.twoparty.reductions",
    "paper_id": "repro.twoparty.reductions",
    "to_kt1_instance": "repro.twoparty.reductions",
    "BCCSimulationProtocol": "repro.twoparty.simulation",
    "PARTITION": "repro.twoparty.simulation",
    "TWO_PARTITION": "repro.twoparty.simulation",
    "rounds_lower_bound_from_cc": "repro.twoparty.simulation",
    "simulation_bits_per_round": "repro.twoparty.simulation",
    "LossyPartitionCompProtocol": "repro.twoparty.upper_bounds",
    "TrivialPartitionCompProtocol": "repro.twoparty.upper_bounds",
    "TrivialPartitionProtocol": "repro.twoparty.upper_bounds",
    "decode_partition": "repro.twoparty.upper_bounds",
    "encode_partition": "repro.twoparty.upper_bounds",
    "rgs_bit_width": "repro.twoparty.upper_bounds",
}

__getattr__ = lazy_getattr(globals())

__all__ = sorted(_LAZY_EXPORTS)
