"""BCC(b) simulator core: model, instances, algorithms, round engine."""

from repro import lazy_getattr

_LAZY_EXPORTS = {
    "AlgorithmFactory": "repro.core.algorithm",
    "ConstantAlgorithm": "repro.core.algorithm",
    "FunctionalAlgorithm": "repro.core.algorithm",
    "NO": "repro.core.algorithm",
    "NodeAlgorithm": "repro.core.algorithm",
    "SilentAlgorithm": "repro.core.algorithm",
    "YES": "repro.core.algorithm",
    "ErrorEstimate": "repro.core.decision",
    "decision_of_run": "repro.core.decision",
    "distributional_error": "repro.core.decision",
    "labelling_error": "repro.core.decision",
    "per_input_error": "repro.core.decision",
    "system_decision": "repro.core.decision",
    "BCCInstance": "repro.core.instance",
    "IndexEdge": "repro.core.instance",
    "InitialKnowledge": "repro.core.knowledge",
    "BCC1_KT0": "repro.core.model",
    "BCC1_KT1": "repro.core.model",
    "BCCModel": "repro.core.model",
    "SILENT": "repro.core.model",
    "SILENT_CHAR": "repro.core.model",
    "message_to_char": "repro.core.model",
    "PublicCoin": "repro.core.randomness",
    "RangeModel": "repro.core.range_model",
    "RangeNodeAlgorithm": "repro.core.range_model",
    "RangeRunResult": "repro.core.range_model",
    "RangeSimulator": "repro.core.range_model",
    "instance_from_dict": "repro.core.serialization",
    "instance_from_json": "repro.core.serialization",
    "instance_to_dict": "repro.core.serialization",
    "instance_to_json": "repro.core.serialization",
    "RunResult": "repro.core.simulator",
    "Simulator": "repro.core.simulator",
    "first_divergence": "repro.core.tracing",
    "render_diff": "repro.core.tracing",
    "render_run": "repro.core.tracing",
    "render_vertex": "repro.core.tracing",
    "RoundRecord": "repro.core.transcript",
    "Transcript": "repro.core.transcript",
    "sent_label": "repro.core.transcript",
}

__getattr__ = lazy_getattr(globals())

__all__ = sorted(_LAZY_EXPORTS)
