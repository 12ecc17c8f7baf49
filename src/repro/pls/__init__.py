"""Proof-labeling schemes in the broadcast clique (Section 1.3 machinery)."""

from repro import lazy_getattr

_LAZY_EXPORTS = {
    "TranscriptPLS": "repro.pls.from_bcc",
    "RandomizedSpanningTreePLS": "repro.pls.randomized",
    "Labelling": "repro.pls.scheme",
    "ProofLabelingScheme": "repro.pls.scheme",
    "VerificationResult": "repro.pls.scheme",
    "VertexView": "repro.pls.scheme",
    "SpanningTreePLS": "repro.pls.spanning_tree",
}

__getattr__ = lazy_getattr(globals())

__all__ = sorted(_LAZY_EXPORTS)
