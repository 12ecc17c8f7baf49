"""Proof-labeling schemes in the broadcast congested clique (Section 1.3).

The paper situates its KT-0 result against proof-labeling schemes (PLS)
[KKP10; BFP15; PP17]: a *prover* assigns each vertex a label, and a
one-round distributed *verifier* must accept every correctly-labelled YES
instance and reject every labelling of a NO instance. In the broadcast
congested clique variant (Patt-Shamir & Perry), each vertex broadcasts its
label (the *verification complexity* is the label length) and then decides
from its local view plus everyone's labels.

This module provides the framework; :mod:`repro.pls.spanning_tree` gives
the classic O(log n)-bit scheme for Connectivity, and
:mod:`repro.pls.from_bcc` implements the reduction the paper sketches:
any t-round deterministic BCC(1) algorithm yields a PLS with t-character
labels -- so a PLS verification lower bound transfers to a round lower
bound.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, List, Mapping, Tuple

from repro.core.instance import BCCInstance

#: A labelling: vertex index -> label bit-string (over the scheme alphabet).
Labelling = Dict[int, str]


@dataclass(frozen=True)
class VertexView:
    """What one vertex sees during verification.

    Mirrors the KT-1 broadcast-verification setting of [PP17]: the vertex
    knows its own ID, its input-graph neighbors' IDs, the full ID list,
    its own label, and -- after the single broadcast round -- the label of
    every other vertex keyed by ID.
    """

    vertex_id: int
    all_ids: Tuple[int, ...]
    neighbor_ids: Tuple[int, ...]
    own_label: str
    labels_by_id: Mapping[int, str]


@dataclass
class VerificationResult:
    """Outcome of running a PLS verifier on a labelled instance."""

    accepted: bool
    rejecting_vertices: List[int]
    verification_bits: int  # the longest broadcast label

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.accepted


class ProofLabelingScheme(ABC):
    """A prover/verifier pair for a predicate on BCC instances."""

    #: Human-readable scheme name.
    name: str = "pls"

    @abstractmethod
    def predicate(self, instance: BCCInstance) -> bool:
        """The global predicate being verified (e.g. connectivity)."""

    @abstractmethod
    def prove(self, instance: BCCInstance) -> Labelling:
        """The honest prover: labels for a predicate-satisfying instance."""

    @abstractmethod
    def verify_at(self, view: VertexView) -> bool:
        """The local verifier at one vertex (True = accept)."""

    # ------------------------------------------------------------------
    # driver
    # ------------------------------------------------------------------
    def run(self, instance: BCCInstance, labels: Labelling) -> VerificationResult:
        """Broadcast all labels and evaluate every vertex's verdict."""
        labels_by_id = {
            instance.vertex_id(v): labels.get(v, "") for v in range(instance.n)
        }
        all_ids = tuple(sorted(instance.ids))
        rejecting = []
        for v in range(instance.n):
            view = VertexView(
                vertex_id=instance.vertex_id(v),
                all_ids=all_ids,
                neighbor_ids=tuple(
                    sorted(instance.vertex_id(u) for u in instance.input_neighbors(v))
                ),
                own_label=labels.get(v, ""),
                labels_by_id=labels_by_id,
            )
            if not self.verify_at(view):
                rejecting.append(v)
        return VerificationResult(
            accepted=not rejecting,
            rejecting_vertices=rejecting,
            verification_bits=max((len(l) for l in labels.values()), default=0),
        )

    def completeness_holds(self, instance: BCCInstance) -> bool:
        """YES instance + honest prover => accepted."""
        if not self.predicate(instance):
            raise ValueError("completeness is only defined on YES instances")
        return self.run(instance, self.prove(instance)).accepted

    def soundness_holds(self, instance: BCCInstance, labels: Labelling) -> bool:
        """NO instance + any labelling => rejected."""
        if self.predicate(instance):
            raise ValueError("soundness is only defined on NO instances")
        return not self.run(instance, labels).accepted
