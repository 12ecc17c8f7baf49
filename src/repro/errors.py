"""Exception hierarchy for the ``repro`` library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while still
letting programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class InvalidInstanceError(ReproError):
    """An instance violates a structural invariant of the BCC model.

    Examples: port labels at a vertex are not a permutation of the expected
    label set, the network wiring is not symmetric, or an input edge refers
    to a vertex outside the instance.
    """


class InvalidCrossingError(ReproError):
    """A requested port-preserving crossing is not well defined.

    Raised when the two edges handed to the crossing operator are not
    independent in the sense of Definition 3.2 of the paper, or are not
    input-graph edges of the instance.
    """


class PromiseViolationError(ReproError):
    """An input violates the promise of a promise problem.

    For example, the TwoCycle problem promises that the input graph is a
    single cycle or a disjoint union of exactly two cycles of length >= 3.
    """


class AlgorithmContractError(ReproError):
    """A node algorithm violated the BCC model contract.

    Raised when a node broadcasts a message longer than the bandwidth ``b``,
    broadcasts characters outside the message alphabet, or produces an
    output of the wrong type for the problem being solved.
    """


class SimulationError(ReproError):
    """The simulator was driven into an inconsistent state.

    This indicates a bug in driver code (e.g. asking for transcripts of a
    round that was never executed), not in a node algorithm.
    """


class PartitionError(ReproError):
    """A set-partition operation received malformed input.

    Examples: blocks that overlap, blocks that do not cover the ground set,
    or a partition over the wrong ground set for the requested operation.
    """


class ProtocolError(ReproError):
    """A two-party protocol violated its contract.

    Raised for out-of-turn messages, malformed message alphabets, or a
    missing output at the end of a protocol run.
    """


class RankComputationError(ReproError):
    """An exact rank computation could not be completed or cross-checked."""


class FaultInjectionError(ReproError):
    """A fault plan is malformed or cannot be applied to this execution.

    Examples: a fault rate outside [0, 1], a scheduled fault naming a
    vertex index outside the instance, a fault kind the channel layer does
    not implement, or a bit-flip directed at a silent (empty) broadcast
    via an explicit schedule.
    """


class BudgetExceededError(ReproError):
    """A cooperative run budget (wall clock or work units) was exhausted.

    Long-running searches check their :class:`repro.resilience.Budget`
    inside the inner loop and raise this instead of running forever. The
    exception carries ``partial`` -- the best-so-far result object (e.g. a
    partial :class:`~repro.lowerbounds.exhaustive.UniversalBoundReport`)
    -- so callers can report progress.
    """

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


class EngineError(ReproError):
    """An engine request is malformed or names an unknown kind.

    Raised by :func:`repro.engine.execute` for requests outside the
    :data:`repro.engine.ENGINE_KINDS` registry or with parameters that
    fail normalization (wrong types, missing required fields). The CLI
    maps this -- like every other user error -- to exit code 2.
    """


class DeliveryPolicyError(ReproError):
    """A network delivery plan is malformed or cannot drive this execution.

    The channel-layer analogue of :class:`FaultInjectionError`: a negative
    ``max_delay``, a duplication rate outside [0, 1], or a delivery policy
    applied to an instance it cannot address.
    """


class SessionError(ReproError):
    """A session log could not be recorded, read, or trusted.

    Examples: the session path is missing or unreadable, the log violates
    the session schema (missing header, non-contiguous steps), the
    ``session_version`` is unsupported, or the log describes a different
    computation than the one being replayed.
    """


class ReplayDivergenceError(SessionError):
    """A replayed execution diverged from its recorded session.

    Carries ``divergence`` -- the first
    :class:`repro.replay.Divergence` (step index, field, recorded vs.
    live value) -- so callers can report exactly where determinism broke
    instead of a bare mismatch boolean. The CLI maps this to exit code 4.
    """

    def __init__(self, message: str, divergence=None):
        super().__init__(message)
        self.divergence = divergence
