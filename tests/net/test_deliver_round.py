"""``NetworkManager.deliver_round`` equals the per-copy delivery loop.

The simulator used to deliver one (sender, receiver) copy at a time:
the fault filter, then that edge's channel, for each copy in receiver-
then-sender order. ``deliver_round`` runs the fault filter over the
whole round first and the channels second. The two stages own separate
RNG streams and event lists, so the result must not move. The oracle
below is that per-copy loop, kept verbatim, preceded by the crash-stop
filter that drew one coin per live vertex in a Python loop and copied
the broadcasts every round; hypothesis drives both over random fault
plans, network plans and traffic, and every round compares the rows,
both event lists and both RNG digests.
"""

from hypothesis import given, settings, strategies as st
import pytest

from repro.errors import FaultInjectionError
from repro.net import NetworkPlan
from repro.resilience import FaultPlan, ScheduledFault
from repro.resilience.faults import FaultEvent, _flip


# -- the per-copy oracle -------------------------------------------------


def _filter_broadcasts(fault_run, t, messages):
    """Sender-side faults (crash-stop), as the per-vertex engine applied them."""
    plan = fault_run.plan
    out = list(messages)
    # 1. explicit scheduled crashes for this round
    for fault in fault_run._by_round.get(t, ()):
        if fault.kind != "crash":
            continue
        if fault.vertex not in fault_run._crashed:
            fault_run._crashed.add(fault.vertex)
            fault_run.events.append(
                FaultEvent(
                    t=t,
                    kind="crash",
                    vertex=fault.vertex,
                    receiver=None,
                    original=out[fault.vertex],
                    delivered="",
                    scheduled=True,
                )
            )
    # 2. rate-driven crashes -- one RNG draw per live vertex, fixed order
    if plan.crash_rate > 0.0 and fault_run._in_window(t):
        for v in range(fault_run.n):
            if v in fault_run._crashed:
                continue
            draw = fault_run._rng.random()
            if draw < plan.crash_rate and (
                plan.max_crashes is None
                or fault_run._crashes_injected < plan.max_crashes
            ):
                fault_run._crashed.add(v)
                fault_run._crashes_injected += 1
                fault_run.events.append(
                    FaultEvent(
                        t=t,
                        kind="crash",
                        vertex=v,
                        receiver=None,
                        original=out[v],
                        delivered="",
                    )
                )
    # 3. silence every crashed vertex (including ones crashed earlier)
    for v in fault_run._crashed:
        out[v] = ""
    return tuple(out)


def _filter_delivery(fault_run, t, sender, receiver, message):
    """Delivery faults for one copy, as the per-copy engine applied them."""
    plan = fault_run.plan
    delivered = message
    for fault in fault_run._by_round.get(t, ()):
        if fault.kind == "crash" or fault.vertex != sender:
            continue
        if fault.receiver is not None and fault.receiver != receiver:
            continue
        if fault.kind == "erasure":
            if delivered != "":
                fault_run.events.append(
                    FaultEvent(t, "erasure", sender, receiver, delivered, "", True)
                )
                delivered = ""
        else:  # bit_flip
            if fault.bit_index >= len(delivered):
                raise FaultInjectionError(
                    f"scheduled bit_flip at round {t} targets bit "
                    f"{fault.bit_index} of message {delivered!r} from "
                    f"vertex {sender} (message too short)"
                )
            flipped = _flip(delivered, fault.bit_index)
            fault_run.events.append(
                FaultEvent(t, "bit_flip", sender, receiver, delivered, flipped, True)
            )
            delivered = flipped
    if fault_run._in_window(t):
        if plan.erasure_rate > 0.0:
            if fault_run._rng.random() < plan.erasure_rate and delivered != "":
                fault_run.events.append(
                    FaultEvent(t, "erasure", sender, receiver, delivered, "")
                )
                delivered = ""
        if plan.bit_flip_rate > 0.0:
            draw = fault_run._rng.random()
            pick = fault_run._rng.random()
            if draw < plan.bit_flip_rate and delivered:
                index = int(pick * len(delivered))
                flipped = _flip(delivered, min(index, len(delivered) - 1))
                fault_run.events.append(
                    FaultEvent(t, "bit_flip", sender, receiver, delivered, flipped)
                )
                delivered = flipped
    return delivered


def _deliver(manager, t, sender, receiver, message):
    """One copy through the fault filter, then its edge's channel."""
    if manager.fault_run is not None:
        message = _filter_delivery(manager.fault_run, t, sender, receiver, message)
    if manager._channels is None:
        return message
    return manager._channels[sender][receiver].transmit(
        t, message, manager.plan, manager._rng, manager.events
    )


def _per_copy_round(manager, t, messages):
    n = manager.n
    rows = []
    for receiver in range(n):
        row = list(messages)
        for sender in range(n):
            if sender != receiver:
                row[sender] = _deliver(manager, t, sender, receiver, messages[sender])
        rows.append(row)
    return rows


# -- strategies ------------------------------------------------------------

RATES = st.sampled_from([0.0, 0.0, 0.1, 0.5, 1.0])


@st.composite
def scenarios(draw):
    n = draw(st.integers(2, 5))
    rounds = draw(st.integers(1, 6))
    bandwidth = draw(st.integers(1, 3))
    traffic = draw(
        st.lists(
            st.lists(st.text("01", max_size=bandwidth), min_size=n, max_size=n),
            min_size=rounds,
            max_size=rounds,
        )
    )
    faults = None
    if draw(st.booleans()):
        scheduled = draw(
            st.lists(
                st.builds(
                    ScheduledFault,
                    round_index=st.integers(1, rounds),
                    kind=st.sampled_from(["erasure", "bit_flip", "crash"]),
                    vertex=st.integers(0, n - 1),
                    receiver=st.none() | st.integers(0, n - 1),
                    bit_index=st.integers(0, bandwidth),
                ),
                max_size=4,
            )
        )
        first_round = draw(st.integers(1, rounds))
        last_round = draw(st.none() | st.integers(first_round, rounds))
        faults = FaultPlan(
            seed=draw(st.integers(0, 2**16)),
            bit_flip_rate=draw(RATES),
            erasure_rate=draw(RATES),
            crash_rate=draw(RATES),
            max_crashes=draw(st.none() | st.integers(0, 2)),
            scheduled=tuple(scheduled),
            first_round=first_round,
            last_round=last_round,
        )
    if draw(st.booleans()):
        network = NetworkPlan(faults=faults)
    else:
        network = NetworkPlan(
            seed=draw(st.integers(0, 2**16)),
            max_delay=draw(st.integers(0, 2)),
            duplicate_rate=draw(RATES),
            reorder=draw(st.booleans()),
            faults=faults,
        )
    return n, traffic, network


def _fault_state(manager):
    run = manager.fault_run
    return (list(run.events), run.rng_digest()) if run is not None else None


@settings(max_examples=300, deadline=None)
@given(scenarios())
def test_deliver_round_matches_the_per_copy_loop(scenario):
    n, traffic, network = scenario
    oracle = network.begin_run(n)
    manager = network.begin_run(n)
    for t, sent in enumerate(traffic, start=1):
        messages = tuple(sent)
        if oracle.fault_run is not None:
            messages = _filter_broadcasts(oracle.fault_run, t, messages)
        assert manager.filter_broadcasts(t, tuple(sent)) == messages
        assert _fault_state(manager) == _fault_state(oracle)
        try:
            expected = _per_copy_round(oracle, t, messages)
        except FaultInjectionError as error:
            # A too-short scheduled bit_flip still raises, with the same
            # message; the run ends there.
            with pytest.raises(FaultInjectionError) as raised:
                manager.deliver_round(t, messages)
            assert str(raised.value) == str(error)
            return
        rows = manager.deliver_round(t, messages)
        assert [list(row) for row in rows] == expected
        assert _fault_state(manager) == _fault_state(oracle)
        assert manager.events == oracle.events
        assert manager.rng_digest() == oracle.rng_digest()
    oracle.finish(len(traffic))
    manager.finish(len(traffic))
    assert manager.events == oracle.events
    assert manager.delivery_stats() == oracle.delivery_stats()


def test_quiet_round_makes_no_draws_and_copies_nothing():
    plan = FaultPlan(seed=3, erasure_rate=0.5, first_round=4)
    manager = NetworkPlan(faults=plan).begin_run(3)
    digest = manager.fault_run.rng_digest()
    messages = ("0", "1", "")
    rows = manager.deliver_round(1, messages)
    assert rows == [messages] * 3
    assert all(row is messages for row in rows)
    assert manager.fault_run.rng_digest() == digest


def test_too_short_scheduled_bit_flip_raises():
    plan = FaultPlan(
        scheduled=(ScheduledFault(round_index=1, kind="bit_flip", vertex=0, bit_index=1),)
    )
    manager = NetworkPlan(faults=plan).begin_run(3)
    with pytest.raises(FaultInjectionError, match="message too short"):
        manager.deliver_round(1, ("1", "0", "1"))
