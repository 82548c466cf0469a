"""State-compute replication: exact counters, approximate admission.

The two poles of the SCR trade: commutative counters reconcile exactly
(drift identically zero), while token-bucket admission against per-lane
budget shares diverges from the sequential bucket — deterministically,
and bounded by the reconciliation period.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.stateful.scr import ReplicatedCounter, ScrTokenBucket


class ReferenceTokenBucket:
    """The token bucket with one refill method per (lane, flow), kept as
    the oracle for the inlined :class:`ScrTokenBucket`."""

    def __init__(
        self,
        flows: int,
        lanes: int,
        capacity: float,
        refill_per_s: float,
    ) -> None:
        self.flows = flows
        self.lanes = lanes
        self.capacity = capacity
        self.refill_per_s = refill_per_s
        share = capacity / lanes
        self._tokens = [[share] * flows for _ in range(lanes)]
        self._refill_at = [[0.0] * flows for _ in range(lanes)]
        self._shadow_tokens = [capacity] * flows
        self._shadow_refill_at = [0.0] * flows
        self.admitted = 0
        self.dropped = 0
        self.shadow_admitted = 0
        self.admit_divergence = 0
        self.reconciliations = 0
        self.tokens_moved = 0.0

    def _lane_refill(self, lane: int, flow: int, now_s: float) -> None:
        elapsed = now_s - self._refill_at[lane][flow]
        if elapsed > 0:
            cap = self.capacity / self.lanes
            self._tokens[lane][flow] = min(
                cap,
                self._tokens[lane][flow]
                + elapsed * self.refill_per_s / self.lanes,
            )
        self._refill_at[lane][flow] = now_s

    def try_consume(
        self, lane: int, flow: int, tokens: float, now_s: float
    ) -> bool:
        if not 0 <= lane < self.lanes:
            raise ConfigError(
                f"token bucket: lane {lane} out of range [0, {self.lanes})"
            )
        slot = flow % self.flows
        self._lane_refill(lane, slot, now_s)
        admitted = self._tokens[lane][slot] >= tokens
        if admitted:
            self._tokens[lane][slot] -= tokens
            self.admitted += 1
        else:
            self.dropped += 1

        elapsed = now_s - self._shadow_refill_at[slot]
        if elapsed > 0:
            self._shadow_tokens[slot] = min(
                self.capacity,
                self._shadow_tokens[slot] + elapsed * self.refill_per_s,
            )
        self._shadow_refill_at[slot] = now_s
        shadow_admit = self._shadow_tokens[slot] >= tokens
        if shadow_admit:
            self._shadow_tokens[slot] -= tokens
            self.shadow_admitted += 1
        if admitted != shadow_admit:
            self.admit_divergence += 1
        return admitted

    def reconcile(self, now_s: float) -> float:
        self.reconciliations += 1
        moved = 0.0
        for flow in range(self.flows):
            for lane in range(self.lanes):
                self._lane_refill(lane, flow, now_s)
            pool = sum(self._tokens[lane][flow] for lane in range(self.lanes))
            share = pool / self.lanes
            for lane in range(self.lanes):
                moved += abs(self._tokens[lane][flow] - share)
                self._tokens[lane][flow] = share
        moved /= 2.0
        self.tokens_moved += moved
        return moved

    def lane_tokens(self, lane: int, flow: int) -> float:
        return self._tokens[lane][flow % self.flows]


def _fraction(high: float):
    return st.floats(0.0, high, allow_nan=False, allow_infinity=False)


@st.composite
def _scr_runs(draw):
    """A bucket shape plus an interleaved consume/reconcile schedule at
    non-decreasing times, often repeating a time (elapsed == 0).

    Refill, time steps and packet sizes are scaled to the capacity so that
    most refills land below the cap, where a reordered float operation
    would show.
    """
    flows = draw(st.integers(1, 64))
    lanes = draw(st.integers(1, 8))
    capacity = draw(
        st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False)
    )
    refill = capacity * draw(_fraction(0.2))
    steps = []
    now = 0.0
    for _ in range(draw(st.integers(1, 60))):
        # Microsecond steps are rarely exact binary fractions.
        now += draw(st.one_of(st.just(0), st.integers(0, 10**6))) * 1e-6
        if draw(st.integers(0, 3)) == 0:
            steps.append(("reconcile", now))
        else:
            steps.append((
                "consume",
                draw(st.integers(0, lanes - 1)),
                draw(st.integers(0, 4 * flows)),
                draw(st.one_of(st.just(1.0), _fraction(0.3).map(
                    lambda f: capacity * f
                ))),
                now,
            ))
    return flows, lanes, capacity, refill, steps


class TestReplicatedCounter:
    def test_lane_adds_fold_exactly(self):
        ctr = ReplicatedCounter("pkts", size=8, lanes=4)
        for lane in range(4):
            for _ in range(lane + 1):
                ctr.add(lane, 3)
        assert ctr.total(3) == 1 + 2 + 3 + 4
        ctr.reconcile()
        assert ctr.total(3) == 10
        assert ctr.drift() == 0

    def test_drift_is_zero_with_or_without_reconcile(self):
        ctr = ReplicatedCounter("pkts", size=4, lanes=3)
        for i in range(50):
            ctr.add(i % 3, i % 4, value=i)
        assert ctr.drift() == 0
        ctr.reconcile()
        assert ctr.drift() == 0

    def test_reconcile_reports_folded_cells(self):
        ctr = ReplicatedCounter("pkts", size=8, lanes=2)
        ctr.add(0, 0)
        ctr.add(1, 5)
        assert ctr.reconcile() == 2
        assert ctr.reconcile() == 0  # nothing pending

    def test_bad_lane_rejected(self):
        ctr = ReplicatedCounter("pkts", size=2, lanes=2)
        with pytest.raises(ConfigError, match="lane"):
            ctr.add(2, 0)


class TestScrTokenBucket:
    def test_burst_capacity_split_across_lanes(self):
        bucket = ScrTokenBucket(flows=1, lanes=4, capacity=8.0, refill_per_s=0.0)
        # Each lane owns 2 tokens; a one-lane burst exhausts its share
        # long before the logical bucket would be empty.
        admitted = sum(
            bucket.try_consume(0, 0, 1.0, now_s=0.0) for _ in range(8)
        )
        assert admitted == 2
        assert bucket.shadow_admitted == 8
        assert bucket.admit_divergence == 6

    def test_spread_traffic_matches_shadow(self):
        bucket = ScrTokenBucket(flows=1, lanes=4, capacity=8.0, refill_per_s=0.0)
        admitted = sum(
            bucket.try_consume(lane, 0, 1.0, now_s=0.0)
            for lane in (0, 1, 2, 3) * 2
        )
        assert admitted == 8
        assert bucket.admit_divergence == 0

    def test_reconcile_rebalances_lane_shares(self):
        bucket = ScrTokenBucket(flows=1, lanes=2, capacity=4.0, refill_per_s=0.0)
        for _ in range(2):
            bucket.try_consume(0, 0, 1.0, now_s=0.0)  # drain lane 0
        assert bucket.lane_tokens(0, 0) == 0.0
        moved = bucket.reconcile(now_s=0.0)
        assert moved == pytest.approx(1.0)
        assert bucket.lane_tokens(0, 0) == pytest.approx(1.0)
        assert bucket.lane_tokens(1, 0) == pytest.approx(1.0)
        assert bucket.tokens_moved == pytest.approx(1.0)

    def test_refill_restores_admission(self):
        bucket = ScrTokenBucket(flows=1, lanes=1, capacity=2.0, refill_per_s=2.0)
        assert bucket.try_consume(0, 0, 1.0, now_s=0.0)
        assert bucket.try_consume(0, 0, 1.0, now_s=0.0)
        assert not bucket.try_consume(0, 0, 1.0, now_s=0.0)
        assert bucket.try_consume(0, 0, 1.0, now_s=1.0)  # 2 tokens refilled

    def test_deterministic_divergence(self):
        def run():
            bucket = ScrTokenBucket(
                flows=4, lanes=4, capacity=4.0, refill_per_s=1.0
            )
            for i in range(200):
                bucket.try_consume(i % 4, (i * 7) % 4, 1.0, now_s=i * 0.01)
                if i % 50 == 49:
                    bucket.reconcile(now_s=i * 0.01)
            return (
                bucket.admitted,
                bucket.dropped,
                bucket.admit_divergence,
                bucket.tokens_moved,
            )

        assert run() == run()

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigError):
            ScrTokenBucket(flows=0, lanes=1, capacity=1.0, refill_per_s=0.0)
        with pytest.raises(ConfigError):
            ScrTokenBucket(flows=1, lanes=1, capacity=0.0, refill_per_s=0.0)
        bucket = ScrTokenBucket(flows=1, lanes=2, capacity=2.0, refill_per_s=0.0)
        with pytest.raises(ConfigError, match="lane"):
            bucket.try_consume(2, 0, 1.0, now_s=0.0)


class TestInlinedRefillEquivalence:
    """The inlined refill is bit-identical to one refill call per lane."""

    @pytest.mark.parametrize("lanes", [3, 5, 6, 7])
    def test_non_power_of_two_lanes(self, lanes):
        self._check(
            (5, lanes, 7.3, 3.1, [
                ("consume", i % lanes, i * 3, 1.0, i * 0.137)
                if i % 9 else ("reconcile", i * 0.137)
                for i in range(200)
            ])
        )

    @settings(deadline=None, max_examples=150)
    @given(_scr_runs())
    def test_matches_reference(self, run):
        self._check(run)

    @pytest.mark.parametrize(
        "capacity,lanes,exact",
        [(16.0, 4, True), (7.3, 3, True), (16.0, 7, False), (7.3, 8, False)],
    )
    def test_reconcile_skips_settled_flows_only_when_exact(
        self, capacity, lanes, exact
    ):
        """Flows 3..7 are never consumed, so they stay settled and are
        skipped -- unless re-splitting ``lanes`` caps does not return
        the cap bit for bit, where every flow is reconciled (and drifts,
        as in the reference)."""
        flows = 8
        refill = capacity * 10
        steps = []
        for i in range(300):
            now = i * 0.0123
            if i % 5 == 4:
                steps.append(("reconcile", now))
            else:
                size = 1.0 if i % 2 else 0.9 * capacity / lanes
                steps.append(("consume", i % lanes, i * 7 % 3, size, now))
        fast = self._check((flows, lanes, capacity, refill, steps))
        cap = capacity / lanes
        assert (sum([cap] * lanes) / lanes == cap) is exact
        assert fast._settled_exact is exact
        if exact:
            assert fast._unsettled <= {0, 1, 2}

    @staticmethod
    def _check(run):
        flows, lanes, capacity, refill, steps = run
        fast = ScrTokenBucket(flows, lanes, capacity, refill)
        ref = ReferenceTokenBucket(flows, lanes, capacity, refill)
        for step in steps:
            if step[0] == "reconcile":
                assert fast.reconcile(step[1]) == ref.reconcile(step[1])
            else:
                lane, flow, tokens, now = step[1:]
                assert fast.try_consume(lane, flow, tokens, now) == (
                    ref.try_consume(lane, flow, tokens, now)
                )
            for lane in range(lanes):
                for flow in range(flows):
                    assert fast.lane_tokens(lane, flow) == (
                        ref.lane_tokens(lane, flow)
                    )
        for counter in (
            "admitted",
            "dropped",
            "shadow_admitted",
            "admit_divergence",
            "reconciliations",
            "tokens_moved",
        ):
            assert getattr(fast, counter) == getattr(ref, counter), counter
        return fast
