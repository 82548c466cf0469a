"""State-compute replication: per-lane state + periodic reconciliation.

Sequential register access serializes stateful packet processing: one
memory, one access per packet, one pipeline.  State-compute replication
(Xu et al., arXiv:2309.14647) trades that bottleneck for N independent
replicas — one per ingress lane/port — each updated locally without
coordination, plus a periodic reconciliation step that folds the lane
partials back into the authoritative value.

Two shapes live here:

* :class:`ReplicatedCounter` — the exact case.  Counters commute, so
  folding lane partials reproduces the sequential result bit-for-bit;
  :meth:`ReplicatedCounter.drift` is identically zero after reconcile.
* :class:`ScrTokenBucket` — the approximate case.  Admission decisions
  consume shared budget, so partitioning the budget across lanes changes
  *which* packets are admitted relative to one sequential bucket.  The
  bucket runs a shadow sequential bucket over the same decision stream
  and reports the admission divergence — the quantity the reconciliation
  period trades against state-access parallelism.

Like the replicated objects, reconciliation traffic is charged
(transfers, moved tokens) rather than injected as packets.
"""

from __future__ import annotations

from ..errors import ConfigError

__all__ = ["ReplicatedCounter", "ScrTokenBucket"]


class ReplicatedCounter:
    """Per-lane replicated counters folded exactly at reconcile time."""

    def __init__(self, name: str, size: int, lanes: int) -> None:
        if size <= 0 or lanes <= 0:
            raise ConfigError(
                f"replicated counter {name!r}: size and lanes must be > 0"
            )
        self.name = name
        self.size = size
        self.lanes = lanes
        self._partials = [[0] * size for _ in range(lanes)]
        self._folded = [0] * size
        self._shadow = [0] * size  # sequential ground truth
        self.adds = 0
        self.reconciliations = 0
        self.reconciled_cells = 0

    def add(self, lane: int, index: int, value: int = 1) -> int:
        if not 0 <= lane < self.lanes:
            raise ConfigError(
                f"replicated counter {self.name!r}: lane {lane} out of "
                f"range [0, {self.lanes})"
            )
        slot = index % self.size
        self.adds += 1
        self._partials[lane][slot] += value
        self._shadow[slot] += value
        return self._partials[lane][slot]

    def reconcile(self) -> int:
        """Fold every lane partial into the authoritative array.

        Returns the number of non-zero cells folded this round.
        """
        self.reconciliations += 1
        folded = 0
        for partial in self._partials:
            for slot, value in enumerate(partial):
                if value:
                    self._folded[slot] += value
                    partial[slot] = 0
                    folded += 1
        self.reconciled_cells += folded
        return folded

    def total(self, index: int) -> int:
        """Authoritative + in-flight lane partials for one slot."""
        slot = index % self.size
        return self._folded[slot] + sum(p[slot] for p in self._partials)

    def drift(self) -> int:
        """Max |replicated - sequential| over all slots (0 == exact)."""
        return max(
            abs(self.total(slot) - self._shadow[slot])
            for slot in range(self.size)
        )


class ScrTokenBucket:
    """Per-flow token buckets with per-lane budget shares.

    The logical bucket for each flow holds ``capacity`` tokens refilled
    at ``refill_per_s``; each lane owns an equal share it draws from
    without coordination.  :meth:`reconcile` pools the lanes' leftover
    tokens and redistributes them evenly (remainder to the lowest lane
    indices — deterministic), modeling the periodic state exchange.

    A shadow sequential bucket replays the same ``(flow, tokens, time)``
    decision stream against the undivided budget; ``admit_divergence``
    counts decisions where the two disagree.

    A lane refill adds ``elapsed * refill_per_s / lanes`` in that order
    (``refill_per_s / lanes`` is inexact unless ``lanes`` is a power of
    two) and clamps as ``min(cap, level)`` does.
    """

    def __init__(
        self,
        flows: int,
        lanes: int,
        capacity: float,
        refill_per_s: float,
    ) -> None:
        if flows <= 0 or lanes <= 0:
            raise ConfigError("token bucket: flows and lanes must be > 0")
        if capacity <= 0 or refill_per_s < 0:
            raise ConfigError(
                "token bucket: capacity must be > 0 and refill >= 0"
            )
        self.flows = flows
        self.lanes = lanes
        self.capacity = capacity
        self.refill_per_s = refill_per_s
        self._lane_cap = capacity / lanes
        self._tokens = [[self._lane_cap] * lanes for _ in range(flows)]
        self._refill_at = [[0.0] * lanes for _ in range(flows)]
        # A flow is settled when every lane holds the cap.  Refill keeps
        # a lane at the cap whatever its stamp, so reconcile may skip a
        # settled flow -- but only if the even re-split of the pooled
        # caps is the cap again, bit for bit.
        self._settled_exact = (
            sum([self._lane_cap] * lanes) / lanes == self._lane_cap
        )
        #: Flows that may hold less than the cap on some lane.
        self._unsettled: set[int] = set()
        self._shadow_tokens = [capacity] * flows
        self._shadow_refill_at = [0.0] * flows
        self.admitted = 0
        self.dropped = 0
        self.shadow_admitted = 0
        self.admit_divergence = 0
        self.reconciliations = 0
        self.tokens_moved = 0.0

    def try_consume(
        self, lane: int, flow: int, tokens: float, now_s: float
    ) -> bool:
        """One admission decision on ``lane``; updates the shadow too."""
        if not 0 <= lane < self.lanes:
            raise ConfigError(
                f"token bucket: lane {lane} out of range [0, {self.lanes})"
            )
        slot = flow % self.flows
        self._unsettled.add(slot)
        row, stamps = self._tokens[slot], self._refill_at[slot]
        elapsed = now_s - stamps[lane]
        if elapsed > 0:
            level = row[lane] + elapsed * self.refill_per_s / self.lanes
            row[lane] = min(self._lane_cap, level)
        stamps[lane] = now_s
        admitted = row[lane] >= tokens
        if admitted:
            row[lane] -= tokens
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
        """Pool leftover tokens per flow and re-split them evenly.

        Returns the total token mass moved between lanes this round.
        Costs O(unsettled flows x lanes) and is bit-exact: each flow's
        lanes are refilled, pooled left to right and re-split in a fixed
        order, flows in ascending order.  A settled flow (every lane at
        the cap) is skipped when the re-split keeps it there: its lanes
        would stay at the cap and add only ``+0.0`` to the moved mass,
        and its stale stamps refill a capped lane to the cap all the same.
        """
        self.reconciliations += 1
        lanes = self.lanes
        cap = self._lane_cap
        refill_per_s = self.refill_per_s
        synced = [now_s] * lanes
        moved = 0.0
        tokens, refill_at = self._tokens, self._refill_at
        if self._settled_exact:
            flows = sorted(self._unsettled)
        else:
            flows = range(self.flows)
        for flow in flows:
            row, stamps = tokens[flow], refill_at[flow]
            for lane, stamp in enumerate(stamps):
                elapsed = now_s - stamp
                if elapsed > 0:
                    level = row[lane] + elapsed * refill_per_s / lanes
                    row[lane] = level if level < cap else cap
            stamps[:] = synced
            share = sum(row) / lanes
            for level in row:
                moved += abs(level - share)
            row[:] = [share] * lanes
            if share == cap:
                self._unsettled.discard(flow)
        # Each transfer moves mass both out of and into lanes; count the
        # one-way mass.
        moved /= 2.0
        self.tokens_moved += moved
        return moved

    def lane_tokens(self, lane: int, flow: int) -> float:
        return self._tokens[flow % self.flows][lane]
