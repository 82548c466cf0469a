"""End-to-end stateful runs: both targets, both scopes, stable ledgers.

The determinism contract mirrors the fabric/serve ledgers: one seed →
one byte-identical ``repro.stateful_ledger/1`` artifact (modulo
``git_sha``); a different seed moves the draws.  The compile section must carry the §3.2 divergence on every
run.
"""

from __future__ import annotations

import gc
import json

import pytest

from repro.errors import ConfigError
from repro.net.packet import Packet
from repro.sim.event import DRAIN_GC_THRESHOLD, Simulator
from repro.stateful.runner import run_stateful
from repro.stateful.workloads import STATEFUL_WORKLOADS

_FAST = dict(flows=32, packets=160)


def _canonical(run) -> str:
    ledger = run.ledger()
    ledger["git_sha"] = "pinned"
    return json.dumps(ledger, sort_keys=True)


class TestValidation:
    def test_unknown_workload_rejected(self):
        with pytest.raises(ConfigError, match="unknown stateful workload"):
            run_stateful("frobnicate")

    def test_bad_target_rejected(self):
        with pytest.raises(ConfigError, match="target"):
            run_stateful("tokenbucket", target="fpga")


class TestSingleSwitchEndToEnd:
    @pytest.mark.parametrize("workload", STATEFUL_WORKLOADS)
    def test_runs_on_both_targets(self, workload):
        run = run_stateful(workload, **_FAST)
        labels = [s.label for s in run.sections]
        assert labels == [
            f"adcp:{workload}", f"rmt:{workload}", "compile",
        ]
        for section in run.sections[:2]:
            assert section.series["delivered"]["mean"] > 0
            assert section.series["state_accesses"]["mean"] > 0

    def test_tokenbucket_rate_limits_hot_flows(self):
        run = run_stateful("tokenbucket", **_FAST)
        for section in run.sections[:2]:
            assert section.series["rate_limited"]["mean"] > 0
            assert section.series["goodput_pps"]["mean"] > 0
            assert section.series["goodput_pps"]["direction"] == "higher"

    def test_synflood_detects_attackers_cleanly(self):
        run = run_stateful("synflood", **_FAST)
        for section in run.sections[:2]:
            assert section.series["detection_rate"]["mean"] == 1.0
            assert section.series["false_positive_rate"]["mean"] == 0.0
            assert section.series["efsm.IDLE--syn->PENDING"]["mean"] > 0

    def test_heavyhitter_promotes_without_false_positives(self):
        run = run_stateful("heavyhitter", **_FAST)
        for section in run.sections[:2]:
            assert section.series["promotions"]["mean"] > 0
            assert section.series["detection_rate"]["mean"] > 0
            assert section.series["false_positive_rate"]["mean"] == 0.0

    def test_keycache_hits_and_merges(self):
        run = run_stateful("keycache", **_FAST)
        for section in run.sections[:2]:
            assert section.series["hit_rate"]["mean"] > 0
            assert section.series["hit_rate"]["direction"] == "higher"
            assert section.series["puts"]["mean"] > 0


class TestFabricEndToEnd:
    @pytest.mark.parametrize("workload", STATEFUL_WORKLOADS)
    def test_leaf_spine_both_targets(self, workload):
        run = run_stateful(
            workload, topology="leaf-spine-2x2", packets=128
        )
        assert [s.label for s in run.sections] == [
            f"adcp:{workload}@leaf-spine-2x2",
            f"rmt:{workload}@leaf-spine-2x2",
            "compile",
        ]
        for section in run.sections[:2]:
            assert section.series["delivered"]["mean"] > 0
            assert section.counters["switches"] >= 4

    def test_fabric_keycache_sees_cross_replica_staleness(self):
        run = run_stateful(
            "keycache", topology="leaf-spine-2x2", packets=256
        )
        for section in run.sections[:2]:
            assert section.series["merge_messages"]["mean"] > 0


class TestCompileDivergence:
    """Every ledger quantifies §3.2: RMT replicates per key, ADCP not."""

    def test_rmt_replication_grows_adcp_flat(self):
        run = run_stateful("synflood", **_FAST)
        compile_section = run.sections[-1]
        series = compile_section.series
        assert series["rmt.replication_factor.k1"]["mean"] == 1
        assert series["rmt.replication_factor.k16"]["mean"] == 16
        assert series["adcp.replication_factor.k16"]["mean"] == 1
        assert (
            series["rmt.sram_blocks.k16"]["mean"]
            > series["rmt.sram_blocks.k1"]["mean"]
        )
        assert (
            series["adcp.sram_blocks.k16"]["mean"]
            == series["adcp.sram_blocks.k1"]["mean"]
        )

    @pytest.mark.parametrize("workload", STATEFUL_WORKLOADS)
    def test_every_workload_carries_the_section(self, workload):
        run = run_stateful(workload, target="adcp", **_FAST)
        assert run.sections[-1].label == "compile"
        assert any(
            name.startswith("rmt.replication_factor")
            for name in run.sections[-1].series
        )


class TestLedgerDeterminism:
    @pytest.mark.parametrize("workload", STATEFUL_WORKLOADS)
    def test_same_seed_byte_identical(self, workload):
        first = _canonical(run_stateful(workload, seed=9, **_FAST))
        second = _canonical(run_stateful(workload, seed=9, **_FAST))
        assert first == second

    def test_different_seed_differs(self):
        base = _canonical(run_stateful("heavyhitter", seed=9, **_FAST))
        other = _canonical(run_stateful("heavyhitter", seed=10, **_FAST))
        assert base != other

    def test_fabric_ledger_deterministic(self):
        kwargs = dict(topology="leaf-spine-2x2", packets=128, seed=4)
        first = _canonical(run_stateful("synflood", **kwargs))
        second = _canonical(run_stateful("synflood", **kwargs))
        assert first == second

    def test_ledger_written_and_loadable(self, tmp_path):
        from repro.telemetry.ledger import STATEFUL_LEDGER_SCHEMA, load_ledger

        out = tmp_path / "stateful.json"
        run = run_stateful(
            "tokenbucket", target="adcp", ledger_out=out, **_FAST
        )
        assert run.ledger_path == out
        loaded = load_ledger(out)
        assert loaded["schema"] == STATEFUL_LEDGER_SCHEMA
        assert loaded["workload"] == "tokenbucket"
        labels = [s["label"] for s in loaded["sections"]]
        assert labels == ["adcp:tokenbucket", "compile"]


class TestPacketRetention:
    """Standalone stateful runs keep counts, not packets: every port has
    a discarding sink, so no delivered or dropped packet outlives the
    switch that forwarded it."""

    @pytest.mark.parametrize("workload", STATEFUL_WORKLOADS)
    def test_results_list_nothing_and_no_packet_survives(self, workload):
        watermark = Packet([]).packet_id
        run = run_stateful(workload, **_FAST)
        for section in run.sections[:2]:
            result = section.result
            assert result.delivered == []
            assert result.dropped == []
            assert section.series["delivered"]["mean"] == result.handed_off
            assert section.series["dropped"]["mean"] == result.unlisted_drops
            assert result.handed_off > 0
        gc.collect()
        survivors = [
            obj
            for obj in gc.get_objects()
            if isinstance(obj, Packet) and obj.packet_id > watermark
        ]
        assert survivors == []
        assert run.sections[0].result is not None  # the run is still alive


class TestStreamedArrivals:
    """Standalone stateful runs build each packet when its arrival is
    due: a packet is built as the switch pulls it, and the switch pulls
    it no earlier than the event of the burst before it."""

    @pytest.mark.parametrize("workload", STATEFUL_WORKLOADS)
    def test_no_packet_is_built_before_the_previous_burst(
        self, workload, monkeypatch
    ):
        import repro.arch.switch as switch_module
        import repro.stateful.workloads as workloads

        inject = switch_module.inject_bursts
        make = workloads.make_coflow_packet
        runs: list[list[tuple[float, float]]] = []  # (arrival, clock) pulls
        counts = {"built": 0, "pulled": 0, "lead": 0}

        def built(*args, **kwargs):
            counts["built"] += 1
            counts["lead"] = max(
                counts["lead"], counts["built"] - counts["pulled"]
            )
            return make(*args, **kwargs)

        def watched(sim, timed_packets, arrive):
            pulls = []
            runs.append(pulls)

            def stream():
                for time, packet in timed_packets:
                    counts["pulled"] += 1
                    pulls.append((time, sim.now))
                    yield time, packet

            inject(sim, stream(), arrive)

        monkeypatch.setattr(workloads, "make_coflow_packet", built)
        monkeypatch.setattr(switch_module, "inject_bursts", watched)
        run_stateful(workload, **_FAST)
        # Each packet is built by the pull that hands it to the switch.
        assert counts["built"] == counts["pulled"] > 0
        assert counts["lead"] == 1
        assert len(runs) == 2  # one stream per target
        for pulls in runs:
            bursts = sorted({time for time, _ in pulls})
            for time, now in pulls:
                previous = [t for t in bursts if t < time]
                assert (previous[-1] if previous else 0.0) <= now <= time
            assert pulls[-1][1] >= bursts[-2]

    def test_stream_is_an_iterator(self):
        from repro.stateful.workloads import build_single

        stream = build_single(
            "tokenbucket", packets=8, port_speed_bps=100e9
        )
        arrivals = stream.arrivals(100e9)
        assert iter(arrivals) is arrivals


class TestCollectorPolicy:
    """Single-switch drains run under ``draining_gc`` and restore it."""

    def _gc_state(self):
        return gc.get_threshold(), gc.get_freeze_count(), gc.isenabled()

    def test_drain_runs_under_the_policy_and_restores_it(self, monkeypatch):
        seen = []
        run = Simulator.run

        def recording_run(sim, *args, **kwargs):
            seen.append((gc.get_threshold()[0], gc.get_freeze_count()))
            return run(sim, *args, **kwargs)

        monkeypatch.setattr(Simulator, "run", recording_run)
        before = self._gc_state()
        assert before[1] == 0
        run_stateful("tokenbucket", **_FAST)
        assert self._gc_state() == before
        assert len(seen) == 2  # one drain per target
        for threshold, frozen in seen:
            assert threshold == max(before[0][0], DRAIN_GC_THRESHOLD)
            assert frozen > 0

    def test_leaves_a_callers_frozen_set_and_disabled_collector_alone(self):
        before = self._gc_state()
        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            run_stateful("tokenbucket", target="rmt", **_FAST)
            # Still frozen, and nothing added: frozen objects may die by
            # reference count during the run, which lowers the count.
            assert 0 < gc.get_freeze_count() <= frozen
            assert gc.get_threshold() == before[0]
        finally:
            gc.unfreeze()
        gc.disable()
        try:
            run_stateful("tokenbucket", target="rmt", **_FAST)
            assert gc.get_threshold() == before[0]
            assert not gc.isenabled()
        finally:
            gc.enable()
        assert self._gc_state() == before
