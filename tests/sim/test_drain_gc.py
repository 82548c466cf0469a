"""The collector policy a runner applies while its kernel drains."""

from __future__ import annotations

import gc

from repro.sim.event import DRAIN_GC_THRESHOLD, draining_gc


def test_raises_gen0_and_freezes_then_restores():
    before = gc.get_threshold()
    assert gc.get_freeze_count() == 0
    with draining_gc():
        assert gc.get_threshold()[0] == max(before[0], DRAIN_GC_THRESHOLD)
        assert gc.get_threshold()[1:] == before[1:]
        assert gc.get_freeze_count() > 0
    assert gc.get_threshold() == before
    assert gc.get_freeze_count() == 0


def test_restores_after_an_exception():
    before = gc.get_threshold()
    try:
        with draining_gc():
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    assert gc.get_threshold() == before
    assert gc.get_freeze_count() == 0


def test_leaves_a_callers_frozen_set_and_disabled_collector_alone():
    before = gc.get_threshold()
    gc.freeze()
    try:
        frozen = gc.get_freeze_count()
        with draining_gc():
            assert gc.get_freeze_count() == frozen
        assert gc.get_freeze_count() == frozen
    finally:
        gc.unfreeze()
    gc.disable()
    try:
        with draining_gc():
            assert gc.get_threshold() == before
            assert not gc.isenabled()
        assert not gc.isenabled()
    finally:
        gc.enable()
    assert gc.get_threshold() == before
