"""Streaming serve: lazy arrivals reproduce the materialized replay.

Serve used to build every arrival of a run up front and keep every
packet to the end.  It now plans workload rounds as hosts reach them,
builds each packet when its host sends it, and lets go of it once a
link or host NIC takes it.  These tests pin the output to digests
recorded with the up-front implementation, and check that memory no
longer grows with the simulated duration.
"""

from __future__ import annotations

import gc
import hashlib
import json
import tracemalloc

import pytest

from repro.serve import run_serve
from repro.serve.replay import BurstPhase

_PROFILES = {
    "plain": {},
    "ramp": {"ramp_ns": 1_000.0},
    "burst": {"bursts": (BurstPhase(2.0, 500.0, 1_500.0),)},
}

#: sha256 of (ledger without git_sha, span records) per
#: (seed, target, arrivals, profile), recorded with the up-front replay.
_MATRIX = {
    (0, "adcp", "periodic", "burst"): (
        "0edb499dfe833407069892bbb1e50b3f5e83ffe1f4b9676e3c6cf5e85d783463"
    ),
    (0, "adcp", "periodic", "plain"): (
        "a46040278957be14ad4e5e982509c8412afa09ca9782891cd4ce5b95194f325b"
    ),
    (0, "adcp", "periodic", "ramp"): (
        "d9487db8ed129c912991a600897f90a88f4c2537c94f93c274d5b1248888bba4"
    ),
    (0, "adcp", "poisson", "burst"): (
        "5811f36eb2c1a23f04da21f0c39bc346b31c9e6774fc81b67cd480e8d789167d"
    ),
    (0, "adcp", "poisson", "plain"): (
        "b3a781bf9e0d84154e05facb860603dad2fb5f4e9ee8b5b37e0e0bb7d7088a63"
    ),
    (0, "adcp", "poisson", "ramp"): (
        "9dd5d8d6148a597b56b755eade708c6db92f33714c0cbe7f8461b36ec755933a"
    ),
    (0, "rmt", "periodic", "burst"): (
        "d07cad54f3635cc83bc128b933d2a1da79e4dd17228f22e0bb0648f378e8adc9"
    ),
    (0, "rmt", "periodic", "plain"): (
        "ae02e0e021274c1460bd5cddd8ddb8eeab815e2eddd90c6f7ebd9764d6829f41"
    ),
    (0, "rmt", "periodic", "ramp"): (
        "ce623a922a5dab193bbf34deffb431a5eafdf5d6f15a44eb077b6f28233fb729"
    ),
    (0, "rmt", "poisson", "burst"): (
        "a31d7a2dd133d94a5b3e6f6ddb17b67fd3bba055292bf86e40f8bd0617dc8436"
    ),
    (0, "rmt", "poisson", "plain"): (
        "121b6d1226a579d63c9dca2079c4e7ba2842440ace07ced2c890863485da8212"
    ),
    (0, "rmt", "poisson", "ramp"): (
        "f09b1cb214fe8f01959f4b24b107f37d5c5b9abe9e8aa81dca987383499936cf"
    ),
    (1, "adcp", "periodic", "burst"): (
        "a3ac1ea5dda9ec9ef91f159e6c5541099e796a7b6c1c5ced938038220b1677b4"
    ),
    (1, "adcp", "periodic", "plain"): (
        "a9ca6b6fea9d5aa6e10782b55689891ae673aab82cfe3a72f0705ef93a41bcfb"
    ),
    (1, "adcp", "periodic", "ramp"): (
        "7cdb7508c6be7727b55161bb8379bd5e240c197e91bfb18f20801ca6910f7f13"
    ),
    (1, "adcp", "poisson", "burst"): (
        "0e42dabdab5b600dfd490a88fcdd213d77c6353439bcb9dc70936b50e002b012"
    ),
    (1, "adcp", "poisson", "plain"): (
        "62bea4d747c8bdbf6c5e7d7257e72375f7b5dea877925e7b1202241a1d633821"
    ),
    (1, "adcp", "poisson", "ramp"): (
        "9e13e8761b683afae272fa4005505252bff5bc626bcfae1ea371310cfe111605"
    ),
    (1, "rmt", "periodic", "burst"): (
        "3111d3eafc9f31c547c1dae29f3d40bf5e661ff08fe54ea9d35b1d194402c3a4"
    ),
    (1, "rmt", "periodic", "plain"): (
        "250c236f48b27a13c87ae6bb31fac3e70f7501030877a47ae483fa8b0d21e000"
    ),
    (1, "rmt", "periodic", "ramp"): (
        "51529e0876a471ff4026c6f5f545e551c135b89d9d099c439a2a65c15c6b8dfe"
    ),
    (1, "rmt", "poisson", "burst"): (
        "4fb56231ea3b9155550678eb6d4c98ac8922990c8cdd62859a0ac1f4fa2d134b"
    ),
    (1, "rmt", "poisson", "plain"): (
        "bf94516c02a1282adf5fa81b40ef43acc51275a12f435536a0a2b834387177e9"
    ),
    (1, "rmt", "poisson", "ramp"): (
        "09858398f07f7fa3b7de9bb3c0c6219621c20d3affcd96b561fe4c3a8ca7bda6"
    ),
    (2, "adcp", "periodic", "burst"): (
        "9b255d283bdc7874af5e72e30b7cc4ff5874eee87403e8e34f77e98ab96dd71b"
    ),
    (2, "adcp", "periodic", "plain"): (
        "eb024faaf5e63e40d413e717265824c691be660774671e388c159b2df2092e50"
    ),
    (2, "adcp", "periodic", "ramp"): (
        "ad19c1dbd53fd21bb682004b40a2fb5c2e8866154b5b84b1126d90fceac9e69c"
    ),
    (2, "adcp", "poisson", "burst"): (
        "4cda6c440d84791b535645e4ca5bb94e4b3c3e843c762404fbe2d2bdac1b366c"
    ),
    (2, "adcp", "poisson", "plain"): (
        "34b3eb3ff93702f2babaed0f3eaf0efd23740353aaf73782fbbb989cec963a2a"
    ),
    (2, "adcp", "poisson", "ramp"): (
        "523b788b75b725822479d34b489f17b93c69ac9830cbd7a69268950209162387"
    ),
    (2, "rmt", "periodic", "burst"): (
        "62c9d6ecf85b4a2342f7da36b9177ecfdb832c0e356dee76d14091c8217eee17"
    ),
    (2, "rmt", "periodic", "plain"): (
        "edb59ce8a4f881d92a4dba73436264c2745d120ebf8ad1dba659caf6ba0b03d9"
    ),
    (2, "rmt", "periodic", "ramp"): (
        "6eaf8c2ed736d290148102b613b75b93287c027c457c9509fb62a382f513de0b"
    ),
    (2, "rmt", "poisson", "burst"): (
        "5ec8ed9cd24df822e4a3aaa540ededc962e5614cfc63c5bdcee469babf569399"
    ),
    (2, "rmt", "poisson", "plain"): (
        "7d9df2aa89e2fb96301fb681e3b2677fa4725eb9b4c2b2bee52b6c6f20c45ea1"
    ),
    (2, "rmt", "poisson", "ramp"): (
        "88d6a5e6a7133557cb795621f11ae8bcd1253299802c5f6c148cdc517c4c4f11"
    ),
    (3, "adcp", "periodic", "burst"): (
        "118db48fd1d3315e9b384464b690642bbf373d2c8bf95836c23ecfcb992f1dd2"
    ),
    (3, "adcp", "periodic", "plain"): (
        "12bcae6b2ee7adf84e24d00ca5cf231c5600fb63f9d7110acbead9568f1e3d15"
    ),
    (3, "adcp", "periodic", "ramp"): (
        "51731bc42507bc18ad8538fcfba16bf834a6e71ac797d60dd3e8bd1e954f9adf"
    ),
    (3, "adcp", "poisson", "burst"): (
        "026689ba69a90f554c0244c385c5becc9ba111c2a1f6c98782fd2f8a2919ed2a"
    ),
    (3, "adcp", "poisson", "plain"): (
        "b61ee0ed723b39630ba9160cba082221f0351853194c2322d4995529d4cd01d1"
    ),
    (3, "adcp", "poisson", "ramp"): (
        "9396e6c98e3b050cf8f304d1b0ba427f181629dcf62b99c746a44a52a18297cc"
    ),
    (3, "rmt", "periodic", "burst"): (
        "3b9787a404e9a6d55739cc61ac76fbc0b4928583f7439bff021446cd5c262a35"
    ),
    (3, "rmt", "periodic", "plain"): (
        "245360892f79efafb0e0eeabbecd9afcf781d361771e08f655875d2f9cdd13ef"
    ),
    (3, "rmt", "periodic", "ramp"): (
        "6619bd8633aa384cd1eaae2669fe9ac91e81bfa24f86527c168fb725193dfdd6"
    ),
    (3, "rmt", "poisson", "burst"): (
        "3ad743b44ce0cd08adcff81203c562666654aed490bacbe3c5a91586d0e8d417"
    ),
    (3, "rmt", "poisson", "plain"): (
        "b75b99f0d935635dabdcaf9cdb65fbd84ac6763d7775a37cd17dec15a0c79573"
    ),
    (3, "rmt", "poisson", "ramp"): (
        "52d47d651f6e75a4ed426a20bedcb1beb457bdd5a865f0bfb6783de48e60cd44"
    ),
}

#: Wider shapes: fat-tree (hosts outside some rounds, placement off the
#: ingress leaf), a stateless shuffle, and stateful workloads whose
#: rounds reserve an extra packet id.  (args, kwargs, digest, events).
_EXTRA = {
    "fattree-adcp-hash": (
        ("fat-tree-k4", "fabric-allreduce"),
        dict(placement="hash", duration_ns=1_500.0, sample=4),
        "0736fd63707987fa0fc7a828d322351b8be052d1026d9243825618ed2264c050",
        19010,
    ),
    "fattree-rmt-ingress": (
        ("fat-tree-k4", "fabric-allreduce"),
        dict(target="rmt", duration_ns=1_000.0, sample=3),
        "1bb03e956e5c441ca12c57e40db574cd9820829e6bb5843b5f338e4ec8f339bc",
        16730,
    ),
    "shuffle-adcp": (
        ("leaf-spine-2x2", "fabric-shuffle"),
        dict(duration_ns=2_000.0, sample=4),
        "cadbbe616bc66c297ea528a0bce44191998be033ac5eafd24adb7e724c1f9679",
        1575,
    ),
    "heavyhitter-rmt": (
        ("leaf-spine-2x2", "stateful-heavyhitter"),
        dict(target="rmt", duration_ns=2_000.0, sample=4),
        "71e9c3127547815a400d58490742d2dbe4c21703d2aca2e1119c7b80c466e45e",
        3644,
    ),
    "keycache-adcp": (
        ("leaf-spine-2x2", "stateful-keycache"),
        dict(duration_ns=2_000.0, sample=2),
        "8b1b63f7b35f6eed0c2a9dac002c3dcbbfc78a06954201c3462c3958167963b1",
        2814,
    ),
}


def _digest(run) -> str:
    ledger = {k: v for k, v in run.ledger().items() if k != "git_sha"}
    body = {"ledger": ledger, "spans": run.span_records()}
    text = json.dumps(body, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize(
    "seed,target,arrivals,profile",
    sorted(_MATRIX),
    ids=["-".join(map(str, key)) for key in sorted(_MATRIX)],
)
def test_ledger_matches_the_materialized_replay(
    seed, target, arrivals, profile
):
    run = run_serve(
        "leaf-spine-2x2",
        "fabric-allreduce",
        target=target,
        seed=seed,
        arrivals=arrivals,
        duration_ns=2_000.0,
        window_ns=500.0,
        sample=4,
        **_PROFILES[profile],
    )
    assert _digest(run) == _MATRIX[(seed, target, arrivals, profile)]


@pytest.mark.parametrize("label", sorted(_EXTRA))
def test_wider_shapes_match_the_materialized_replay(label):
    args, kwargs, digest, events = _EXTRA[label]
    run = run_serve(*args, seed=1, window_ns=500.0, **kwargs)
    assert run.events == events
    assert _digest(run) == digest


def test_events_match_the_pinned_count():
    """The injector replaces the pre-pushed arrival events one for one:
    the default ADCP run dispatches exactly as many events as before."""
    run = run_serve(
        "leaf-spine-2x2", "fabric-allreduce", target="adcp", seed=1
    )
    totals = run.totals()
    assert totals["events"] == 34190
    assert totals["injected"] == 3849


@pytest.mark.parametrize("runner", ["serve", "fabric"])
def test_nothing_is_queued_before_the_injector_arms(monkeypatch, runner):
    """Arrivals at priority -1 keep the old order only if no priority-0
    event was scheduled ahead of them: building the fabric schedules
    none."""
    import repro.fabric.runner as fabric_runner
    import repro.serve.runner as serve_runner

    module = serve_runner if runner == "serve" else fabric_runner
    inject = module.inject_arrivals
    queued = []

    def checked(fabric, *args, **kwargs):
        queued.append(len(fabric.sim.queue))
        return inject(fabric, *args, **kwargs)

    monkeypatch.setattr(module, "inject_arrivals", checked)
    if runner == "serve":
        run_serve("leaf-spine-2x2", "fabric-allreduce", duration_ns=1_000.0)
    else:
        fabric_runner.run_fabric("leaf-spine-2x2", "fabric-allreduce")
    assert queued == [0]


def _traced_peak(duration_ns: float) -> int:
    gc.collect()
    tracemalloc.start()
    try:
        run_serve(
            "leaf-spine-2x2",
            "fabric-allreduce",
            target="adcp",
            duration_ns=duration_ns,
        )
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_does_not_grow_with_duration():
    """Quadrupling the simulated time leaves the traced peak within
    10%: nothing retained scales with the packets a run has sent.

    Both runs are past the fill-up of the first ~5 us (coflows in flight,
    their registers, the first windows), which is a one-off cost.
    """
    _traced_peak(1_000.0)  # first-run caches (templates, parse graphs)
    short = _traced_peak(6_000.0)
    long = _traced_peak(24_000.0)
    assert long <= 1.10 * short, (short, long)
