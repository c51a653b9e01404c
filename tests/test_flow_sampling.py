"""Exactness of random flow-set construction and the figS flood sampler.

``draw_endpoints``, ``random_tcp_flows`` and ``hotspot_flows`` must give
the same flows *and* leave the RNG in the same state as the plain
``randrange`` / double-memo code they replace: ``run_syn_flood`` keeps
drawing flood checksums from the RNG the sampler used, so one extra or
missing draw changes every figS result. The reference implementations
below are that plain code, kept verbatim as oracles.
"""

import random
import signal
from contextlib import contextmanager
from typing import List, Sequence, Set

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.designated import DesignatedCoreMap
from repro.experiments import figs
from repro.experiments.figs import hotspot_flows, run_syn_flood
from repro.net.five_tuple import PROTO_TCP, FiveTuple
from repro.nic.rss import SYMMETRIC_RSS_KEY, RssHasher
from repro.sim import MILLISECOND
from repro.trafficgen.flows import (
    CLIENT_NET,
    SERVER_NET,
    draw_endpoints,
    random_tcp_flows,
)


def reference_random_tcp_flows(
    count: int, rng: random.Random, server_port: int = 5201
) -> List[FiveTuple]:
    flows: List[FiveTuple] = []
    seen: Set[FiveTuple] = set()
    while len(flows) < count:
        src_ip = CLIENT_NET | rng.randrange(1, 0xFFFF)
        dst_ip = SERVER_NET | rng.randrange(1, 0xFFFF)
        src_port = rng.randrange(1024, 65536)
        flow = FiveTuple(src_ip, dst_ip, src_port, server_port, PROTO_TCP)
        if flow in seen:
            continue
        seen.add(flow)
        flows.append(flow)
    return flows


def reference_hotspot_flows(
    count: int,
    target: int,
    num_cores: int,
    rng: random.Random,
    exclude: Sequence[FiveTuple] = (),
) -> List[FiveTuple]:
    hasher = RssHasher(num_cores, SYMMETRIC_RSS_KEY)
    designated = DesignatedCoreMap(num_cores)
    flows: List[FiveTuple] = []
    seen: Set[FiveTuple] = set(exclude)
    while len(flows) < count:
        flow = reference_random_tcp_flows(1, rng)[0]
        if flow in seen:
            continue
        if hasher.queue_for(flow) != target or designated.core_for(flow) != target:
            continue
        seen.add(flow)
        flows.append(flow)
    return flows


@contextmanager
def deadline(seconds: float):
    """Raise ``TimeoutError`` in the block after ``seconds`` of wall time."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


seeds = st.integers(min_value=0, max_value=2**64)


class TestExactDraws:
    @given(seeds, st.integers(min_value=1, max_value=64))
    @settings(max_examples=60)
    def test_draw_endpoints_matches_randrange(self, seed, draws):
        ours, theirs = random.Random(seed), random.Random(seed)
        for _ in range(draws):
            expected = (
                theirs.randrange(1, 0xFFFF),
                theirs.randrange(1, 0xFFFF),
                theirs.randrange(1024, 65536),
            )
            assert draw_endpoints(ours) == expected
        assert ours.getstate() == theirs.getstate()

    @given(seeds, st.integers(min_value=1, max_value=300), st.integers(1, 65535))
    @settings(max_examples=60)
    def test_random_tcp_flows_matches_reference(self, seed, count, server_port):
        ours, theirs = random.Random(seed), random.Random(seed)
        assert random_tcp_flows(count, ours, server_port) == reference_random_tcp_flows(
            count, theirs, server_port
        )
        assert ours.getstate() == theirs.getstate()

    def test_rejected_draws_are_consumed(self):
        """A long stream in which the rejection loops actually fire,
        including on the rare 0xFFFE/0xFFFF host values."""

        class Recording(random.Random):
            def getrandbits(self, k):
                value = super().getrandbits(k)
                self.raw.append(value)
                return value

        ours, theirs = Recording(0), Recording(0)
        ours.raw, theirs.raw = [], []
        draws = 60_000
        expected = [
            (theirs.randrange(1, 0xFFFF), theirs.randrange(1, 0xFFFF),
             theirs.randrange(1024, 65536))
            for _ in range(draws)
        ]
        assert [draw_endpoints(ours) for _ in range(draws)] == expected
        assert ours.raw == theirs.raw
        assert len(ours.raw) > 3 * draws
        assert max(ours.raw) >= 0xFFFE


class TestHotspotFlowsExact:
    # 6 cores: the indirection table no longer implies the designated
    # core (128 is not a multiple of 6), so both tests must be applied.
    @pytest.mark.parametrize("num_cores", [2, 4, 6, 8])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_double_memo_oracle(self, seed, num_cores):
        for target in range(num_cores):
            # Exclude some flows the sampler would otherwise return, so
            # de-duplication has to skip them, plus unrelated ones.
            unconstrained = reference_hotspot_flows(30, target, num_cores, random.Random(seed))
            exclude = unconstrained[::3] + random_tcp_flows(8, random.Random(seed + 100))
            ours, theirs = random.Random(seed), random.Random(seed)
            got = hotspot_flows(30, target, num_cores, ours, exclude=exclude)
            assert got == reference_hotspot_flows(30, target, num_cores, theirs, exclude)
            assert ours.getstate() == theirs.getstate()
            assert not set(got) & set(exclude)
            assert got != unconstrained

    def test_matches_oracle_at_figs_scale(self):
        """The size and RNG stream of a default figS flood point."""
        seed = 1
        target = figs.hotspot_core(seed)
        base = random_tcp_flows(figs.NUM_FLOWS, random.Random(seed))
        ours = random.Random((seed << 16) ^ 0x5F00D)
        theirs = random.Random((seed << 16) ^ 0x5F00D)
        got = hotspot_flows(5111, target, figs.NUM_CORES, ours, exclude=base)
        assert got == reference_hotspot_flows(5111, target, figs.NUM_CORES, theirs, base)
        assert ours.getstate() == theirs.getstate()

    def test_zero_count_draws_nothing(self):
        rng = random.Random(4)
        state = rng.getstate()
        assert hotspot_flows(0, 1, 4, rng) == []
        assert rng.getstate() == state


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs SIGALRM timers")
class TestHotspotFlowsValidation:
    """Each of these configurations used to spin forever."""

    @pytest.mark.parametrize("target", [-1, 8, 100])
    def test_target_outside_core_range(self, target):
        with deadline(5), pytest.raises(ValueError, match="outside range"):
            hotspot_flows(4, target, 8, random.Random(1))

    def test_target_without_indirection_slot(self):
        # 200 cores but a 128-slot indirection table: core 150 is never
        # an RSS queue.
        with deadline(5), pytest.raises(ValueError, match="indirection slot"):
            hotspot_flows(4, 150, 200, random.Random(1))

    def test_negative_count(self):
        with deadline(5), pytest.raises(ValueError, match="count"):
            hotspot_flows(-1, 0, 8, random.Random(1))

    def test_run_syn_flood_rejects_bad_target_before_building(self, monkeypatch):
        def build(*args, **kwargs):
            raise AssertionError("engine built for an invalid target core")

        monkeypatch.setattr(figs, "run_resilience", build)
        with deadline(5), pytest.raises(ValueError, match="outside range"):
            run_syn_flood(
                "sprayer", 3000, target_core=8, duration=2 * MILLISECOND,
                warmup=MILLISECOND,
            )
