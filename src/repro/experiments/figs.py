"""Figure S (extension): state-compute replication vs Sprayer, head to head.

Not a figure from the paper — the comparison its §7 invites once the
``scr`` policy exists. Both designs spray data packets; they differ in
what happens to *connection* packets. Sprayer moves them over transfer
rings to the flow's designated core (one writer per flow); SCR
processes them wherever they land and lets every core replay the
per-flow packet-history log on demand. Figure S prices that difference
under the two regimes where it matters:

- **Panel A, SYN flood.** A constant-rate stream of fresh-flow SYNs,
  all rejection-sampled to hash to one *hotspot* core, rides on top of
  a normal data workload. Under RSS the hotspot queue takes the whole
  flood; under Sprayer every flood SYN is ring-transferred to the
  hotspot core (it is every flood flow's designated core), which
  saturates while seven cores idle. Under SCR the flood stays where
  the spray put it — each core absorbs ~1/N of it — and no replica
  ever replays a flood flow because no data packet follows.
- **Panel B, hotspot core crash.** The same workload, and mid-run the
  hotspot core dies. Sprayer re-sprays data traffic with one Flow
  Director reprogram, but the dead core's designated flows must
  re-home and their state is lost. SCR's recovery is the same spray
  reprogram and *nothing else*: every surviving replica already holds
  (or can replay) every flow, so no state moves and none is lost.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.cpu.costs import CostModel
from repro.experiments.format import format_table
from repro.experiments.runner import SweepRunner, default_runner
from repro.experiments.spec import Scenario
from repro.faults.plan import FaultPlan, core_crash
from repro.faults.study import ResilienceResult, run_resilience
from repro.net.five_tuple import PROTO_TCP, FiveTuple
from repro.net.packet import make_tcp_packet
from repro.net.tcp_flags import SYN
from repro.nic.rss import SYMMETRIC_RSS_KEY, RssHasher, rss_input_bytes, toeplitz_table_for
from repro.sim.engine import Simulator
from repro.sim.timeunits import MILLISECOND, SECOND
from repro.trafficgen.flows import (
    CLIENT_NET,
    SERVER_NET,
    SERVER_PORT,
    draw_endpoints,
    random_tcp_flows,
)

MODES = ("rss", "sprayer", "scr")
NF_CYCLES = 3000
NUM_FLOWS = 32
NUM_CORES = 8
#: Base data load as a fraction of healthy aggregate capacity.
LOAD_FACTOR = 0.5
#: Flood SYN rate as a fraction of ONE core's capacity — small against
#: the aggregate (so spreading absorbs it) but ruinous for whichever
#: single core has to take all of it.
FLOOD_FACTOR = 0.8


def hotspot_core(seed: int, num_flows: int = NUM_FLOWS, num_cores: int = NUM_CORES) -> int:
    """The core the flood targets: where RSS puts the workload's first flow.

    Anchoring the hotspot on a core that provably carries RSS data
    traffic keeps the comparison honest for the RSS baseline, and the
    same core is targeted (and, in Panel B, crashed) for every mode.
    """
    flow = random_tcp_flows(num_flows, random.Random(seed))[0]
    return RssHasher(num_cores, SYMMETRIC_RSS_KEY).queue_for(flow)


def hotspot_flows(
    count: int,
    target: int,
    num_cores: int,
    rng: random.Random,
    exclude: Sequence[FiveTuple] = (),
) -> List[FiveTuple]:
    """``count`` distinct flows that all hash to core ``target``.

    Rejection-sampled so that *both* the symmetric RSS queue and the
    designated-core map land on ``target`` — the flood then
    concentrates on the same core under RSS (queue) and under Sprayer
    (designated core), which is exactly what an adversary crafting
    five-tuples against a known hash key would arrange.

    The flows, and the state ``rng`` is left in, equal those of
    filtering ``random_tcp_flows(1, rng)`` candidates through
    ``RssHasher.queue_for`` and ``DesignatedCoreMap.core_for``. Both
    are part of the contract: :func:`run_syn_flood` keeps drawing flood
    checksums from ``rng``. The two maps hash the same input with the
    same symmetric key, so one hash serves both tests. The Toeplitz
    hash is XOR-linear in its input bytes, so the fixed bytes (both /16
    prefixes and the server port) fold into one constant and a
    candidate costs six table lookups.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if not 0 <= target < num_cores:
        raise ValueError(f"target core {target} is outside range({num_cores})")
    table = RssHasher(num_cores, SYMMETRIC_RSS_KEY).indirection_table
    if target not in table:
        raise ValueError(f"no RSS indirection slot maps to core {target}")
    size = len(table)
    toeplitz = toeplitz_table_for(SYMMETRIC_RSS_KEY)
    # Input bytes 2-3 and 6-7 are the host parts of the two addresses,
    # 8-9 the client port; a zero byte contributes nothing.
    t2, t3, t6, t7, t8, t9 = (toeplitz.tables[pos] for pos in (2, 3, 6, 7, 8, 9))
    fixed = toeplitz.hash(rss_input_bytes(
        FiveTuple(CLIENT_NET, SERVER_NET, 0, SERVER_PORT, PROTO_TCP)
    ))
    flows: List[FiveTuple] = []
    seen: Set[FiveTuple] = set(exclude)
    while len(flows) < count:
        src, dst, port = draw_endpoints(rng)
        h = (fixed ^ t2[src >> 8] ^ t3[src & 0xFF] ^ t6[dst >> 8] ^ t7[dst & 0xFF]
             ^ t8[port >> 8] ^ t9[port & 0xFF])
        if table[h % size] != target or h % num_cores != target:
            continue
        flow = FiveTuple(CLIENT_NET | src, SERVER_NET | dst, port, SERVER_PORT, PROTO_TCP)
        if flow in seen:
            continue
        seen.add(flow)
        flows.append(flow)
    return flows


class SynFloodGenerator:
    """A constant-rate SYN flood over fresh (never-repeating) flows.

    Mirrors :class:`~repro.trafficgen.moongen.OpenLoopGenerator`'s
    burst scheduling; every packet is the first SYN of a brand-new
    flow, the attack shape that makes stateful NFs allocate state at
    the flood rate.
    """

    def __init__(self, sim: Simulator, sink, flows: Sequence[FiveTuple],
                 rate_pps: float, rng: random.Random, frame_len: int = 64):
        if rate_pps <= 0:
            raise ValueError(f"rate_pps must be positive, got {rate_pps}")
        if not flows:
            raise ValueError("need at least one flood flow")
        self.sim = sim
        self.sink = sink
        self.flows = list(flows)
        self.rng = rng
        self.frame_len = frame_len
        self.packets_sent = 0
        self._index = 0
        self._running = False
        self._burst = min(32, max(1, round(rate_pps * 15e-6)))
        self._interval = round(self._burst * SECOND / rate_pps)

    def start(self, at: Optional[int] = None) -> None:
        self._running = True
        self.sim.at(self.sim.now if at is None else at, self._tick)

    def stop(self) -> None:
        self._running = False

    def _tick(self) -> None:
        if not self._running:
            return
        now = self.sim.now
        flows = self.flows
        n = len(flows)
        for _ in range(self._burst):
            flow = flows[self._index % n]
            self._index += 1
            syn = make_tcp_packet(
                flow,
                flags=SYN,
                seq=0,
                tcp_checksum=self.rng.getrandbits(16),
                created_at=now,
                frame_len=self.frame_len,
            )
            self.sink(syn, now)
        self.packets_sent += self._burst
        self.sim.post_after(self._interval, self._tick)


def run_syn_flood(
    mode: str,
    nf_cycles: int,
    num_flows: int = NUM_FLOWS,
    offered_pps: float = 1e6,
    flood_pps: float = 1e5,
    target_core: Optional[int] = None,
    duration: int = 30 * MILLISECOND,
    warmup: int = 5 * MILLISECOND,
    seed: int = 1,
    num_cores: int = NUM_CORES,
    frame_len: int = 64,
    burst: Optional[int] = None,
    plan: Optional[FaultPlan] = None,
    bucket: int = MILLISECOND,
    resteer: bool = True,
    **config_kwargs,
) -> ResilienceResult:
    """One open-loop run with a targeted SYN flood riding on top.

    Thin composition over :func:`repro.faults.study.run_resilience`:
    the same wiring and measurement windows, plus a
    :class:`SynFloodGenerator` whose fresh flows are pinned to
    ``target_core`` (default: :func:`hotspot_core` of the seed). The
    flood flows are pre-generated — enough for the whole run, so no
    five-tuple ever repeats — and ride a dedicated RNG stream, keeping
    the base workload byte-identical to an unflooded run.
    """
    if target_core is None:
        target_core = hotspot_core(seed, num_flows, num_cores)
    base_flows = random_tcp_flows(num_flows, random.Random(seed))
    flood_rng = random.Random((seed << 16) ^ 0x5F00D)
    n_syns = int(flood_pps * duration / SECOND) + 64
    flood = hotspot_flows(n_syns, target_core, num_cores, flood_rng, exclude=base_flows)

    def attach_flood(sim: Simulator, ingress_send) -> SynFloodGenerator:
        generator = SynFloodGenerator(
            sim, ingress_send, flood, flood_pps, flood_rng, frame_len=frame_len
        )
        generator.start(at=0)
        return generator

    return run_resilience(
        mode,
        nf_cycles,
        num_flows=num_flows,
        offered_pps=offered_pps,
        duration=duration,
        warmup=warmup,
        seed=seed,
        num_cores=num_cores,
        frame_len=frame_len,
        burst=burst,
        plan=plan,
        bucket=bucket,
        resteer=resteer,
        extra_traffic=attach_flood,
        **config_kwargs,
    )


def run_figs_scenario(scenario) -> tuple:
    """The ``"scr_head_to_head"`` kind runner: Scenario -> (values, dump).

    Kind-specific extras (riding in ``scenario.params``): ``flood_pps``,
    ``target_core``, ``fault_plan``, ``bucket_ps``, ``resteer``.
    """
    kwargs = dict(scenario.extras)
    flood_pps = kwargs.pop("flood_pps")
    target = kwargs.pop("target_core", None)
    plan = kwargs.pop("fault_plan", None)
    bucket = kwargs.pop("bucket_ps", MILLISECOND)
    resteer = kwargs.pop("resteer", True)
    if scenario.duration is not None:
        kwargs["duration"] = scenario.duration
    if scenario.warmup is not None:
        kwargs["warmup"] = scenario.warmup
    if scenario.offered_pps is not None:
        kwargs["offered_pps"] = scenario.offered_pps
    result = run_syn_flood(
        scenario.mode,
        scenario.nf_cycles,
        num_flows=scenario.num_flows,
        flood_pps=flood_pps,
        target_core=target,
        seed=scenario.seed,
        num_cores=scenario.num_cores,
        frame_len=scenario.frame_len,
        burst=scenario.burst,
        plan=plan,
        bucket=bucket,
        resteer=resteer,
        **kwargs,
    )
    summary = result.engine_summary
    counters = summary.get("telemetry", {})
    values = {
        "rate_mpps": result.rate_mpps,
        "rate_gbps": result.rate_gbps,
        "p99_latency_us": result.p99_latency_us,
        "rx_dropped_queue_full": summary.get("rx_dropped_queue_full", 0),
        "rx_dropped_fault": summary.get("rx_dropped_fault", 0),
        "ring_drops": summary.get("ring_drops", 0),
        "fault_drops": summary.get("fault_drops", 0),
        "connection_packets": summary.get("connection_packets", 0),
        "flow_entries": summary.get("flow_entries", 0),
        "scr_log_depth": counters.get("scr.log.depth", 0),
        "recovery_ms": result.recovery_ms,
        "timeline": result.timeline,
        "fault_records": result.fault_records,
    }
    return values, result.telemetry


def run_figs(
    duration: int = 30 * MILLISECOND,
    warmup: int = 5 * MILLISECOND,
    fault_at: int = 12 * MILLISECOND,
    bucket: int = MILLISECOND,
    seed: int = 1,
    num_cores: int = NUM_CORES,
    nf_cycles: int = NF_CYCLES,
    num_flows: int = NUM_FLOWS,
    runner: Optional[SweepRunner] = None,
) -> Dict[str, List[Dict[str, object]]]:
    """``{"flood": rows, "crash": rows}`` — one row per mode per panel."""
    runner = default_runner(runner)
    per_core = CostModel().single_core_rate_pps(nf_cycles)
    offered = LOAD_FACTOR * num_cores * per_core
    flood = FLOOD_FACTOR * per_core
    target = hotspot_core(seed, num_flows, num_cores)
    plan = FaultPlan.of(core_crash(target, fault_at), seed=seed)
    common = dict(
        nf_cycles=nf_cycles, num_flows=num_flows, offered_pps=offered,
        duration=duration, warmup=warmup, seed=seed, num_cores=num_cores,
        flood_pps=flood, target_core=target, bucket_ps=bucket,
    )
    points = [
        Scenario.make("scr_head_to_head", label="figS-flood", mode=mode, **common)
        for mode in MODES
    ] + [
        Scenario.make(
            "scr_head_to_head", label="figS-crash", mode=mode,
            fault_plan=plan, **common,
        )
        for mode in MODES
    ]
    by_panel: Dict[str, Dict[str, Dict[str, object]]] = {"flood": {}, "crash": {}}
    for r in runner.run(points):
        panel = "crash" if r.scenario.label == "figS-crash" else "flood"
        by_panel[panel][r.scenario.mode] = r.values

    panels: Dict[str, List[Dict[str, object]]] = {}
    for panel, by_mode in by_panel.items():
        rows = []
        for mode in MODES:
            values = by_mode[mode]
            row = {
                "mode": mode,
                "fwd_mpps": values["rate_mpps"],
                "p99_us": values["p99_latency_us"],
                "queue_drops": values["rx_dropped_queue_full"],
                "ring_drops": values["ring_drops"],
                "fault_drops": values["fault_drops"] + values["rx_dropped_fault"],
            }
            if panel == "crash":
                row["recovery_ms"] = (
                    values["recovery_ms"] if values["recovery_ms"] is not None else -1.0
                )
            rows.append(row)
        panels[panel] = rows
    return panels


def _gap_line(rows: List[Dict[str, object]], panel: str) -> Optional[str]:
    by_mode = {row["mode"]: row for row in rows}
    scr, sprayer = by_mode.get("scr"), by_mode.get("sprayer")
    if not scr or not sprayer or not sprayer["fwd_mpps"] or not scr["p99_us"]:
        return None
    return (
        f"scr vs sprayer ({panel}): "
        f"{scr['fwd_mpps'] / sprayer['fwd_mpps']:.2f}x throughput, "
        f"{sprayer['p99_us'] / scr['p99_us']:.1f}x lower p99"
    )


def main(
    runner: Optional[SweepRunner] = None,
    seeds: Optional[Sequence[int]] = None,
    quick: bool = False,
) -> None:
    runner = default_runner(runner)
    kwargs = dict(
        duration=8 * MILLISECOND, warmup=2 * MILLISECOND, fault_at=4 * MILLISECOND,
    ) if quick else {}
    if seeds:
        kwargs["seed"] = seeds[0]
    panels = run_figs(runner=runner, **kwargs)
    print(format_table(
        panels["flood"],
        title=f"Figure S.a: targeted SYN flood at {FLOOD_FACTOR:.0%} of one "
              f"core's capacity ({LOAD_FACTOR:.0%} base load)",
    ))
    print()
    print(format_table(
        panels["crash"],
        title="Figure S.b: same flood, hotspot core crashes mid-run",
    ))
    for panel in ("flood", "crash"):
        line = _gap_line(panels[panel], panel)
        if line:
            print(("\n" if panel == "flood" else "") + line)


if __name__ == "__main__":
    main()
