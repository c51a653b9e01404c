"""The suite's five pinned workloads.

A workload is a fixed list of points run back to back. Each point calls
one public experiment entry point and returns its raw result; the
caller times the call and fingerprints the result afterwards, outside
the timed region. Every entry point is looked up through its module at
call time (``harness.run_open_loop``, ``plan.build_chain``), so a span
installed on the module attribute by :mod:`spans` sees the call.

Sizes are simulated durations at ``scale=1``; the tests pass a small
``scale`` to run every point in a fraction of a second. One pass of a
workload takes 0.9-1.6 s of host time on a 2-core AMD EPYC VM, so a
15 s run measures ten or more passes.
"""

from __future__ import annotations

import dataclasses
import json
import zlib
from typing import Any, Callable, Dict, NamedTuple, Tuple

from repro import plan
from repro.cpu.costs import CostModel
from repro.experiments import figs, harness
from repro.sim.timeunits import MILLISECOND


class Point(NamedTuple):
    label: str
    #: ``call(seed, scale)`` runs the point and returns the raw result.
    call: Callable[[int, float], Any]
    #: ``outputs(result)`` -> (simulated outputs, telemetry counters).
    outputs: Callable[[Any], Tuple[Dict[str, Any], Dict[str, Any]]]


class Workload(NamedTuple):
    name: str
    why: str
    points: Tuple[Point, ...]


def _ps(ms: float, scale: float) -> int:
    return max(1, round(ms * scale * MILLISECOND))


def _open_loop_outputs(result) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    outputs = {
        "offered_pps": result.offered_pps,
        "rate_mpps": result.rate_mpps,
        "rate_gbps": result.rate_gbps,
        "latency_us": result.latency.summary_us(),
        "summary": result.engine_summary,
    }
    return outputs, result.telemetry["counters"]


def _flood_outputs(result) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    outputs = {
        "rate_mpps": result.rate_mpps,
        "rate_gbps": result.rate_gbps,
        "p99_latency_us": result.p99_latency_us,
        "timeline": result.timeline,
        "summary": result.engine_summary,
    }
    return outputs, result.telemetry["counters"]


def _tcp_outputs(result) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    outputs = {
        field.name: getattr(result, field.name)
        for field in dataclasses.fields(result)
        if field.name != "telemetry"
    }
    return outputs, result.telemetry["counters"]


def _fwd64(mode: str, nf_cycles: int, num_flows: int, duration_ms: float) -> Point:
    def call(seed: int, scale: float):
        return harness.run_open_loop(
            mode, nf_cycles, num_flows=num_flows,
            duration=_ps(duration_ms, scale), warmup=_ps(1, scale), seed=seed,
        )

    return Point(mode, call, _open_loop_outputs)


#: The chain's stages (Table 1 keys) and the synthetic stage's cost.
CHAIN = ("firewall", "nat", "dpi", "synthetic")
CHAIN_SYNTHETIC_CYCLES = 2000
#: Offered load as a share of eight cores at the synthetic stage's cost.
#: At 0.8 some seeds' RSS hash overloaded a queue and the pass cost
#: moved with the seed; at 0.5 no queue overflows whatever the seed.
CHAIN_LOAD = 0.5


def _nf_chain(mode: str) -> Point:
    offered = CHAIN_LOAD * 8 * CostModel().single_core_rate_pps(CHAIN_SYNTHETIC_CYCLES)

    def call(seed: int, scale: float):
        nf = plan.build_chain(CHAIN, synthetic={"busy_cycles": CHAIN_SYNTHETIC_CYCLES})
        return harness.run_open_loop(
            mode, 0, nf=nf, num_flows=64, frame_len=186, payload_len=128,
            offered_pps=offered, duration=_ps(8, scale), warmup=_ps(1, scale),
            seed=seed,
        )

    return Point(mode, call, _open_loop_outputs)


def _synflood(mode: str) -> Point:
    per_core = CostModel().single_core_rate_pps(figs.NF_CYCLES)

    def call(seed: int, scale: float):
        return figs.run_syn_flood(
            mode, figs.NF_CYCLES, num_flows=figs.NUM_FLOWS,
            offered_pps=figs.LOAD_FACTOR * figs.NUM_CORES * per_core,
            flood_pps=figs.FLOOD_FACTOR * per_core,
            duration=_ps(10, scale), warmup=_ps(1, scale), seed=seed,
        )

    return Point(mode, call, _flood_outputs)


def _tcp_cubic(mode: str) -> Point:
    def call(seed: int, scale: float):
        return harness.run_tcp(mode, 2000, num_flows=16, duration=_ps(30, scale), seed=seed)

    return Point(mode, call, _tcp_outputs)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "fwd64_linerate",
            "64 B line-rate forwarding with idle cores on the batch spine: "
            "per-packet simulator cost (sim, cpu, nic.link) dominates",
            (_fwd64("sprayer", 0, 128, 5), _fwd64("rss", 0, 128, 5)),
        ),
        Workload(
            "fwd64_overload",
            "64 B line rate into 2000-cycle NFs: full batches and rx-queue drops, "
            "so batch-spine settlement and the links dominate",
            # 1024 flows keep every RSS queue saturated whatever the seed;
            # with 128 a seed could leave one under-loaded, which moved
            # the pass cost by 10 %.
            (_fwd64("sprayer", 2000, 1024, 15), _fwd64("rss", 2000, 1024, 15)),
        ),
        Workload(
            "nf_chain",
            "firewall-nat-dpi-synthetic chain with payload: real NF work dominates "
            "and the batch spine is bypassed",
            (_nf_chain("sprayer"), _nf_chain("rss")),
        ),
        Workload(
            "synflood",
            "figS SYN flood: the write path (connection packets, rings, flow-state "
            "inserts, the SCR log) plus rejection-sampled flow set-up",
            (_synflood("rss"), _synflood("sprayer"), _synflood("scr")),
        ),
        Workload(
            "tcp_cubic",
            "closed loop of 16 CUBIC flows through the middlebox: the TCP stack "
            "and cancellable RTO timers dominate",
            (_tcp_cubic("sprayer"), _tcp_cubic("rss")),
        ),
    )
}


def canonical(value: Any) -> Any:
    """``value`` as plain JSON data: dict keys become strings, tuples lists."""
    if isinstance(value, dict):
        return {str(key): canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"cannot fingerprint a {type(value).__name__}")


def fingerprint(outputs: Dict[str, Any], counters: Dict[str, Any]) -> str:
    """CRC32 over a point's simulated outputs and telemetry counters."""
    payload = json.dumps(
        {"outputs": canonical(outputs), "counters": canonical(counters)}, sort_keys=True
    )
    return f"{zlib.crc32(payload.encode()):08x}"


#: Counters that, with ``tx.forwarded``, account for every received packet.
DROP_COUNTERS = (
    "nf.drops",
    "rx.dropped.queue_full",
    "rx.dropped.fd_cap",
    "rx.dropped.fault",
    "ring.drops",
    "engine.fault_drops",
)


def ledger_error(counters: Dict[str, Any]) -> str:
    """Why a point's telemetry ledger is inconsistent, or "" when it is not."""
    forwarded = counters["tx.forwarded"]
    accounted = forwarded + sum(counters[name] for name in DROP_COUNTERS)
    if forwarded <= 0:
        return "nothing forwarded"
    if accounted > counters["rx.packets"]:
        return f"forwarded + drops = {accounted} > rx.packets = {counters['rx.packets']}"
    return ""
