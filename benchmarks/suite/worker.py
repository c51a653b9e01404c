"""One pass of one workload in a fresh process; prints one JSON line.

Started by ``run.py`` as ``python worker.py '<json spec>'`` with the
workload, seed and whether to trace. The worker imports ``repro``
(timed: that is part of set-up), runs every point of the workload once,
and prints its result document as its last line; ``run.py`` checks and
aggregates the documents of all passes.

A pass gets a process of its own because repeats inside one process
drift: on a 2-core AMD EPYC VM the same point ran up to 25 % slower by
its fourth repeat in one interpreter, while fresh processes repeated
within 3 %.

The document records wall time (the sum of the point calls), set-up
time (each point's time before its first ``Simulator.run``), NIC
``rx.packets``, simulator events, peak RSS, and per point the
fingerprint and telemetry-ledger verdict. A traced pass also installs
the :mod:`spans` wrappers and reports per-layer aggregates.
"""

from __future__ import annotations

import contextlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: Environment switches that select a non-default program.
PROGRAM_SWITCHES = ("REPRO_SPINE", "REPRO_STRICT_CHECKS")


def git_rev(root: Path = ROOT) -> Optional[str]:
    """The checkout's commit, or None outside a git work tree."""
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


class RunProbe:
    """Counts simulator events and stamps each point's first ``run``.

    Installed on ``Simulator.run`` in every pass, traced or not: it costs
    one clock read per ``run`` call (two or three per point).
    """

    def __init__(self) -> None:
        self.first_run: Optional[float] = None
        self.events = 0

    def wrap(self, run):
        probe = self

        def probed_run(sim, *args, **kwargs):
            if probe.first_run is None:
                probe.first_run = time.perf_counter()
            processed = run(sim, *args, **kwargs)
            probe.events += processed
            return processed

        return probed_run


def _pass_counters(per_point: List[Dict[str, Any]]) -> Dict[str, float]:
    """The counts the per-layer report derives its ratios from."""
    from workloads import DROP_COUNTERS

    total: Dict[str, float] = {
        "rx_packets": 0, "rx_drops": 0, "ring_transfers": 0, "flow_entries": 0,
        "batches": 0, "batched_packets": 0,
    }
    for counters in per_point:
        total["rx_packets"] += counters["rx.packets"]
        total["rx_drops"] += sum(
            counters[name] for name in DROP_COUNTERS if name.startswith("rx.")
        )
        total["ring_transfers"] += counters["ring.transfers"]
        total["flow_entries"] += counters["flow.entries"]
        hist = counters["core.batch_size"]
        total["batches"] += hist["count"]
        total["batched_packets"] += hist["sum"]
    return total


def run_pass(workload, seed: int, scale: float, probe: RunProbe) -> Dict[str, Any]:
    """Every point once: timings, counts and per-point verdicts."""
    from workloads import fingerprint, ledger_error

    wall = setup = 0.0
    points: List[Dict[str, Any]] = []
    counters_seen: List[Dict[str, Any]] = []
    for point in workload.points:
        probe.first_run = None
        start = time.perf_counter()
        try:
            result = point.call(seed, scale)
        except Exception:  # a failing point is a failed op, not a crash
            points.append({"label": point.label, "error": traceback.format_exc()})
            continue
        end = time.perf_counter()
        wall += end - start
        setup += (probe.first_run if probe.first_run is not None else end) - start
        outputs, counters = point.outputs(result)
        # Free the result (latency samples, telemetry series) before the
        # next point runs, so peak RSS is one point's, not two points'.
        del result
        counters_seen.append(counters)
        points.append({
            "label": point.label,
            "fingerprint": fingerprint(outputs, counters),
            "ledger_error": ledger_error(counters),
        })
    counters = _pass_counters(counters_seen)
    return {
        "wall_s": wall,
        "setup_s": setup,
        "rx_packets": counters["rx_packets"],
        "events": probe.events,
        "counters": counters,
        "points": points,
    }


def measure(
    workload_name: str, seed: int, traced: bool, scale: float = 1.0, import_s: float = 0.0
) -> Dict[str, Any]:
    """Run one pass of a workload in this process; the result document."""
    import spans
    from repro.sim.engine import Simulator
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    probe = RunProbe()
    clock = spans.LayerClock() if traced else None
    original_run = Simulator.run
    Simulator.run = probe.wrap(original_run)
    try:
        with spans.installed(clock) if traced else contextlib.nullcontext():
            one_pass = run_pass(workload, seed, scale, probe)
    finally:
        Simulator.run = original_run
    doc: Dict[str, Any] = {
        "workload": workload_name,
        "seed": seed,
        "scale": scale,
        "traced": traced,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_rev": git_rev(),
        "import_s": import_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        **one_pass,
    }
    if clock is not None:
        doc["layers"] = {
            layer: {"calls": calls, "self_ns": self_ns}
            for layer, (calls, self_ns) in clock.layers.items()
        }
        doc["attributed_ns"] = clock.attributed_ns
    return doc


def main(argv: List[str]) -> int:
    spec = json.loads(argv[1])
    for name in PROGRAM_SWITCHES:
        os.environ.pop(name, None)
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    import workloads  # noqa: F401  (imports repro: the timed part of set-up)

    import_s = time.perf_counter() - start
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"repro was imported from {repro.__file__}, not this checkout")
    doc = measure(spec["workload"], spec["seed"], spec["traced"], import_s=import_s)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
