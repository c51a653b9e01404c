"""The layered simulator benchmark: five pinned workloads, end to end and per layer.

Usage (from the repository root)::

    python3 benchmarks/suite/run.py [--workloads a,b] [--seed N] [--seconds S]
                                    [--trace [0|1]] [--out PATH]
    python3 benchmarks/suite/run.py --compare OLD.json NEW.json

Workloads run one after another. For ``--seconds`` per workload the
runner starts fresh worker processes (``worker.py``), one after another,
each running one pass over the workload's points; the end-to-end metrics
are medians over those passes, with quartiles and the sample count.
``--trace`` splits the budget: a third for untraced passes, two thirds
for traced ones (``spans.py``), which give the per-layer metrics.
End-to-end numbers always come from untraced passes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics, or with ``--trace`` the per-layer ones, as ``BENCHMARK.json``
names them (prefixed ``<workload>/`` when several workloads run).
``--out`` writes the full document, which ``--compare`` reads; it also
holds each layer's self time in seconds, left out of the last line
because a layer a workload never enters reads exactly 0 s every run.
Exit status: 0 when every op passed, 1 when one failed or ``--compare``
found a regression beyond a bound, 2 when a worker could not run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import spans  # noqa: E402

#: A pass takes a few seconds; a worker still running after this is stuck.
WORKER_TIMEOUT_S = 150
#: Share of traced wall time above which a workload's trace is flagged.
UNATTRIBUTED_FLAG = 0.10


class WorkerError(RuntimeError):
    """A worker exited without a result document."""


def load_spec(root: Path = ROOT) -> Dict[str, Any]:
    with open(root / "BENCHMARK.json") as handle:
        return json.load(handle)


def load_expected() -> Dict[str, Dict[str, List[str]]]:
    with open(HERE / "expected.json") as handle:
        return json.load(handle)


def spawn(workload: str, seed: int, traced: bool) -> Dict[str, Any]:
    """Run one worker process (one pass) to completion; its document."""
    spec = json.dumps({"workload": workload, "seed": seed, "traced": traced})
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), spec],
            cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{workload}: worker timed out after {exc.timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
        raise WorkerError(f"{workload}: worker exited {proc.returncode}\n{tail}")
    return json.loads(lines[-1])


def passes_for(workload: str, seed: int, traced: bool, budget_s: float) -> List[Dict[str, Any]]:
    """Passes in fresh workers until ``budget_s`` is spent (at least one)."""
    docs: List[Dict[str, Any]] = []
    began = time.perf_counter()
    while not docs or time.perf_counter() - began < budget_s:
        docs.append(spawn(workload, seed, traced))
    return docs


# -- checking -----------------------------------------------------------------


def check(
    untraced: Sequence[Dict[str, Any]],
    traced: Sequence[Dict[str, Any]],
    pinned: Optional[List[str]],
) -> Dict[str, Any]:
    """Ops, failed ops and failure reasons over every pass.

    Each point of each pass is one op. It fails if it raised, if its
    telemetry ledger is inconsistent, or if its fingerprint differs from
    the reference: the pinned fingerprints when the seed has them, else
    the first untraced pass. Traced passes are checked against the same
    reference, so a trace that changed a result fails.
    """
    fingerprints = [point.get("fingerprint") for point in untraced[0]["points"]]
    reference = fingerprints if pinned is None else pinned
    ops = 0
    failures: List[str] = []
    for n, doc in enumerate(list(untraced) + list(traced)):
        kind = "traced" if doc["traced"] else "untraced"
        for i, point in enumerate(doc["points"]):
            ops += 1
            where = f"{kind} pass {n} point {point['label']}"
            expected = reference[i] if i < len(reference) else None
            if "error" in point:
                failures.append(f"{where} raised:\n{point['error']}")
            elif point["ledger_error"]:
                failures.append(f"{where}: ledger {point['ledger_error']}")
            elif point["fingerprint"] != expected:
                failures.append(f"{where}: fingerprint {point['fingerprint']} != {expected}")
    return {
        "ops": ops,
        "failed_ops": len(failures),
        "failures": failures,
        "fingerprints": fingerprints,
        "pinned": pinned is not None,
    }


# -- metrics ------------------------------------------------------------------


def summarize(values: Sequence[float], unit: str) -> Dict[str, Any]:
    """Median and quartiles of ``values`` with their count."""
    values = list(values)
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"value": median, "unit": unit, "q1": q1, "q3": q3, "n": len(values)}


def _complete(docs: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """The passes in which every point ran to the end."""
    return [doc for doc in docs if all("error" not in point for point in doc["points"])]


def end_to_end(untraced: Sequence[Dict[str, Any]], spec: Dict[str, Any]) -> Dict[str, Any]:
    """Every end-to-end metric of ``spec``, over the complete untraced passes."""
    samples: Dict[str, List[float]] = {
        "wall_s": [], "setup_s": [], "sim_pkts_per_s": [], "peak_rss_mb": [],
    }
    for doc in _complete(untraced):
        samples["wall_s"].append(doc["import_s"] + doc["wall_s"])
        samples["setup_s"].append(doc["import_s"] + doc["setup_s"])
        samples["sim_pkts_per_s"].append(doc["rx_packets"] / (doc["wall_s"] - doc["setup_s"]))
        samples["peak_rss_mb"].append(doc["peak_rss_mb"])
    return {
        m["name"]: summarize(samples[m["name"]], m["unit"])
        for m in spec["end_to_end"]
        if samples[m["name"]]
    }


def per_layer(
    traced: Sequence[Dict[str, Any]], untraced: Sequence[Dict[str, Any]]
) -> Dict[str, Any]:
    """Every per-layer metric, from the complete traced passes.

    Calls and self time are per pass; a share is self time over traced
    wall time. The derived counts come from the first traced pass (they
    repeat exactly from pass to pass).
    """
    passes = _complete(traced)
    wall_s = sum(doc["wall_s"] for doc in passes)
    out: Dict[str, Any] = {}

    def put(name: str, value: float, unit: str) -> None:
        out[name] = {"value": value, "unit": unit}

    for layer in spans.LAYERS:
        calls = sum(doc["layers"][layer]["calls"] for doc in passes)
        self_s = sum(doc["layers"][layer]["self_ns"] for doc in passes) / 1e9
        put(f"{layer}.calls", calls / len(passes), "count")
        put(f"{layer}.self_s", self_s / len(passes), "s")
        put(f"{layer}.share", self_s / wall_s, "ratio")
    first = passes[0]
    counters = first["counters"]
    rx = counters["rx_packets"]
    put("sim.events", first["events"], "count")
    put("sim.events_per_pkt", first["events"] / rx, "ratio")
    put("cpu.pkts_per_batch", counters["batched_packets"] / counters["batches"], "count")
    put("nic.drop_frac", counters["rx_drops"] / rx, "ratio")
    put("core.rings.transfers", counters["ring_transfers"], "count")
    put("core.flow_state.entries", counters["flow_entries"], "count")
    attributed_s = sum(doc["attributed_ns"] for doc in passes) / 1e9
    put("trace.unattributed_share", 1 - attributed_s / wall_s, "ratio")
    put("trace.overhead", statistics.median(doc["wall_s"] for doc in passes) / (
        statistics.median(doc["wall_s"] for doc in _complete(untraced))
    ), "ratio")
    return out


# -- running ------------------------------------------------------------------


def run_workload(
    name: str, seed: int, seconds: float, trace: bool,
    spec: Dict[str, Any], expected: Dict[str, Dict[str, List[str]]],
) -> Dict[str, Any]:
    """Run the workload's passes; its checked, summarized entry."""
    untraced_budget = seconds / 3 if trace else seconds
    untraced = passes_for(name, seed, False, untraced_budget)
    traced = passes_for(name, seed, True, seconds - untraced_budget) if trace else []
    entry: Dict[str, Any] = check(untraced, traced, expected.get(name, {}).get(str(seed)))
    entry["why"] = next(w["why"] for w in spec["workloads"] if w["name"] == name)
    entry["metrics"] = end_to_end(untraced, spec)
    if _complete(traced) and _complete(untraced):
        entry["layers"] = per_layer(traced, untraced)
        share = entry["layers"]["trace.unattributed_share"]["value"]
        entry["unattributed_flagged"] = share > UNATTRIBUTED_FLAG
    entry["passes"] = untraced + traced
    return entry


def result_line(document: Dict[str, Any], spec: Dict[str, Any], trace: bool) -> Dict[str, Any]:
    """The one-line verdict: op counts plus the ``spec`` metrics of this mode."""
    entries = document["workloads"]
    key, names = ("layers", "per_layer") if trace else ("metrics", "end_to_end")
    metrics: Dict[str, Any] = {}
    for name, entry in entries.items():
        prefix = f"{name}/" if len(entries) > 1 else ""
        measured = entry.get(key, {})
        for metric in (m["name"] for m in spec[names]):
            if metric in measured:
                value = measured[metric]
                metrics[prefix + metric] = {"value": value["value"], "unit": value["unit"]}
    attempted = sum(e["ops"] for e in entries.values())
    failed = sum(e["failed_ops"] for e in entries.values())
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def format_entry(name: str, entry: Dict[str, Any]) -> str:
    lines = [f"== {name}: {entry['ops']} ops, {entry['failed_ops']} failed"
             f"{'' if entry['pinned'] else ' (seed not pinned)'}"]
    for metric, v in entry["metrics"].items():
        lines.append(
            f"  {metric:<16} {v['value']:>14.6g} {v['unit']:<4} "
            f"[q1 {v['q1']:.6g}, q3 {v['q3']:.6g}, n={v['n']}]"
        )
    layers = entry.get("layers")
    if layers:
        lines.append(f"  {'layer':<18} {'share':>7} {'self_s':>9} {'calls':>12}")
        ranked = sorted(spans.LAYERS, key=lambda lay: -layers[f"{lay}.share"]["value"])
        for layer in ranked:
            lines.append(
                f"  {layer:<18} {layers[f'{layer}.share']['value']:>7.1%} "
                f"{layers[f'{layer}.self_s']['value']:>9.4f} "
                f"{layers[f'{layer}.calls']['value']:>12.0f}"
            )
        extras = [k for k in layers if not k.endswith((".share", ".self_s", ".calls"))]
        for key in extras:
            lines.append(f"  {key:<28} {layers[key]['value']:.6g} {layers[key]['unit']}")
        if entry["unattributed_flagged"]:
            lines.append(
                f"  FLAG: more than {UNATTRIBUTED_FLAG:.0%} of traced wall time is unattributed"
            )
    for failure in entry["failures"][:5]:
        lines.append("  FAILED " + failure.strip().replace("\n", "\n    "))
    return "\n".join(lines)


# -- comparing ----------------------------------------------------------------


def compare(old: Dict[str, Any], new: Dict[str, Any], spec: Dict[str, Any]) -> List[str]:
    """Print e2e and per-layer deltas; the regressions beyond a bound."""
    regressions: List[str] = []
    for name, new_entry in new["workloads"].items():
        old_entry = old["workloads"].get(name)
        if old_entry is None:
            print(f"== {name}: not in the old document")
            continue
        print(f"== {name}")
        for m in spec["end_to_end"]:
            metric = m["name"]
            if metric not in old_entry["metrics"] or metric not in new_entry["metrics"]:
                continue
            before = old_entry["metrics"][metric]["value"]
            after = new_entry["metrics"][metric]["value"]
            change = after / before - 1
            worse = change if m["better"] == "lower" else -change
            verdict = "REGRESSION" if worse > m["bound"] else "ok"
            print(f"  {metric:<16} {before:>12.6g} -> {after:<12.6g} {change:+7.1%}"
                  f"  (bound {m['bound']:.0%}) {verdict}")
            if worse > m["bound"]:
                regressions.append(f"{name} {metric} {change:+.1%}")
        old_layers, new_layers = old_entry.get("layers"), new_entry.get("layers")
        if old_layers and new_layers:
            for layer in spans.LAYERS:
                key = f"{layer}.self_s"
                before, after = old_layers[key]["value"], new_layers[key]["value"]
                print(f"  {key:<28} {before:>10.4f} -> {after:<10.4f} {after - before:+.4f} s")
    return regressions


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", "--workload", dest="workloads", default="",
                        help="comma-separated workload names (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring budget per workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="also run traced passes for the per-layer metrics")
    parser.add_argument("--out", type=Path, help="write the full result document here")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("OLD", "NEW"),
                        help="compare two --out documents and exit")
    args = parser.parse_args(argv)
    spec = load_spec()
    if args.compare:
        old, new = (json.loads(path.read_text()) for path in args.compare)
        regressions = compare(old, new, spec)
        for line in regressions:
            print(f"regression beyond bound: {line}")
        return 1 if regressions else 0
    known = [w["name"] for w in spec["workloads"]]
    names = [n for n in args.workloads.split(",") if n] or known
    unknown = [n for n in names if n not in known]
    if unknown:
        parser.error(f"unknown workloads {unknown}; have {', '.join(known)}")
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    expected = load_expected()
    document: Dict[str, Any] = {
        "schema": 1, "seed": args.seed, "seconds": seconds,
        "trace": bool(args.trace), "workloads": {},
    }
    try:
        for name in names:
            entry = run_workload(name, args.seed, seconds, bool(args.trace), spec, expected)
            document["workloads"][name] = entry
            print(format_entry(name, entry), flush=True)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    first = document["workloads"][names[0]]["passes"][0]
    document.update({k: first[k] for k in ("python", "platform", "git_rev")})
    if args.out:
        args.out.write_text(json.dumps(document, indent=1) + "\n")
    line = result_line(document, spec, bool(args.trace))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
