"""Sprayer-specific lint rules (SPR001-SPR007).

Each rule statically enforces one piece of the reproduction's
correctness story. The paper's central argument is the *writing
partition* — per-flow state has exactly one writer core, so spraying
needs no locks (§3.2) — and the repo's test suites additionally depend
on runs being byte-identical functions of the experiment seed. The
rules, with the property each protects:

=======  ==========================================================
SPR001   flow-state encapsulation (writing partition, static half)
SPR002   simulation purity: no wall clocks / unseeded entropy
SPR003   no unordered-set iteration feeding deterministic outputs
SPR004   steering policies that see SYN/FIN/RST must consult the
         designated-core hash (or route through a replication log)
SPR005   no silently swallowed exceptions (sim events vanish)
SPR006   batch-path modules keep the SoA spine columnar: no
         per-packet materialize_all() loops off the hot path
SPR007   registry declarations (Table 1 profiles) agree with the
         statically inferred access patterns of the NF source
=======  ==========================================================

All rules are AST heuristics: they read attribute chains and names, not
types, and are documented as such. A justified exception is suppressed
in place with ``# repro-lint: disable=CODE`` (see :mod:`repro.lint.base`).
"""

from __future__ import annotations

import ast
import re
from pathlib import PurePath
from typing import Dict, Iterator, Set, Tuple

from repro.lint.base import FileContext, Rule, Violation, register, unparse

# -- SPR001 ----------------------------------------------------------------

#: Attribute bases that look like a flow-state manager or flow table.
_FLOW_STATEY = re.compile(r"(flow_state|flowstate|flow_table|table)s?$", re.IGNORECASE)


@register
class FlowStateEncapsulation(Rule):
    """Direct access to flow-state internals outside ``repro/core``."""

    code = "SPR001"
    title = "flow-state internals touched outside repro/core"
    rationale = (
        "The writing partition (paper §3.2) is enforced by the Table 2 "
        "API in repro/core: every mutation goes through insert/remove/"
        "get_local, which check the designated core. Code that reaches "
        "into .entries or .tables bypasses the single-writer check and "
        "can corrupt state the designated core believes it owns; under "
        "state-compute replication the same goes for the per-core "
        ".replicas tables, whose only writer is the replay machinery. "
        "Control-plane code (migration, rebalancing, oracles) must use "
        "the sanctioned entries_snapshot()/evict()/adopt() API — or "
        "replica_snapshot(core_id) for a replicated backend — instead."
    )

    def applies(self, ctx: FileContext) -> bool:
        return ctx.in_repro and not ctx.in_core

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Attribute):
                continue
            base = unparse(node.value)
            suspicious = (
                node.attr in ("entries", "tables", "replicas")
                and _FLOW_STATEY.search(base)
            ) or (node.attr in ("table", "replicas") and base.endswith("flow_state"))
            if suspicious:
                yield ctx.violation(
                    self,
                    node,
                    f"direct access to flow-state internals "
                    f"({base}.{node.attr}) outside repro/core bypasses the "
                    f"single-writer API — use the Table 2 methods, the "
                    f"control-plane entries_snapshot()/evict()/adopt(), or "
                    f"replica_snapshot(core_id) for replicated state",
                )


# -- SPR002 ----------------------------------------------------------------

#: module -> banned attribute calls (None = every attribute is banned).
_BANNED_CALLS: Dict[str, Tuple[str, ...]] = {
    "time": ("time", "time_ns", "monotonic", "monotonic_ns"),
    "datetime": ("now", "utcnow", "today"),
    "os": ("urandom",),
}
#: ``from module import name`` pairs that smuggle the same primitives in.
_BANNED_FROM_IMPORTS = {
    "random": None,  # everything except Random
    "time": ("time", "time_ns", "monotonic", "monotonic_ns"),
    "os": ("urandom",),
}
_RANDOM_ALLOWED = ("Random",)  # the seedable class is the sanctioned path


@register
class SimulationPurity(Rule):
    """Wall clocks and unseeded entropy inside the simulator source."""

    code = "SPR002"
    title = "wall clock / unseeded RNG used instead of sim clock / seeded streams"
    rationale = (
        "Runs must be byte-identical functions of the experiment seed "
        "(the determinism test suite depends on it). random.* module "
        "functions draw from an unseeded global; time.time()/monotonic() "
        "and datetime.now() read the host's wall clock; os.urandom is "
        "raw entropy. Use repro.sim.rng.RngStreams (or a random.Random "
        "seeded from one) and the sim clock (sim.now / ctx.now). "
        "time.perf_counter is allowed: it measures the simulator itself "
        "(wall-time reports), never simulated behaviour."
    )

    def applies(self, ctx: FileContext) -> bool:
        return ctx.in_repro

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        aliases = self._module_aliases(ctx.tree)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                yield from self._check_import_from(ctx, node)
            elif isinstance(node, ast.Call):
                yield from self._check_call(ctx, node, aliases)

    def _module_aliases(self, tree: ast.AST) -> Dict[str, str]:
        """Local name -> canonical module, for ``import time as t`` forms."""
        aliases: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for item in node.names:
                    if item.name in ("random", "time", "datetime", "os"):
                        aliases[item.asname or item.name] = item.name
        return aliases

    def _check_import_from(
        self, ctx: FileContext, node: ast.ImportFrom
    ) -> Iterator[Violation]:
        banned = _BANNED_FROM_IMPORTS.get(node.module or "")
        if banned is None and (node.module or "") != "random":
            return
        for item in node.names:
            bad = (
                item.name not in _RANDOM_ALLOWED
                if node.module == "random"
                else item.name in (banned or ())
            )
            if bad:
                yield ctx.violation(
                    self,
                    node,
                    f"'from {node.module} import {item.name}' pulls in a "
                    f"wall clock or unseeded entropy source — use the "
                    f"sim clock / repro.sim.rng.RngStreams",
                )

    def _check_call(
        self, ctx: FileContext, node: ast.Call, aliases: Dict[str, str]
    ) -> Iterator[Violation]:
        func = node.func
        if not (isinstance(func, ast.Attribute) and isinstance(func.value, (ast.Name, ast.Attribute))):
            return
        # Resolve the module of a dotted call: random.x, time.x,
        # datetime.now, datetime.datetime.now, os.urandom.
        base = unparse(func.value)
        root = base.split(".", 1)[0]
        module = aliases.get(root, root)
        attr = func.attr
        if module == "random" and base in (root,) and attr not in _RANDOM_ALLOWED:
            hint = "repro.sim.rng.RngStreams (seeded per-component streams)"
        elif module == "time" and base in (root,) and attr in _BANNED_CALLS["time"]:
            hint = "the sim clock (sim.now / ctx.now) or time.perf_counter for host timing"
        elif module == "datetime" and attr in _BANNED_CALLS["datetime"]:
            hint = "the sim clock (sim.now); experiments stamp results from their seed"
        elif module == "os" and base in (root,) and attr in _BANNED_CALLS["os"]:
            hint = "repro.sim.rng.RngStreams"
        else:
            return
        yield ctx.violation(
            self,
            node,
            f"{base}.{attr}() breaks simulation purity (runs must be a "
            f"pure function of the seed) — use {hint}",
        )


# -- SPR003 ----------------------------------------------------------------


@register
class OrderedIteration(Rule):
    """Iteration over unordered collections without ``sorted(...)``."""

    code = "SPR003"
    title = "iteration over set()/dict.keys() without an explicit sorted(...)"
    rationale = (
        "Python sets iterate in hash order, which for str/bytes keys is "
        "salted per interpreter: a result row, telemetry dump, or sweep "
        "expansion built from bare set iteration differs across "
        "processes, breaking byte-identical reruns and the --jobs N "
        "process-pool backend. Explicit .keys() iteration is flagged "
        "with it because the call hides whether the receiver is a dict "
        "(insertion-ordered) or a set-like view; iterate the dict "
        "itself, or wrap either in sorted(...)."
    )

    def applies(self, ctx: FileContext) -> bool:
        return ctx.in_repro

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                yield from self._check_iter(ctx, node.iter)
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                for gen in node.generators:
                    yield from self._check_iter(ctx, gen.iter)

    def _check_iter(self, ctx: FileContext, expr: ast.AST) -> Iterator[Violation]:
        what = self._unordered_kind(expr)
        if what is not None:
            yield ctx.violation(
                self,
                expr,
                f"iterating {what} directly — hash order is not "
                f"deterministic across interpreters; wrap in sorted(...) "
                f"(or iterate the dict itself for insertion order)",
            )

    @staticmethod
    def _unordered_kind(expr: ast.AST) -> "str | None":
        if isinstance(expr, ast.Set):
            return "a set literal"
        if isinstance(expr, ast.Call):
            func = expr.func
            if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
                return f"{func.id}(...)"
            if isinstance(func, ast.Attribute) and func.attr == "keys":
                return f"{unparse(func.value)}.keys()"
        return None


# -- SPR004 ----------------------------------------------------------------

_FLAG_NAMES = {"SYN", "FIN", "RST"}
_FLAG_ATTRS = {"flags", "is_connection"}
_DESIGNATED_REFS = {
    "designated_core",
    "designated_map",
    "designated_fn",
    "DesignatedCoreMap",
    "core_for",
}
#: The other sanctioned route: a policy that replicates state routes
#: connection packets through its packet-history log instead of a
#: designated core (state-compute replication, the ``scr`` policy).
_REPLICATION_REFS = {
    "replication",
    "ScrReplication",
    "replicates_state",
    "replay",
    "replay_log",
}


@register
class SteeringConsultsDesignated(Rule):
    """Steering policies that see connection flags must use the hash."""

    code = "SPR004"
    title = "steering policy handles SYN/FIN/RST without the designated-core hash"
    rationale = (
        "Connection packets are the only packets that mutate flow state, "
        "so a policy that classifies them (checks SYN/FIN/RST or "
        "is_connection) must route them by the designated-core hash — "
        "anything else sends writes to a core that does not own the "
        "flow, violating the writing partition the moment state is "
        "touched. Two routes satisfy the rule: consulting the "
        "designated-core hash (Sprayer and friends), or routing "
        "connection packets through a replication log whose replay "
        "keeps every per-core replica a single-writer copy (the scr "
        "policy). Policies that never inspect flags (pure spraying, "
        "RSS) are exempt: the engine's redirect path consults the hash "
        "for them."
    )

    def applies(self, ctx: FileContext) -> bool:
        return ctx.in_repro

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            bases = [unparse(base) for base in node.bases]
            if not any(
                "SteeringPolicy" in base or base.endswith("Policy") for base in bases
            ):
                continue
            names, attrs = self._references(node)
            handles_flags = bool(_FLAG_NAMES & names) or bool(_FLAG_ATTRS & attrs)
            consults = bool(
                (_DESIGNATED_REFS | _REPLICATION_REFS) & (names | attrs)
            )
            if handles_flags and not consults:
                yield ctx.violation(
                    self,
                    node,
                    f"steering policy {node.name!r} inspects connection "
                    f"flags (SYN/FIN/RST) but never consults the "
                    f"designated-core hash nor a replication log — "
                    f"connection packets must reach their designated core "
                    f"(or be replayed onto every replica) or the writing "
                    f"partition breaks",
                )

    @staticmethod
    def _references(node: ast.ClassDef) -> Tuple[Set[str], Set[str]]:
        names: Set[str] = set()
        attrs: Set[str] = set()
        for child in ast.walk(node):
            if isinstance(child, ast.Name):
                names.add(child.id)
            elif isinstance(child, ast.Attribute):
                attrs.add(child.attr)
        return names, attrs


# -- SPR005 ----------------------------------------------------------------


@register
class SilentExceptionSwallow(Rule):
    """``except: pass`` — the event (and its packets) vanish silently."""

    code = "SPR005"
    title = "caught-and-dropped exception"
    rationale = (
        "Sim-event callbacks run inside the event loop: an exception "
        "swallowed with a bare pass makes the event — and every packet "
        "it carried — vanish without a counter, breaking the "
        "conservation ledger (rx == forwarded + drop classes) that the "
        "invariant tests audit. Handle the error, count it through a "
        "telemetry counter or drop class, or let it propagate."
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ExceptHandler) and self._swallows(node):
                caught = unparse(node.type) if node.type is not None else "everything"
                yield ctx.violation(
                    self,
                    node,
                    f"exception ({caught}) caught and dropped — events "
                    f"that die here vanish from the conservation ledger; "
                    f"handle, count, or re-raise",
                )

    @staticmethod
    def _swallows(handler: ast.ExceptHandler) -> bool:
        for stmt in handler.body:
            if isinstance(stmt, (ast.Pass, ast.Continue)):
                continue
            if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
                continue  # docstring or bare ... literal
            return False
        return True


# -- SPR006 ----------------------------------------------------------------

#: The modules that make up the SoA batch spine (generator burst ->
#: link -> NIC steering -> lazy settlement). Identified by their
#: trailing path segments so the rule works from any checkout root.
_BATCH_PATH_FILES = frozenset(
    {
        ("repro", "net", "batch.py"),
        ("repro", "nic", "link.py"),
        ("repro", "nic", "nic.py"),
        ("repro", "core", "batch_spine.py"),
        ("repro", "trafficgen", "moongen.py"),
    }
)


@register
class ColumnarBatchPath(Rule):
    """Per-packet loops over materialized batch rows on the batch path."""

    code = "SPR006"
    title = "per-packet materialize_all() loop inside a batch-path module"
    rationale = (
        "The batch spine's whole performance argument is that a burst "
        "stays columnar (struct-of-arrays) from the generator to the "
        "settlement point: steering, arrival stamping, and drop "
        "decisions are column operations, and scalar Packet objects "
        "are materialized lazily, one accepted row at a time. A loop "
        "over materialize_all() inside one of the spine's own modules "
        "re-boxes the whole burst into per-packet objects and silently "
        "reverts that module to scalar cost. Audited scalar fallbacks "
        "(e.g. a link in a fault-injection window, where Bernoulli "
        "draws must happen per packet in send order) are sanctioned "
        "with an inline '# repro-lint: disable=SPR006' so the "
        "reviewer's eye lands on every one of them."
    )

    def applies(self, ctx: FileContext) -> bool:
        return ctx.in_repro and tuple(PurePath(ctx.path).parts[-3:]) in _BATCH_PATH_FILES

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters = [node.iter]
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                iters = [gen.iter for gen in node.generators]
            else:
                continue
            for expr in iters:
                if (
                    isinstance(expr, ast.Call)
                    and isinstance(expr.func, ast.Attribute)
                    and expr.func.attr == "materialize_all"
                ):
                    yield ctx.violation(
                        self,
                        expr,
                        f"loop over {unparse(expr.func.value)}.materialize_all() "
                        f"re-boxes the burst into per-packet objects inside a "
                        f"batch-path module — operate on the batch's columns, "
                        f"or materialize rows lazily at the settlement point; "
                        f"an audited scalar fallback must carry an inline "
                        f"'# repro-lint: disable=SPR006'",
                    )


# -- SPR007 ----------------------------------------------------------------


@register
class DeclaredProfileMatchesInferred(Rule):
    """Registry NfProfile declarations drift from the NF's actual code."""

    code = "SPR007"
    title = "declared Table 1 profile disagrees with the inferred access pattern"
    rationale = (
        "The registry's NfProfile rows feed the Table 1 bench, the "
        "sprayer-compatibility verdict, and the chain planner's policy "
        "choice. A declaration that drifts from the code makes the "
        "planner synthesize a steering policy for an NF that no longer "
        "exists — e.g. spraying an NF that grew per-packet flow writes. "
        "The dataflow pass infers scope and per-packet/per-event access "
        "from the source (folded symmetrically: connection packets are "
        "packets too); this rule fires on any compared field that "
        "disagrees. A deliberate divergence — dpi declares the paper's "
        "logical per-flow automaton, which the implementation "
        "materializes as shared global state under spraying, the "
        "paper's very point — is suppressed in place with "
        "'# repro-lint: disable=SPR007' and a reason."
    )

    def _registered_modules(self):
        """implementation module -> (registry key, declared profile)."""
        from repro.nfs.registry import NF_PROFILES

        return {
            profile.implementation: (key, profile)
            for key, profile in NF_PROFILES.items()
            if profile.implementation is not None
        }

    def applies(self, ctx: FileContext) -> bool:
        if not ctx.in_repro:
            return False
        from repro.lint.dataflow import module_name_for

        return module_name_for(ctx.path) in self._registered_modules()

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        from repro.lint.dataflow import (
            compare_summaries,
            declared_summary,
            infer_class,
            module_name_for,
        )

        module = module_name_for(ctx.path)
        key, profile = self._registered_modules()[module]
        declared = declared_summary(profile)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            bases = [unparse(base) for base in node.bases]
            if not any("NetworkFunction" in base for base in bases):
                continue
            inferred = infer_class(node, ctx.path, module)
            mismatches = compare_summaries(declared, inferred.summary)
            if mismatches:
                yield ctx.violation(
                    self,
                    node,
                    f"declared profile {key!r} disagrees with what "
                    f"{node.name} actually does: {'; '.join(mismatches)} — "
                    f"fix the registry row (or suppress with a reason if "
                    f"the divergence is the point)",
                )
