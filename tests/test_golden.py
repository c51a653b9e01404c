"""Golden fingerprints: one pinned, quick point for every experiment runner.

``tests/golden.json`` is a declarative table. Each row names a runner
function (``module:function``), the keyword arguments it is pinned at,
and the CRC32 of its result::

    crc32(json.dumps(result, sort_keys=True, default=str))

Every runner is a pure function of its pinned seeds, so the digest is
exact: a change that alters any simulated number fails here, while a
change that only alters speed does not. Rows that list ``spines`` run
once per data-path spine against the same digest, which is the batch
spine's byte-identity gate.

Re-pin after a deliberate behaviour change, and say why in CHANGES.md.
This recomputes every digest at the pinned arguments, rewrites
``tests/golden.json`` and prints it; ``git diff`` shows what moved::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import importlib
import json
import sys
import zlib
from pathlib import Path

import pytest

GOLDEN_PATH = Path(__file__).with_name("golden.json")
GOLDEN = json.loads(GOLDEN_PATH.read_text())


def fingerprint(value) -> str:
    """Stable hex digest of any JSON-serializable value."""
    payload = json.dumps(value, sort_keys=True, default=str).encode()
    return f"{zlib.crc32(payload):08x}"


def resolve(path: str):
    """``"repro.experiments.fig6:run_fig6a"`` -> the function."""
    module, _, name = path.partition(":")
    return getattr(importlib.import_module(module), name)


def run_row(row) -> str:
    """Call the row's runner at its pinned arguments; return the digest."""
    return fingerprint(resolve(row["runner"])(**row["kwargs"]))


CASES = [
    pytest.param(name, spine, id=f"{name}-{spine}" if spine else name)
    for name, row in GOLDEN.items()
    for spine in row.get("spines", [None])
]


@pytest.mark.parametrize("name,spine", CASES)
def test_digest_matches_golden(name, spine, monkeypatch):
    if spine is not None:
        monkeypatch.setenv("REPRO_SPINE", spine)
    assert run_row(GOLDEN[name]) == GOLDEN[name]["crc32"], (
        f"{name}: simulated results changed; if that is intended, re-pin "
        f"with `PYTHONPATH=src python tests/test_golden.py`"
    )


def test_every_runner_is_pinned_and_every_row_has_a_runner():
    from repro.experiments.__main__ import RUNNERS

    unpinned = [key for key in RUNNERS if not any(name.startswith(key) for name in GOLDEN)]
    assert not unpinned, f"experiments without a golden row: {unpinned}"
    for name, row in GOLDEN.items():
        owners = [key for key in RUNNERS if name.startswith(key)]
        assert owners, f"{name}: no experiment in RUNNERS prefixes this row"
        assert resolve(row["runner"]).__module__ == RUNNERS[owners[0]].__module__, (
            f"{name}: {row['runner']} is not in the module of {owners[0]}"
        )


if __name__ == "__main__":
    table = {name: dict(row, crc32=run_row(row)) for name, row in GOLDEN.items()}
    text = json.dumps(table, indent=1) + "\n"
    GOLDEN_PATH.write_text(text)
    sys.stdout.write(text)
