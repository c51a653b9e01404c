"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures (at
reduced but shape-preserving parameters), prints the resulting rows in
the same layout the paper reports, and stores them in pytest-benchmark's
``extra_info`` so they land in any saved benchmark JSON.

Every table is also written to ``benchmarks/latest_tables.txt``, which
the session's first table truncates and the rest append to.
"""

from __future__ import annotations

import pathlib
import sys
from typing import Dict, List, Sequence

from repro.experiments.format import format_table

#: Every record_rows call appends its table here (pytest's fd-level
#: capture swallows stdout for passing tests, and the tables should
#: survive a plain `pytest benchmarks/ --benchmark-only` run). The
#: session's first write truncates it.
TABLES_PATH = pathlib.Path(__file__).with_name("latest_tables.txt")
_truncated = False


def record_rows(benchmark, rows: List[Dict], title: str, columns: Sequence[str] = None):
    """Attach experiment rows to the benchmark, print them, and persist
    them to ``benchmarks/latest_tables.txt``."""
    benchmark.extra_info["title"] = title
    benchmark.extra_info["rows"] = rows
    text = format_table(rows, columns=columns, title=title)
    sys.stdout.write("\n" + text + "\n")  # visible with `pytest -s`
    global _truncated
    with open(TABLES_PATH, "a" if _truncated else "w") as handle:
        handle.write(text + "\n\n")
    _truncated = True
