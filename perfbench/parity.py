"""Compiled-vs-pure kernel parity.

The compiled kernel (`tanglekit._enumcore`) must replay the pure one
(`tanglekit._enumpy`) exactly: equal tables, equal deduction counts and
equal bracket state counts.  `run.py` calls `mismatches()` on every run,
which checks the jobs below whenever both kernels import, and records
`status()` with the run's result.  The end-to-end timing of each
backend is the benchmark itself, run once per build.
"""

from __future__ import annotations

from tanglekit import _enumpy
from tanglekit.diagrams import braid, braid_closure
from tanglekit.presentation import (
    burnside_kei,
    enumerate_kei,
    free_burnside_presentation,
    fundamental_kei,
)

try:
    from tanglekit import _enumcore
except ImportError:
    _enumcore = None


def _bracket_counts(d, kernel):
    return kernel.bracket_statesum(d.crossings, d.arc_count)


def jobs():
    link_9240 = braid_closure(braid([1, 1, -2] * 3))
    turks_head = braid_closure(braid([1, -2] * 4))
    thirteen = braid_closure(braid([1, -2, 1, -2, 2, 2, 2, 2, 2, 1, -2, 1, 2]))
    return [
        ("Q(3,3) enumeration",
         lambda b: enumerate_kei(free_burnside_presentation(3, 3), cap=4000, backend=b)),
        ("Q(4,3) enumeration",
         lambda b: enumerate_kei(free_burnside_presentation(4, 3), cap=4000, backend=b)),
        ("Q(3,4) enumeration",
         lambda b: enumerate_kei(free_burnside_presentation(3, 4), cap=4000, backend=b)),
        ("BQ5 of the 9-crossing link",
         lambda b: burnside_kei(link_9240, 5, cap=8000, backend=b)),
        ("BQ3 of the 8-crossing knot",
         lambda b: burnside_kei(turks_head, 3, cap=8000, backend=b)),
        ("fund. Kei cap-out, 8 crossings",
         lambda b: enumerate_kei(fundamental_kei(turks_head), cap=500, backend=b)),
        ("bracket counts, 13 crossings",
         lambda b: _bracket_counts(thirteen, _enumcore if b == "compiled" else _enumpy)),
    ]


def _same(a, b) -> bool:
    if hasattr(a, "kei"):
        return (a.completed == b.completed and a.deductions == b.deductions
                and a.generator_images == b.generator_images
                and (a.kei.table if a.completed else None)
                == (b.kei.table if b.completed else None))
    return a == b


def status() -> str:
    if _enumcore is None:
        return "not checked: compiled kernel not importable"
    return f"checked {len(jobs())} jobs"


def mismatches() -> list[str]:
    """Names of jobs whose compiled and pure results differ."""
    if _enumcore is None:
        return []
    return [name for name, fn in jobs() if not _same(fn("compiled"), fn("pure"))]
