"""The compiled kernel must replay the pure kernel exactly."""

import pytest

from tanglekit import _enumpy
from tanglekit.diagrams import braid, braid_closure, parse_pd
from tanglekit.presentation import (
    burnside_kei,
    enumerate_kei,
    free_burnside_presentation,
    fundamental_kei,
    kernel_backend,
    q_kei,
)

pytestmark = pytest.mark.skipif(
    kernel_backend() != "compiled", reason="compiled kernel not built"
)

TREFOIL = parse_pd("X 1 4 2 5\nX 3 6 4 1\nX 5 2 6 3")


@pytest.mark.parametrize(
    "m,n", [(1, 5), (2, 3), (2, 5), (2, 9), (3, 2), (3, 3), (3, 4), (4, 3)]
)
def test_enumeration_identical(m, n):
    a = q_kei(m, n, cap=4000, backend="compiled")
    b = q_kei(m, n, cap=4000, backend="pure")
    assert a.completed == b.completed
    assert a.kei.table == b.kei.table
    assert a.generator_images == b.generator_images
    assert a.deductions == b.deductions


def test_fundamental_enumeration_identical():
    for d in (TREFOIL, braid_closure(braid([1, -2, 1, -2]))):
        pres = fundamental_kei(d)
        a = enumerate_kei(pres, cap=1000, backend="compiled")
        b = enumerate_kei(pres, cap=1000, backend="pure")
        assert a.kei.table == b.kei.table
        assert a.deductions == b.deductions


def test_burnside_identical():
    link = braid_closure(braid([1, 1, -2] * 3))
    a = burnside_kei(link, 5, cap=20000, backend="compiled")
    b = burnside_kei(link, 5, cap=20000, backend="pure")
    assert a.kei.table == b.kei.table


def test_cap_exceeded_identical():
    pres = free_burnside_presentation(3, 3)
    a = enumerate_kei(pres, cap=5, backend="compiled")
    b = enumerate_kei(pres, cap=5, backend="pure")
    assert not a.completed and not b.completed
    assert a.deductions == b.deductions


def test_generator_pair_mode_identical():
    pres = free_burnside_presentation(2, 4)
    a = enumerate_kei(pres, cap=500, backend="compiled",
                      universal_on_all_pairs=False)
    b = enumerate_kei(pres, cap=500, backend="pure",
                      universal_on_all_pairs=False)
    assert a.completed == b.completed
    assert a.kei.table == b.kei.table


def test_bracket_statesum_counts_identical():
    """The compiled 2^c state sum is the reference for the contraction."""
    from tanglekit import _enumcore

    diagrams = [
        TREFOIL,
        braid_closure(braid([1, -2, 1, -2])),
        braid_closure(braid([1, 1, -2] * 3)),
        braid_closure(braid([1, -2] * 4)),
        braid_closure(braid([1, -2, 2, 1, -2])),
        parse_pd("X 0 1 1 0"),
    ]
    for d in diagrams:
        assert _enumcore.bracket_statesum(d.crossings, d.arc_count) == \
            _enumpy.bracket_statesum(d.crossings, d.arc_count)
