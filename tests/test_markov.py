"""Seeded braid-move invariance, independent of every recorded pin.

Random braid words on 2-4 strands are closed before and after a move
that keeps the closed link (Markov 1935; Birman, *Braids, Links, and
Mapping Class Groups*, 1974):

- conjugation, g w g^-1;
- stabilisation, w s_n^(+-1) on n + 1 strands;
- insertion of a word equal to 1: s s^-1, the braid relation
  s_i s_i+1 s_i (s_i+1 s_i s_i+1)^-1, or the commuting pair
  s_i s_j s_i^-1 s_j^-1 with |i - j| >= 2.

Every invariant must then agree: the Jones polynomial exactly for
knots and up to a factor s^k for links (`jones` orients each link
component along the walk of `trace_components`, not along the braid),
the Fox coloring groups at n = 3 and 5, and the size of BQ3 on every
kernel in `KERNELS` (for closures of at most 3 components).
"""

import random
from functools import lru_cache

import pytest

from tanglekit.coloring import col_group
from tanglekit.diagrams import braid, braid_closure
from tanglekit.jones import jones
from tanglekit.presentation import KERNELS, burnside_kei

WORDS = 100
# BQ3 of a 4-component closure is often Q(4,3), about a second of pure
# enumeration, so BQ3 is compared on at most 3 components
BQ3_COMPONENTS = 3


def random_word(rng, strands):
    return [rng.choice((1, -1)) * rng.randint(1, strands - 1)
            for _ in range(rng.randint(1, 7))]


def relator(rng, strands):
    """A word equal to 1 in the braid group on `strands` strands."""
    kinds = ["inverse"] + ["braid"] * (strands >= 3) + ["commute"] * (strands >= 4)
    kind = rng.choice(kinds)
    if kind == "inverse":
        g = rng.choice((1, -1)) * rng.randint(1, strands - 1)
        return [g, -g]
    if kind == "braid":
        i = rng.randint(1, strands - 2)
        return [i, i + 1, i, -(i + 1), -i, -(i + 1)]
    i = rng.randint(1, strands - 3)
    j = rng.randint(i + 2, strands - 1)
    return [i, j, -i, -j]


def variant(rng, move, word, strands):
    """(word, strands) after one `move`."""
    if move == "conjugation":
        g = rng.choice((1, -1)) * rng.randint(1, strands - 1)
        return [g, *word, -g], strands
    if move == "stabilisation":
        return [*word, rng.choice((1, -1)) * strands], strands + 1
    at = rng.randint(0, len(word))
    return word[:at] + relator(rng, strands) + word[at:], strands


def up_to_power(poly):
    """The coefficients of poly / s^k, with the constant term lowest."""
    low = min(poly.coeffs)
    return {e - low: c for e, c in poly.coeffs.items()}


@lru_cache(maxsize=None)
def invariants(word, strands):
    d = braid_closure(braid(word, strands))
    v = jones(d)
    out = {
        "components": d.component_count(),
        "jones": v.coeffs if d.component_count() == 1 else up_to_power(v),
        "col3": col_group(d, 3).cyclic_orders,
        "col5": col_group(d, 5).cyclic_orders,
    }
    for name in KERNELS if out["components"] <= BQ3_COMPONENTS else ():
        r = burnside_kei(d, 3, cap=500, backend=name)
        assert r.completed, (word, strands, name)
        out[f"bq3 {name}"] = r.size
    return out


def words():
    rng = random.Random(1935)
    out = []
    for _ in range(WORDS):
        strands = rng.randint(2, 4)
        out.append((random_word(rng, strands), strands))
    return out


@pytest.mark.parametrize("move", ["conjugation", "stabilisation", "insertion"])
def test_invariants_survive_markov_moves(move):
    rng = random.Random(move)
    knots = 0
    for word, strands in words():
        moved, moved_strands = variant(rng, move, word, strands)
        want = invariants(tuple(word), strands)
        assert invariants(tuple(moved), moved_strands) == want, (word, moved)
        knots += want["components"] == 1
    # the exact Jones comparison must have run on knots too
    assert knots >= 5
