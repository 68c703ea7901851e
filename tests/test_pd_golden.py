"""PD output pinned to recorded values.

Arc numbering decides the generator order of a Kei presentation and so
the enumerated tables; these records fix the numbering that braid
closures, tangle closures and open tangles produce.
"""

import hashlib
import random

from tanglekit.diagrams import braid, braid_closure
from tanglekit.tangles import (
    Comp,
    Leaf,
    TwistLeaf,
    closure_diagram,
    parse_expr,
    tangle_diagram,
)


def seeded_braids(seed: int, count: int):
    rng = random.Random(seed)
    for _ in range(count):
        strands = rng.randint(1, 6)
        letters = []
        if strands > 1:
            for _ in range(rng.randint(0, 10)):
                letters.append(rng.choice((1, -1)) * rng.randint(1, strands - 1))
        yield braid(letters, strands)


def seeded_expr(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.35:
            return Leaf("t0")
        if roll < 0.5:
            return Leaf("tinf")
        if roll < 0.7:
            return Leaf(rng.choice(("x+", "x-")))
        twists = (rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(rng.randint(1, 3)))
        return TwistLeaf(tuple(twists))
    return Comp(
        rng.randint(0, 1),
        rng.randint(0, 1),
        seeded_expr(rng, depth - 1),
        seeded_expr(rng, depth - 1),
    )


def digest(texts) -> str:
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode() + b"\0")
    return h.hexdigest()


def test_braid_closure_text():
    assert braid_closure(braid([1, 2, -1, 2], 3)).serialize() == (
        "X 0 1 2 3\nX 4 3 5 6\nX 2 1 7 5\nX 6 7 0 4\n"
    )
    # strand 4 is untouched and closes into a split circle
    assert braid_closure(braid([1, -2, 1], 4)).serialize() == (
        "X 0 1 2 3\nX 3 4 5 5\nX 4 2 1 0\nO 1\n"
    )


def test_seeded_braid_closures():
    texts = [braid_closure(w).serialize() for w in seeded_braids(2005, 400)]
    assert sum("O " in t for t in texts) == 211
    assert digest(texts) == "e9f349513e2761880e0dbe65e41df14274c9c81ad3f9137f3140b0126c677f24"


def test_tangle_closure_text():
    expr = parse_expr("(comp 0 1 (tw 2 2) (comp 1 0 x+ (tw -1 3)))")
    assert closure_diagram(expr, "numerator").serialize() == (
        "X 0 1 2 3\nX 4 5 1 0\nX 5 6 7 2\nX 6 8 9 7\nX 10 11 8 4\n"
        "X 12 13 11 10\nX 12 14 15 13\nX 14 16 17 15\nX 16 3 9 17\n"
    )
    assert closure_diagram(expr, "denominator").serialize() == (
        "X 0 1 2 3\nX 3 4 1 0\nX 4 5 6 2\nX 5 7 8 6\nX 9 10 7 11\n"
        "X 12 13 10 9\nX 12 14 15 13\nX 14 16 17 15\nX 16 11 8 17\n"
    )


def test_seeded_tangle_closures():
    rng = random.Random(129)
    exprs = [seeded_expr(rng, 4) for _ in range(300)]
    want = {
        "numerator": "591c7907f32dcd04ea6a41e17c46c0846c6e758963dc871940a44c1b14cf3b6d",
        "denominator": "b5fd3215747aa43e80d15772b1f773d2e13ef66b994ab33b30d0c3ac72a28127",
    }
    for kind, expected in want.items():
        assert digest(closure_diagram(e, kind).serialize() for e in exprs) == expected


def test_open_tangle_boundary_and_circles():
    # the two tinf leaves compose into one circle; arc 9 runs NW to SW
    expr = parse_expr("(comp 0 0 (comp 0 0 tinf tinf) (comp 1 0 (tw 2 -1) x-))")
    td = tangle_diagram(expr)
    assert td.crossings == ((0, 1, 2, 3), (4, 5, 1, 0), (6, 3, 2, 5), (7, 8, 6, 4))
    assert td.arc_count == 10
    assert td.boundary == (9, 8, 9, 7)
    assert td.circles == 1


# open PD (crossings, arcs, boundary, circles), numerator and
# denominator closure of each zero-crossing twist word and each leaf
LEAF_PD = {
    "(tw)": ((), 2, (0, 0, 1, 1), 0, "O 2\n", "O 1\n"),
    "(tw 0)": ((), 2, (0, 0, 1, 1), 0, "O 2\n", "O 1\n"),
    "(tw 0 0)": ((), 2, (0, 1, 0, 1), 0, "O 1\n", "O 2\n"),
    "t0": ((), 2, (0, 0, 1, 1), 0, "O 2\n", "O 1\n"),
    "tinf": ((), 2, (0, 1, 0, 1), 0, "O 1\n", "O 2\n"),
    "x+": (((0, 1, 2, 3),), 4, (3, 2, 0, 1), 0, "X 0 0 1 1\n", "X 0 1 1 0\n"),
    "x-": (((0, 1, 2, 3),), 4, (2, 1, 3, 0), 0, "X 0 1 1 0\n", "X 0 0 1 1\n"),
    "(tw 3 0 -2)": (
        ((0, 1, 2, 3), (1, 4, 5, 2), (4, 6, 7, 5), (8, 9, 7, 6), (10, 11, 9, 8)),
        12, (3, 11, 0, 10), 0,
        "X 0 1 2 3\nX 1 4 5 2\nX 4 6 7 5\nX 8 9 7 6\nX 0 3 9 8\n",
        "X 0 1 2 0\nX 1 3 4 2\nX 3 5 6 4\nX 7 8 6 5\nX 9 9 8 7\n",
    ),
}


def test_leaf_and_zero_twist_pd():
    for text, (crossings, arcs, boundary, circles, num, den) in LEAF_PD.items():
        expr = parse_expr(text)
        td = tangle_diagram(expr)
        assert (td.crossings, td.arc_count, td.boundary, td.circles) == (
            crossings, arcs, boundary, circles), text
        assert closure_diagram(expr, "numerator").serialize() == num, text
        assert closure_diagram(expr, "denominator").serialize() == den, text
