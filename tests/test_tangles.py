import itertools
import random

import pytest

from tanglekit.coloring import col_group, count_colorings_brute
from tanglekit.diagrams import braid, braid_closure, parse_pd, unlink
from tanglekit.errors import InvalidMoveSite, ParseError
from tanglekit.jones import determinant, kauffman_bracket, writhe
from tanglekit.kei import kei_isomorphic, dihedral_kei
from tanglekit.presentation import enumerate_kei, fundamental_kei
from tanglekit.tangles import (
    MAX_CROSSINGS,
    Comp,
    Leaf,
    RationalTangle,
    T0,
    TINF,
    TwistLeaf,
    XMINUS,
    XPLUS,
    apply_rational_move,
    cf_expand,
    closure_diagram,
    embedding_obstruction,
    fraction_of_twists,
    leaf_sites,
    parse_expr,
    rotate,
    serialize_expr,
    tangle_coloring_counts,
    tangle_diagram,
)

TREFOIL = parse_pd("X 1 4 2 5\nX 3 6 4 1\nX 5 2 6 3")
HOPF = braid_closure(braid([1, 1], strands=2))
FIG8 = braid_closure(braid([1, -2, 1, -2]))


def test_fraction_examples():
    assert fraction_of_twists([]).fraction() == (0, 1)
    assert fraction_of_twists([2, 2]).fraction() == (5, 2)
    for n in (-3, 1, 4):
        assert fraction_of_twists([n]).fraction() == (n, 1)


def test_fraction_reduction():
    assert fraction_of_twists([2, 2, 0]).fraction() == (2, 5)


def test_fraction_str():
    assert str(RationalTangle.make(3, 0)) == "inf"
    assert str(RationalTangle.make(4, -6)) == "-2/3"
    assert str(RationalTangle.make(-10, -4)) == "5/2"
    assert str(fraction_of_twists([])) == "0/1"


def test_rotate_examples():
    assert rotate(RationalTangle.make(0, 1)).is_infinity
    assert rotate(RationalTangle.make(5, 2)).fraction() == (-2, 5)
    assert rotate(RationalTangle.make(1, 0)).fraction() == (0, 1)


def test_equal_fractions_compare_equal():
    """A rational tangle is its fraction (Conway), whichever twist word
    or rotation produced it."""
    assert fraction_of_twists([2, 2]) == RationalTangle.make(5, 2)
    assert fraction_of_twists([1, 1, 2]) == fraction_of_twists([2, 2])
    assert rotate(RationalTangle.make(-2, 5)) == RationalTangle.make(5, 2)


def test_rotate_involution():
    rng = random.Random(6)
    for _ in range(30):
        p, q = rng.randint(-9, 9), rng.randint(0, 9)
        t = RationalTangle.make(p, q)
        assert rotate(rotate(t)).fraction() == t.fraction()


def test_cf_expand_inverts_fraction():
    for p, q in ((5, 2), (2, 5), (7, 3), (-5, 2), (1, 1), (0, 1), (9, 7)):
        word = cf_expand(p, q)
        assert fraction_of_twists(word).fraction() == RationalTangle.make(p, q).fraction()


def test_closure_conventions():
    num = closure_diagram(T0, "numerator")
    den = closure_diagram(T0, "denominator")
    assert num.component_count() == 2 and num.crossing_count == 0
    assert den.component_count() == 1
    assert closure_diagram(TINF, "numerator").component_count() == 1
    assert closure_diagram(TINF, "denominator").component_count() == 2


def test_rotation_swaps_closures():
    rng = random.Random(8)

    def random_expr(depth):
        if depth == 0 or rng.random() < 0.4:
            return rng.choice(
                [T0, TINF, XPLUS, XMINUS, TwistLeaf((rng.choice((-2, -1, 1, 2)),))]
            )
        return Comp(rng.randint(0, 1), rng.randint(0, 1),
                    random_expr(depth - 1), random_expr(depth - 1))

    for _ in range(40):
        e = random_expr(2)
        # composing with the 0-tangle on the right leaves closures alone,
        # so this realizes the numerator closure of r(e)
        rotated = Comp(1, 0, e, T0)
        n_rot = closure_diagram(rotated, "numerator")
        d_orig = closure_diagram(e, "denominator")
        assert n_rot.component_count() == d_orig.component_count()
        for n in (3, 5):
            assert col_group(n_rot, n) == col_group(d_orig, n)


def test_five_halves_closure_invariants():
    d = closure_diagram(TwistLeaf((2, 2)), "numerator")
    assert d.crossing_count == 4
    assert d.component_count() == 1
    assert col_group(d, 5).order == 25
    assert count_colorings_brute(d, 5) == 25
    assert determinant(d) == 5
    r = enumerate_kei(fundamental_kei(d), cap=500)
    assert r.size == 5
    assert kei_isomorphic(r.kei, dihedral_kei(5)) is not None


def test_numerator_of_three_twists_is_trefoil():
    d = closure_diagram(TwistLeaf((3,)), "numerator")
    assert d.crossing_count == 3
    assert col_group(d, 3).order == 9
    assert determinant(d) == 3


def test_fraction_determinant_functoriality():
    for length in (1, 2, 3):
        for word in itertools.product((-3, -2, -1, 1, 2, 3), repeat=length):
            fr = fraction_of_twists(word)
            d = closure_diagram(TwistLeaf(word), "numerator")
            assert determinant(d) == abs(fr.p), word


def test_two_bridge_coloring_order_from_fraction():
    """|Col_5| of the numerator closure of p/q is 5 * gcd(5, p); in
    particular nontrivial colorings appear exactly when 5 divides p != 0."""
    from math import gcd

    for length in range(1, 5):
        for word in itertools.product((-2, -1, 1, 2), repeat=length):
            fr = fraction_of_twists(word)
            d = closure_diagram(TwistLeaf(word), "numerator")
            assert col_group(d, 5).order == 5 * gcd(5, fr.p), word
            if fr.p % 2:  # knot closures: nontrivial iff 5 divides p
                nontrivial = col_group(d, 5).order > 5 ** d.component_count()
                assert nontrivial == (fr.p % 5 == 0), word


def test_apply_move_examples():
    moved = apply_rational_move(T0, (), 5, 2, 1)
    assert moved == TwistLeaf((2, 2))
    moved = apply_rational_move(T0, (), 5, 1, 1)
    assert moved == TwistLeaf((5,))
    moved = apply_rational_move(T0, (), 5, 2, -1)
    assert moved == TwistLeaf((-2, -2))


def test_apply_move_in_tree():
    tree = Comp(0, 1, T0, XPLUS)
    moved = apply_rational_move(tree, (0,), 5, 2, 1)
    assert moved == Comp(0, 1, TwistLeaf((2, 2)), XPLUS)


def test_apply_move_bad_site():
    with pytest.raises(InvalidMoveSite):
        apply_rational_move(XPLUS, (), 5, 2, 1)
    with pytest.raises(InvalidMoveSite):
        apply_rational_move(Comp(0, 0, T0, XPLUS), (1,), 5, 2, 1)
    for site in ((2,), (-1,)):
        with pytest.raises(InvalidMoveSite):
            apply_rational_move(Comp(0, 0, XPLUS, T0), site, 5, 2, 1)
    with pytest.raises(InvalidMoveSite, match="walks past a leaf"):
        apply_rational_move(Comp(0, 0, XPLUS, T0), (1, 0), 5, 2, 1)
    with pytest.raises(ValueError):
        apply_rational_move(T0, (), 4, 2, 1)  # not a reduced fraction
    with pytest.raises(ValueError, match="sign must be"):
        apply_rational_move(T0, (), 5, 2, sign=2)


def test_move_preserves_colorings():
    rng = random.Random(12)

    def random_expr(depth):
        if depth == 0 or rng.random() < 0.3:
            return rng.choice([T0, T0, TINF, XPLUS, XMINUS])
        return Comp(rng.randint(0, 1), rng.randint(0, 1),
                    random_expr(depth - 1), random_expr(depth - 1))

    tested = 0
    while tested < 60:
        e = random_expr(3)
        sites = leaf_sites(e, "t0")
        if not sites:
            continue
        moved = apply_rational_move(e, rng.choice(sites), 5, 2, rng.choice((1, -1)))
        for kind in ("numerator", "denominator"):
            assert col_group(closure_diagram(e, kind), 5) == col_group(
                closure_diagram(moved, kind), 5
            )
        tested += 1


def test_obstruction_with_split_circle():
    cand = Comp(0, 0, TwistLeaf((2, 2)), Comp(0, 0, TINF, TINF))
    assert tangle_diagram(cand).circles == 1
    for target in (unlink(1), HOPF, TREFOIL):
        assert embedding_obstruction(cand, target, 5) == "obstructed"
    assert embedding_obstruction(cand, FIG8, 5) == "inconclusive"


def test_obstruction_trivial_tangle():
    assert embedding_obstruction(T0, unlink(1), 5) == "inconclusive"


def test_obstruction_rational_tangle_alone():
    assert embedding_obstruction(TwistLeaf((2, 2)), FIG8, 5) == "inconclusive"
    assert embedding_obstruction(TwistLeaf((2, 2)), unlink(1), 5) == "inconclusive"


def test_tangle_coloring_counts():
    total, pinned = tangle_coloring_counts(T0, 5)
    assert total == 25 and pinned == 1
    total, pinned = tangle_coloring_counts(TwistLeaf((2, 2)), 5)
    assert total == 25 and pinned == 1
    total, pinned = tangle_coloring_counts(
        Comp(0, 0, T0, Comp(0, 0, TINF, TINF)), 5
    )
    assert total == 125 and pinned == 5  # free circle survives pinning


def test_expr_parse_round_trip():
    exprs = [
        T0,
        Comp(1, 0, TwistLeaf((2, -1)), Comp(0, 1, T0, XMINUS)),
        TwistLeaf((2, 2)),
    ]
    for e in exprs:
        assert parse_expr(serialize_expr(e)) == e


@pytest.mark.parametrize("text,message", [
    ("", "unexpected end of tangle expression"),
    ("(comp 0 0 t0", "unexpected end of tangle expression"),
    ("(comp 0 0 t0 t0 t0)", "missing ')' in comp node"),
    ("(tw 1 x)", "bad tangle expression '(tw 1 x)'"),
    ("(tw 1", "bad tangle expression '(tw 1'"),
    ("(comp 2 0 t0 t0)", "bad tangle expression '(comp 2 0 t0 t0)'"),
    ("t0 t0", "trailing tokens in tangle expression"),
    ("t1", "unexpected token 't1'"),
    ("(comp 0 0 t0)", "unexpected token ')'"),
    ("(frob 1)", "unknown node 'frob'"),
    (f"(tw {MAX_CROSSINGS + 1})",
     f"tangle expression has more than {MAX_CROSSINGS} crossings"),
    (f"(tw -{MAX_CROSSINGS - 400} -401)",
     f"tangle expression has more than {MAX_CROSSINGS} crossings"),
    # x+ and x- leaves are crossings too
    (f"(comp 0 0 (tw {MAX_CROSSINGS - 1} 1) x-)",
     f"tangle expression has more than {MAX_CROSSINGS} crossings"),
    ("(tw 99999999999)", f"tangle expression has more than {MAX_CROSSINGS} crossings"),
])
def test_parse_expr_errors(text, message):
    with pytest.raises(ParseError) as info:
        parse_expr(text)
    assert str(info.value) == message


@pytest.mark.parametrize("call,message", [
    (lambda: kauffman_bracket(unlink(0)), "the empty diagram has no bracket"),
    (lambda: writhe(HOPF, (True,)), "need 2 orientation flags"),
    (lambda: dihedral_kei(0), "n must be positive"),
    (lambda: cf_expand(1, 0), "cf_expand needs a finite fraction with q >= 1"),
    (lambda: Leaf("x"), "unknown leaf 'x'"),
    (lambda: closure_diagram(T0, "sideways"),
     "closure kind must be numerator or denominator, got 'sideways'"),
], ids=["bracket-empty", "writhe-flags", "dihedral-0", "cf-q0", "leaf-kind",
        "closure-kind"])
def test_arguments_out_of_range_raise_value_error(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_crossing_bound_is_accepted():
    for text in (f"(tw {MAX_CROSSINGS})",
                 f"(comp 0 0 (tw -{MAX_CROSSINGS - 2}) (comp 0 0 x+ x-))"):
        assert closure_diagram(parse_expr(text)).crossing_count == MAX_CROSSINGS


def test_algebraic_links_have_elementary_coloring():
    """Closures of tangle expressions are built from rational pieces, so
    their 5-coloring groups are elementary abelian."""
    rng = random.Random(14)

    def random_expr(depth):
        if depth == 0 or rng.random() < 0.3:
            return rng.choice([T0, TINF, XPLUS, XMINUS])
        return Comp(rng.randint(0, 1), rng.randint(0, 1),
                    random_expr(depth - 1), random_expr(depth - 1))

    for _ in range(80):
        d = closure_diagram(random_expr(3), "numerator")
        g = col_group(d, 5)
        assert all(order == 5 for order in g.cyclic_orders)
        assert g.order >= 5
