import random
import time
from math import prod

import pytest

from tanglekit import _enumpy, presentation
from tanglekit.coloring import coloring_matrix, smith_normal_form
from tanglekit.corpus import corpus
from tanglekit.diagrams import LinkDiagram, braid, braid_closure, parse_pd, unlink
from tanglekit.errors import MalformedDiagram, TooLarge
from tanglekit.jones import (
    CyclotomicValue,
    determinant,
    eval_at_fifth_root,
    five_move_obstruction,
    jones,
    jones_at_fifth_root,
    kauffman_bracket,
    writhe,
)
from tanglekit.laurent import LaurentPoly
from tanglekit.tangles import closure_diagram, parse_expr

TREFOIL = braid_closure(braid([1, 1, 1], strands=2))
FIG8 = braid_closure(braid([1, -2, 1, -2]))
HOPF = braid_closure(braid([1, 1], strands=2))
MINUS_S_PAIR = LaurentPoly({1: -1, -1: -1})  # -s - 1/s


def test_bracket_unknot_normalization():
    assert kauffman_bracket(unlink(1)) == LaurentPoly.one()


def test_bracket_hopf():
    # hand expansion of the 4 states: -A^4 - A^-4 up to mirror
    b = kauffman_bracket(HOPF)
    assert b in (LaurentPoly({4: -1, -4: -1}), LaurentPoly({4: -1, -4: -1}))


def test_bracket_trefoil_frozen():
    # frozen from the state expansion; chirality fixed by the closure
    # convention, cross-checked through the Jones values below
    b = kauffman_bracket(TREFOIL)
    assert b in (
        LaurentPoly({7: 1, 3: -1, -5: -1}),
        LaurentPoly({-7: 1, -3: -1, 5: -1}),
    )


def test_bracket_mirror_inverts_variable():
    for d in (TREFOIL, FIG8, HOPF):
        b = kauffman_bracket(d)
        bm = kauffman_bracket(d.mirror())
        assert bm == LaurentPoly({-e: c for e, c in b.coeffs.items()})


def statesum_oracle(crossings, arc_count):
    """Brute-force 2^c state sum: {(#A - #B, circles): multiplicity}."""
    out = {}
    for state in range(1 << len(crossings)):
        parent = list(range(arc_count))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for i, (a, b, c, d) in enumerate(crossings):
            pairs = ((a, d), (b, c)) if state >> i & 1 else ((a, b), (c, d))
            for x, y in pairs:
                parent[find(x)] = find(y)
        key = (len(crossings) - 2 * bin(state).count("1"),
               sum(find(x) == x for x in range(arc_count)))
        out[key] = out.get(key, 0) + 1
    return out


def shuffled(d, rng):
    """The same diagram with its crossings reordered (and some crossing
    tuples rotated by two positions, which names the same crossing)."""
    crossings = [q[2:] + q[:2] if rng.random() < 0.5 else q for q in d.crossings]
    rng.shuffle(crossings)
    return LinkDiagram(tuple(crossings), d.arc_count, d.unknotted_split_circles)


def seeded_closures(rng, max_crossings=12):
    out = []
    for c in range(1, max_crossings + 1):
        for strands in (2, 3, 4):
            gens = [g for g in range(1 - strands, strands) if g]
            out.append(braid_closure(braid([rng.choice(gens) for _ in range(c)], strands)))
    while len(out) < 3 * max_crossings + 20:
        leaves = [f"(tw {rng.choice((-3, -2, -1, 1, 2, 3))} {rng.choice((-2, 1, 2))})"
                  for _ in range(rng.randint(2, 3))]
        expr = leaves[0]
        for leaf in leaves[1:]:
            expr = f"(comp {rng.randint(0, 1)} {rng.randint(0, 1)} {expr} {leaf})"
        d = closure_diagram(parse_expr(expr), "numerator")
        if 0 < d.crossing_count <= max_crossings:
            out.append(d)
    return out


def test_bracket_statesum_matches_oracle():
    """Both kernels' state sums, the compiled one whenever it is built."""
    kernels = presentation.KERNELS.values()
    rng = random.Random(2005)
    diagrams = [d for d in corpus().values() if d.crossing_count]
    diagrams += [parse_pd("X 0 1 1 0"), parse_pd("X 0 1 1 0\nX 2 3 3 2")]
    diagrams += seeded_closures(rng)
    for d in diagrams:
        want = statesum_oracle(d.crossings, d.arc_count)
        for copy in (d, shuffled(d, rng), shuffled(d, rng)):
            for kernel in kernels:
                assert kernel.bracket_statesum(copy.crossings, copy.arc_count) == want


@pytest.mark.parametrize("crossings,arc_count,error,message", [
    ([(0, 0, 0, 0)] * 63, 1, ValueError, "the state sum takes at most 62 crossings"),
    ([], -1, ValueError, "arc count out of range"),
    ([(0, 1, 1)], 2, TypeError, "crossing() takes exactly 4 arguments (3 given)"),
    ([(0, 1, 1, 2)], 2, ValueError, "arc label out of range"),
    ([(0, 1, 1, -1)], 2, ValueError, "arc label out of range"),
])
def test_compiled_statesum_refuses_bad_input(crossings, arc_count, error, message):
    if "compiled" not in presentation.KERNELS:
        pytest.skip("compiled kernel not built")
    with pytest.raises(error) as info:
        presentation.KERNELS["compiled"].bracket_statesum(crossings, arc_count)
    assert str(info.value) == message


def test_bracket_split_circles():
    delta = LaurentPoly({2: -1, -2: -1})
    for d in (parse_pd("X 0 1 1 0"), TREFOIL, FIG8):
        for k in (1, 2, 3):
            with_circles = LinkDiagram(d.crossings, d.arc_count, k)
            assert kauffman_bracket(with_circles) == kauffman_bracket(d) * delta ** k


def test_bracket_many_split_circles(shallow_stack):
    """delta^k written out by the binomial theorem, not a recursion per
    circle."""
    d = LinkDiagram(parse_pd("X 0 1 1 0").crossings, 2, 300)
    assert jones(d) == MINUS_S_PAIR ** 300


def test_bracket_cap():
    # 17 crossings, but the frontier is only 4 arcs wide
    big = braid_closure(braid([1] * 17, strands=2))
    assert sum(jones(big).coeffs.values()) == 1  # V(1) of a knot
    assert determinant(big) == 17


def test_bracket_cap_refuses_wide_diagram_before_contracting(monkeypatch):
    wide = braid_closure(braid(list(range(1, 10)) * 10))  # frontier width 20
    order_of = _enumpy.contraction_order

    def no_contraction():
        raise AssertionError("contraction started on a diagram over the cap")
        yield

    # the order's frontiers are real, but walking the order fails
    monkeypatch.setattr(
        _enumpy, "contraction_order", lambda c: (no_contraction(), order_of(c)[1])
    )
    with pytest.raises(TooLarge, match="^frontier width 20 exceeds the bracket cap 16$"):
        kauffman_bracket(wide)


def test_bracket_computes_one_contraction_order(monkeypatch):
    order_of = _enumpy.contraction_order
    calls = []
    monkeypatch.setattr(
        _enumpy, "contraction_order", lambda c: calls.append(c) or order_of(c)
    )
    assert kauffman_bracket(FIG8) == LaurentPoly({8: 1, 4: -1, 0: 1, -4: -1, -8: 1})
    assert calls == [FIG8.crossings]


def test_bracket_forty_crossing_three_braid():
    rng = random.Random(40)
    d = braid_closure(braid([rng.choice((-2, -1, 1, 2)) for _ in range(40)], 3))
    t0 = time.perf_counter()
    det = determinant(d)
    assert time.perf_counter() - t0 < 1.0
    factors = smith_normal_form(coloring_matrix(d).rows)
    assert len(factors) == coloring_matrix(d).cols - 1
    assert det == prod(factors)


def test_bracket_kinked_unknot():
    kink = parse_pd("X 0 1 1 0")
    assert kauffman_bracket(kink) in (
        LaurentPoly({3: -1}),
        LaurentPoly({-3: -1}),
    )
    assert jones(kink) == LaurentPoly.one()


def test_writhe_values():
    assert writhe(unlink(2)) == 0
    assert abs(writhe(TREFOIL)) == 3
    assert writhe(FIG8) == 0
    assert writhe(TREFOIL) == -writhe(TREFOIL.mirror())


def test_jones_unknot():
    assert jones(unlink(1)) == LaurentPoly.one()


@pytest.mark.parametrize("n", range(1, 6))
def test_jones_unlinks_formula(n):
    assert jones(unlink(n)) == MINUS_S_PAIR ** (n - 1)
    assert not jones_at_fifth_root(unlink(n)).is_zero()


def test_jones_figure_eight_exact():
    # t^2 - t + 1 - 1/t + 1/t^2 written in s = sqrt(t)
    assert jones(FIG8) == LaurentPoly({4: 1, 2: -1, 0: 1, -2: -1, -4: 1})


def test_jones_trefoil_classical():
    v = jones(TREFOIL)
    classical = LaurentPoly({-2: 1, -6: 1, -8: -1})  # 1/t + 1/t^3 - 1/t^4
    mirror = LaurentPoly({2: 1, 6: 1, 8: -1})
    assert v in (classical, mirror)


def test_jones_knot_orientation_stable():
    for d in (TREFOIL, FIG8):
        assert jones(d, (True,)) == jones(d)


def test_jones_integer_powers_of_t_for_knots():
    for d in (TREFOIL, FIG8):
        assert all(e % 2 == 0 for e in jones(d).coeffs)


def test_fifth_root_of_figure_eight_is_zero():
    assert jones_at_fifth_root(FIG8).is_zero()


def test_fifth_root_constant_one():
    value = eval_at_fifth_root(LaurentPoly.one())
    assert value.coords == (1, 0, 0, 0, 0, 0, 0, 0)
    assert not value.is_zero()


def test_cyclotomic_ring_arithmetic():
    s = eval_at_fifth_root(LaurentPoly.var(1))
    prod = CyclotomicValue.one()
    for _ in range(20):
        prod = prod * s
    assert prod == CyclotomicValue.one()  # s has order 20
    ten = CyclotomicValue.one()
    for _ in range(10):
        ten = ten * s
    assert ten.coords == (-1, 0, 0, 0, 0, 0, 0, 0)  # s^10 = -1, so t^5 = -1


def test_cyclotomic_addition_is_evaluation_of_the_sum():
    p, q = LaurentPoly({3: 2, -1: 1}), LaurentPoly({12: 1, 0: 3})
    total = eval_at_fifth_root(p) + eval_at_fifth_root(q)
    assert total == eval_at_fifth_root(p + q)
    assert not total.is_zero()
    one = CyclotomicValue.one()
    assert (one + one).coords == (2, 0, 0, 0, 0, 0, 0, 0)
    assert total + CyclotomicValue.zero() == total
    assert CyclotomicValue.zero().is_zero()


def test_laurent_int_operands():
    p = LaurentPoly({1: 2, -1: 1})  # 2s + s^-1
    assert p + 1 == 1 + p == LaurentPoly({1: 2, 0: 1, -1: 1})
    assert p - 1 == LaurentPoly({1: 2, 0: -1, -1: 1})
    assert (1 - p).format("s") == "-2*s + 1 - s^-1"
    assert 3 * p == p * 3 == LaurentPoly({1: 6, -1: 3})
    assert LaurentPoly.one() == 1
    assert p - p == 0
    assert p != 0
    for n in (-3, 0, 1, 5):  # an int acts as the constant polynomial
        c = LaurentPoly({0: n})
        assert p + n == p + c and n + p == c + p
        assert p - n == p - c and n - p == c - p
        assert p * n == p * c and n * p == c * p
        assert c == n and p != n


def test_laurent_zero_hash_repr_and_foreign_equality():
    zero, p = LaurentPoly.zero(), LaurentPoly({2: 1, 0: -3})
    assert zero.is_zero() and not zero and zero.format("s") == "0"
    assert not p.is_zero() and p
    assert repr(p) == "LaurentPoly(t^2 - 3)" and repr(zero) == "LaurentPoly(0)"
    same = LaurentPoly({0: -3, 2: 1, 5: 0})  # another build of p
    assert same == p and hash(same) == hash(p)
    assert {p: "p", zero: "zero"}[same] == "p"
    for foreign in ("t^2 - 3", None, 1.5, (2, 0)):
        assert (p == foreign) is False and p != foreign


def test_laurent_negative_power_is_refused():
    """Every negative power is refused, a monomial's too."""
    for p in (LaurentPoly.var(1), LaurentPoly({1: 2, -1: 1})):
        with pytest.raises(ValueError, match="^negative powers are not supported$"):
            p ** -1


def test_cyclotomic_reduction_matches_polynomial_division():
    # s^8 - s^6 + s^4 - s^2 + 1 reduces to zero
    phi20 = LaurentPoly({8: 1, 6: -1, 4: 1, 2: -1, 0: 1})
    assert eval_at_fifth_root(phi20).is_zero()


def test_verdicts():
    assert five_move_obstruction(FIG8) == "not-5-move-trivializable"
    assert five_move_obstruction(TREFOIL) == "inconclusive"
    assert five_move_obstruction(unlink(1)) == "inconclusive"


def test_zeroness_invariant_under_fifth_power_insertion():
    rng = random.Random(4)
    for _ in range(50):
        word = [rng.choice((-2, -1, 1, 2)) for _ in range(rng.randint(0, 8))]
        pos = rng.randint(0, len(word))
        gen = rng.choice((1, 2)) * rng.choice((1, -1))
        inserted = word[:pos] + [gen] * 5 + word[pos:]
        before = jones_at_fifth_root(braid_closure(braid(word, 3))).is_zero()
        after = jones_at_fifth_root(braid_closure(braid(inserted, 3))).is_zero()
        assert before == after


def test_link_zeroness_stable_across_orientations():
    link = braid_closure(braid([1, 1, -2] * 3))  # two components
    flags = [(a, b) for a in (False, True) for b in (False, True)]
    values = {jones_at_fifth_root_with(link, f) for f in flags}
    assert values == {False}
    hopf_values = {jones_at_fifth_root_with(HOPF, f) for f in flags}
    assert hopf_values == {False}


def jones_at_fifth_root_with(d, orientation):
    return eval_at_fifth_root(jones(d, orientation)).is_zero()


def test_random_pd_codes_are_refused_or_have_a_determinant():
    """A PD code that no plane diagram has is refused, so every code that
    parses has a Jones value at -1 that is real or purely imaginary."""
    rng = random.Random(2005)
    refused = 0
    for _ in range(400):
        c = rng.randint(1, 6)
        arcs = [a for a in range(2 * c) for _ in (0, 1)]
        rng.shuffle(arcs)
        text = "\n".join(
            "X " + " ".join(map(str, arcs[i:i + 4])) for i in range(0, 4 * c, 4))
        try:
            d = parse_pd(text)
        except MalformedDiagram:
            refused += 1
            continue
        assert isinstance(determinant(d), int)
    assert 0 < refused < 400


def test_determinants():
    assert determinant(unlink(1)) == 1
    assert determinant(HOPF) == 2
    assert determinant(TREFOIL) == 3
    assert determinant(FIG8) == 5
    assert determinant(braid_closure(braid([1, -2] * 4))) == 45
