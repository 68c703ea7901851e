import itertools
import random
from math import gcd, prod

import pytest

from tanglekit.coloring import (
    col_group,
    coloring_matrix,
    count_colorings_brute,
    has_nontrivial_colorings,
    smith_normal_form,
    solution_group,
)
from tanglekit.diagrams import braid, braid_closure, parse_pd, unlink
from tanglekit.errors import InvalidModulus

TREFOIL = parse_pd("X 1 4 2 5\nX 3 6 4 1\nX 5 2 6 3")
FIG8 = braid_closure(braid([1, -2, 1, -2]))
HOPF = braid_closure(braid([1, 1], strands=2))


def minors_gcd_factors(matrix):
    """Independent SNF oracle: d_k = gcd(k-minors) / gcd((k-1)-minors)."""
    rows, cols = len(matrix), len(matrix[0])

    def det(sub):
        n = len(sub)
        if n == 1:
            return sub[0][0]
        total = 0
        for j in range(n):
            minor = [r[:j] + r[j + 1 :] for r in sub[1:]]
            total += (-1) ** j * sub[0][j] * det(minor)
        return total

    factors = []
    prev = 1
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for ri in itertools.combinations(range(rows), k):
            for ci in itertools.combinations(range(cols), k):
                sub = [[matrix[i][j] for j in ci] for i in ri]
                g = gcd(g, det(sub))
        if g == 0:
            break
        factors.append(g // prev)
        prev = g
    return factors


def test_snf_identity():
    assert smith_normal_form([[1, 0], [0, 1]]) == [1, 1]


def test_snf_diagonal():
    assert smith_normal_form([[2, 0], [0, 4]]) == [2, 4]


def test_snf_chain_property_random():
    rng = random.Random(11)
    for _ in range(60):
        m = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(4)]
        factors = smith_normal_form(m)
        for a, b in zip(factors, factors[1:]):
            assert b % a == 0
        assert factors == minors_gcd_factors(m)


def test_snf_rectangular_random():
    rng = random.Random(13)
    for _ in range(40):
        r, c = rng.randint(1, 4), rng.randint(1, 4)
        m = [[rng.randint(-4, 4) for _ in range(c)] for _ in range(r)]
        assert smith_normal_form(m) == minors_gcd_factors(m)


def test_coloring_matrix_row_sums():
    for d in (TREFOIL, FIG8, HOPF):
        assert all(s == 0 for s in coloring_matrix(d).row_sums())


def test_coloring_matrix_shapes():
    assert coloring_matrix(unlink(1)).rows == ()
    assert coloring_matrix(unlink(1)).cols == 1
    m = coloring_matrix(TREFOIL)
    assert len(m.rows) == 3 and m.cols == 3
    for row in m.rows:
        assert sorted(row) == [-2, 1, 1]


def test_col_group_unlinks():
    for n in range(2, 8):
        for m in range(1, 5):
            assert col_group(unlink(m), n).cyclic_orders == (n,) * m


def test_col_group_examples():
    assert col_group(FIG8, 5).cyclic_orders == (5, 5)
    assert col_group(TREFOIL, 5).cyclic_orders == (5,)
    assert col_group(TREFOIL, 3).order == 9


def test_invalid_modulus():
    with pytest.raises(InvalidModulus):
        col_group(TREFOIL, 1)
    with pytest.raises(InvalidModulus):
        count_colorings_brute(TREFOIL, 0)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize(
    "diagram", [TREFOIL, FIG8, HOPF, unlink(2)], ids=["trefoil", "4_1", "hopf", "U2"]
)
def test_snf_matches_brute_force(diagram, n):
    assert col_group(diagram, n).order == count_colorings_brute(diagram, n)


def test_has_nontrivial_colorings():
    assert not has_nontrivial_colorings(TREFOIL, 5)
    assert has_nontrivial_colorings(FIG8, 5)
    assert not has_nontrivial_colorings(HOPF, 5)
    assert has_nontrivial_colorings(TREFOIL, 3)


def test_coloring_invariant_under_mirror_and_relabel():
    rng = random.Random(5)
    for _ in range(25):
        letters = [rng.choice((-2, -1, 1, 2)) for _ in range(rng.randint(1, 9))]
        d = braid_closure(braid(letters, 3))
        perm = list(range(d.arc_count))
        rng.shuffle(perm)
        lines = [
            "X " + " ".join(str(perm[a]) for a in quad) for quad in d.crossings
        ]
        if d.unknotted_split_circles:
            lines.append(f"O {d.unknotted_split_circles}")
        relabeled = parse_pd("\n".join(lines))
        for n in (3, 4, 5):
            assert col_group(d, n) == col_group(d.mirror(), n)
            assert col_group(d, n) == col_group(relabeled, n)


def test_power_insertion_preserves_coloring():
    rng = random.Random(17)
    for _ in range(60):
        letters = [rng.choice((-2, -1, 1, 2)) for _ in range(rng.randint(1, 10))]
        n = rng.choice((3, 4, 5))
        pos = rng.randint(0, len(letters))
        gen = rng.choice((1, 2)) * rng.choice((1, -1))
        inserted = letters[:pos] + [gen] * n + letters[pos:]
        before = col_group(braid_closure(braid(letters, 3)), n)
        after = col_group(braid_closure(braid(inserted, 3)), n)
        assert before == after


def test_group_order_is_product_of_orders():
    g = col_group(FIG8, 10)
    assert g.order == prod(g.cyclic_orders)
    for a, b in zip(g.cyclic_orders, g.cyclic_orders[1:]):
        assert b % a == 0


def test_solution_group_is_a_divisor_chain_of_the_solution_count():
    """Random systems: the orders are a divisor chain without 1s, and
    their product counts the solutions found by trying every vector."""
    rng = random.Random(29)
    for _ in range(300):
        rows, cols, n = rng.randint(0, 4), rng.randint(1, 3), rng.randint(2, 12)
        m = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        orders = solution_group(m, cols, n).cyclic_orders
        assert 1 not in orders
        for a, b in zip(orders, orders[1:]):
            assert b % a == 0
        count = sum(
            all(sum(c * x for c, x in zip(r, v)) % n == 0 for r in m)
            for v in itertools.product(range(n), repeat=cols)
        )
        assert prod(orders) == count
