import hashlib
import itertools
import json
import random

import pytest

from tanglekit.errors import NotAGroup, ParseError
from tanglekit.kei import (
    FiniteKei,
    check_axioms,
    core_kei,
    cyclic_group,
    dihedral_kei,
    group_product,
    kei_isomorphic,
    kei_product,
    parse_kei,
    phi_eval,
    trivial_kei,
)


def symmetric_group_table(n):
    perms = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    return tuple(
        tuple(index[tuple(p[q[i]] for i in range(n))] for q in perms) for p in perms
    )


def test_dihedral_formula():
    k = dihedral_kei(3)
    assert k.op(1, 0) == 2  # 2*0 - 1 mod 3


@pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 10])
def test_dihedral_satisfies_axioms(n):
    assert check_axioms(dihedral_kei(n)) == []


def test_trivial_kei_axioms():
    assert check_axioms(trivial_kei(4)) == []


def test_core_of_cyclic_is_dihedral():
    for n in (2, 3, 5, 8):
        assert core_kei(cyclic_group(n)).table == dihedral_kei(n).table


def test_core_of_trivial_group():
    assert core_kei(cyclic_group(1)).size == 1


def test_core_of_symmetric_group():
    k = core_kei(symmetric_group_table(3))
    assert k.size == 6
    assert check_axioms(k) == []


def test_core_rejects_non_group():
    with pytest.raises(NotAGroup):
        core_kei([[0, 0], [0, 0]])
    # associativity failure
    with pytest.raises(NotAGroup):
        core_kei([[0, 1, 2], [1, 2, 2], [2, 0, 1]])
    for table in ([[0, 1], [1]], [[0, 2], [1, 0]]):
        with pytest.raises(NotAGroup, match="not square over 0..n-1"):
            core_kei(table)
    # identity 0 and self-inverses, but (1*1)*2 = 2 != 1*(1*2) = 1
    with pytest.raises(NotAGroup, match="not associative"):
        core_kei([[0, 1, 2], [1, 0, 0], [2, 0, 0]])


def test_axiom_violation_reporting():
    bad = [[1, 0], [1, 1]]  # 0*0 = 1 breaks idempotency
    violations = check_axioms(FiniteKei(tuple(map(tuple, bad))))
    assert (1, 0) in violations


def test_distributivity_violation_reported():
    table = [list(r) for r in dihedral_kei(3).table]
    table[0][1] = 0  # perturb
    violations = check_axioms(FiniteKei(tuple(map(tuple, table))))
    assert any(v[0] == 3 for v in violations)


def perturbed(table, seed, count):
    """`table` with `count` seeded entries overwritten by seeded values."""
    rng = random.Random(seed)
    rows = [list(r) for r in table]
    n = len(rows)
    for _ in range(count):
        rows[rng.randrange(n)][rng.randrange(n)] = rng.randrange(n)
    return FiniteKei(tuple(map(tuple, rows)))


def random_table(n, seed):
    rng = random.Random(seed)
    return FiniteKei(tuple(tuple(rng.randrange(n) for _ in range(n)) for _ in range(n)))


# Recorded from the numpy-vectorised check_axioms this pure version
# replaced: count, SHA-256 of the whole ordered list as compact JSON,
# and its first entries.
AXIOM_GOLDEN = {
    "dihedral7": (
        lambda: perturbed(dihedral_kei(7).table, 7, 2),
        63,
        "76882f7c5d7184ecb42e138683031c1094502f2af90534d2256245a9301d39b7",
        [(1, 0), (2, 0, 0), (2, 1, 3), (2, 5, 3), (3, 0, 0, 0), (3, 0, 1, 0)],
    ),
    "core_z5z5": (
        lambda: perturbed(
            core_kei(group_product(cyclic_group(5), cyclic_group(5))).table, 25, 3
        ),
        359,
        "1c800cb1bf25887d3a18d1d1ea8207491fae7d533865c653cfb2b024013cd384",
        [(2, 6, 0), (2, 24, 0), (2, 9, 20), (2, 11, 20), (2, 1, 24), (2, 17, 24),
         (3, 0, 12, 0), (3, 0, 24, 0)],
    ),
    "random30": (
        lambda: random_table(30, 30),
        26866,
        "6e785acebe41d1f5198b6f04017b67fae762fa309f84023c5ebac35b243f05d8",
        [(1, 0), (1, 1), (1, 2), (1, 3)],
    ),
}


@pytest.mark.parametrize("name", sorted(AXIOM_GOLDEN))
def test_axiom_violations_golden_order(name):
    make, count, digest, head = AXIOM_GOLDEN[name]
    violations = check_axioms(make())
    assert violations[: len(head)] == head
    assert len(violations) == count
    blob = json.dumps([list(v) for v in violations], separators=(",", ":"))
    assert hashlib.sha256(blob.encode()).hexdigest() == digest


@pytest.mark.parametrize("name", sorted(AXIOM_GOLDEN))
def test_axiom_violations_at_columns(name):
    """Restricted to columns, the list is the full one without the (ii)
    and (iii) entries whose right factor lies elsewhere."""
    k = AXIOM_GOLDEN[name][0]()
    full = check_axioms(k)
    rng = random.Random(k.size)
    for count in (0, 1, 3, k.size):
        cols = rng.sample(range(k.size), count)
        want = [v for v in full if v[0] == 1 or v[-1] in cols]
        assert check_axioms(k, cols) == want
        assert check_axioms(k, cols + cols) == want


def test_isomorphism_identity():
    k = dihedral_kei(5)
    assert kei_isomorphic(k, k) is not None


def test_non_isomorphic_same_size():
    assert kei_isomorphic(dihedral_kei(4), trivial_kei(4)) is None


def test_isomorphism_respects_tables():
    k1 = core_kei(group_product(cyclic_group(5), cyclic_group(5)))
    k2 = kei_product(dihedral_kei(5), dihedral_kei(5))
    f = kei_isomorphic(k1, k2)
    assert f is not None
    for a in range(25):
        for b in range(25):
            assert f[k1.op(a, b)] == k2.op(f[a], f[b])


def test_isomorphism_after_relabeling():
    import random

    rng = random.Random(2)
    k = core_kei(symmetric_group_table(3))
    perm = list(range(6))
    rng.shuffle(perm)
    inv = [perm.index(i) for i in range(6)]
    relabeled = FiniteKei(
        tuple(
            tuple(perm[k.op(inv[a], inv[b])] for b in range(6)) for a in range(6)
        )
    )
    assert kei_isomorphic(k, relabeled) is not None


def test_isomorphism_search_depth_is_not_recursion(shallow_stack):
    """Each of the 300 decisions is one search level."""
    k = trivial_kei(300)
    assert kei_isomorphic(k, k) == list(range(300))


@pytest.mark.parametrize(
    "text,value",
    [("a", 0), ("b", 1), ("b*a", -1), ("a*b", 2), ("a*b*a", -2), ("b*a*b", 3),
     ("b*a*b*a", -3), ("a*b*a*b", 4), ("b*a*b*a*b", 5)],
)
def test_phi_values(text, value):
    """Words written with a = 0 and b = 1."""
    assert phi_eval(tuple("ab".index(x) for x in text.split("*"))) == value


def test_phi_alternating_bijection():
    """Alternating left-normed words in 0, 1 hit each integer exactly once
    over lengths up to 12."""
    values = {}
    for length in range(1, 13):
        for first in (0, 1):
            letters = tuple(first if i % 2 == 0 else 1 - first for i in range(length))
            v = phi_eval(letters)
            assert v not in values, (letters, values[v])
            values[v] = letters
    assert len(values) == 24
    # 1-initial odd words give the odd positive values
    for k in range(6):
        assert values[2 * k + 1][0] == 1 and len(values[2 * k + 1]) == 2 * k + 1


def test_phi_rejects_other_letters():
    with pytest.raises(ValueError):
        phi_eval((0, 2))
    with pytest.raises(ValueError):
        phi_eval(())


@pytest.mark.parametrize("size", [3, 5, 6, 8, 10])
def test_derived_left_norm_identity(size):
    """x*(y*z) = ((x*z)*y)*z holds in any Kei."""
    keis = [dihedral_kei(size), trivial_kei(size)]
    if size == 6:
        keis.append(core_kei(symmetric_group_table(3)))
    for k in keis:
        t = k.table
        for x in range(size):
            for y in range(size):
                for z in range(size):
                    assert t[x][t[y][z]] == t[t[t[x][z]][y]][z]


def test_serialize_round_trip():
    k = dihedral_kei(4)
    assert parse_kei(k.serialize()).table == k.table


@pytest.mark.parametrize(
    "text",
    ["", "  \n", "2\n0 x\n1 1\n", "-1\n", "2\n0 0\n1\n", "2\n0 0 1 1 0\n", "2\n0 5\n1 1\n"],
)
def test_parse_kei_rejects_malformed_tables(text):
    with pytest.raises(ParseError):
        parse_kei(text)


@pytest.mark.parametrize("text", ["2\n0 2\n1 1\n", "2\n0 -1\n1 1\n"])
def test_parse_kei_rejects_values_out_of_range(text):
    with pytest.raises(ValueError) as info:
        parse_kei(text)
    assert str(info.value) == "operation table is not square over 0..n-1"


def test_parse_kei_empty_table():
    assert parse_kei("0\n").size == 0
