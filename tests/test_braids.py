import hashlib
import json
import random

import pytest

from tanglekit import braids
from tanglekit.braids import (
    braids_equal,
    burau_image,
    conjugacy_census,
    coxeter_quotient,
    quotient_image,
    verify_reduction_chains,
)
from tanglekit.diagrams import braid
from tanglekit.errors import UnsupportedStrandCount
from tanglekit.laurent import LaurentPoly


def w(letters):
    return braid(letters, strands=3)


@pytest.fixture(scope="module")
def mult():
    """The quotient's full multiplication table, mult[x][y] = x y,
    built by following each representative word through `times`."""
    q = coxeter_quotient()
    return [[q.times(x, q.words[y]) for y in range(q.order)] for x in range(q.order)]


def test_quotient_golden_digest(mult):
    """Recorded from an earlier numpy-built multiplication table and
    kept unchanged through every later build of the quotient; the
    table is rebuilt here through `times`."""
    q = coxeter_quotient()
    blob = json.dumps([mult, [list(x) for x in q.words], q.s1, q.s2], separators=(",", ":"))
    assert (
        hashlib.sha256(blob.encode()).hexdigest()
        == "90bcaf45f9c728833c512170e80eba55b57bfb53082c41c9a139126e51f9c72f"
    )


def test_braid_relation():
    assert braids_equal(w([1, 2, 1]), w([2, 1, 2]))


def test_burau_unit_determinant():
    rng = random.Random(1)
    for _ in range(20):
        word = [rng.choice((-2, -1, 1, 2)) for _ in range(rng.randint(0, 10))]
        det = burau_image(w(word)).det()
        assert len(det.coeffs) == 1 and abs(next(iter(det.coeffs.values()))) == 1


def test_burau_multiplicative():
    rng = random.Random(2)
    for _ in range(20):
        u = [rng.choice((-2, -1, 1, 2)) for _ in range(rng.randint(0, 6))]
        v = [rng.choice((-2, -1, 1, 2)) for _ in range(rng.randint(0, 6))]
        assert burau_image(w(u)) * burau_image(w(v)) == burau_image(w(u + v))


def test_burau_inverses_cancel():
    assert burau_image(w([1, -1, 2, -2])) == burau_image(w([]))


def test_burau_strand_guard():
    with pytest.raises(UnsupportedStrandCount):
        burau_image(braid([1], strands=2))
    with pytest.raises(UnsupportedStrandCount, match="defined for 3-braids"):
        coxeter_quotient().image(braid([3], strands=4))


def test_reduction_chain_word_identity():
    lhs = w([-1, -1, 2] * 3)
    rhs = w([-1, -1, 2, -1, -1, -1, -2, -2, 1, 2, 2])
    assert braids_equal(lhs, rhs)


def test_full_twist_power_commutes():
    center = w([1, 2] * 6)
    for g in ([1], [2]):
        assert braids_equal(center * w(g), w(g) * center)


def test_quotient_order_600():
    assert coxeter_quotient().order == 600


def test_generator_fifth_power_trivial():
    q = coxeter_quotient()
    assert q.image(w([1] * 5)) == 0
    assert q.image(w([2] * 5)) == 0


def test_quotient_satisfies_the_presentation():
    q = coxeter_quotient()
    for x in range(q.order):
        assert q.times(x, (1, 2, 1)) == q.times(x, (2, 1, 2))
        assert q.times(x, (1,) * 5) == x and q.times(x, (2,) * 5) == x
    columns = list(zip(*q.action))
    for col in columns:
        assert sorted(col) == list(range(q.order))
    for s, s_inv in (columns[0:2], columns[2:4]):
        assert all(s_inv[s[x]] == x for x in range(q.order))
    # a fresh build, past the cache, gives the same group
    assert coxeter_quotient.__wrapped__() == q


def test_census_counts():
    census = conjugacy_census(coxeter_quotient())
    assert len(census) == 45
    assert sum(r["size"] for r in census) == 600
    short = sum(1 for r in census if r["min_length"] <= 8)
    assert short >= 36
    assert census[0]["representative"] == ()  # identity class first
    assert census[0]["min_length"] == 0


def test_thirtieth_power_of_twist_vanishes():
    assert quotient_image(w([1, 2] * 30)) == 0


def test_twist_powers_distinct():
    q = coxeter_quotient()
    images = [q.image(w([1, 2] * (6 * k))) for k in range(5)]
    assert len(set(images)) == 5


def test_chain_head_equals_center_square_in_quotient():
    q = coxeter_quotient()
    assert q.image(w([-1, -1, 2] * 3)) == q.image(w([1, 2] * 6))


def test_full_twist_central_of_order_ten():
    q = coxeter_quotient()
    c = q.image(w([1, 2, 1, 1, 2, 1]))  # square of the half twist
    assert q.is_central(c)
    assert q.element_order(c) == 10


def test_quotient_methods_match_the_multiplication_table(mult):
    q = coxeter_quotient()
    for x in range(q.order):
        assert q.times(x, q.words[q.inverse(x)]) == 0
        assert q.is_central(x) == all(mult[x][y] == mult[y][x] for y in range(q.order))
        k, y = 1, x
        while y != 0:
            y = mult[y][x]
            k += 1
        assert q.element_order(x) == k


def test_element_orders_divide_group_order():
    q = coxeter_quotient()
    assert all(600 % q.element_order(x) == 0 for x in range(q.order))


def test_quotient_factors_through_burau_equality():
    rng = random.Random(3)
    q = coxeter_quotient()
    for _ in range(15):
        word = [rng.choice((-2, -1, 1, 2)) for _ in range(rng.randint(0, 8))]
        # rewrite via the braid relation at a random admissible spot
        rewritten = list(word)
        for i in range(len(rewritten) - 2):
            if rewritten[i : i + 3] == [1, 2, 1]:
                rewritten[i : i + 3] = [2, 1, 2]
                break
        assert braids_equal(w(word), w(rewritten))
        assert q.image(w(word)) == q.image(w(rewritten))


def test_shortest_words_trace_back():
    q = coxeter_quotient()
    for x in range(0, 600, 37):
        assert q.image(w(list(q.words[x]))) == x


def test_verification_report_all_pass():
    steps = verify_reduction_chains()
    assert len(steps) == 21
    kinds = {s.kind for s in steps}
    assert kinds == {"exact", "quotient", "conjugate-exact"}
    for s in steps:
        assert s.passed, s.label


def test_reduction_chain_steps_golden():
    """Every step's label, kind, words and conjugator, in order."""
    blob = json.dumps(braids._steps())
    assert (
        hashlib.sha256(blob.encode()).hexdigest()
        == "136abf61821e90eb35e665777f8505f14a0283a7b8aa01c7b58cedae50c5413b"
    )


def test_verification_conjugator_recorded():
    steps = {s.label: s for s in verify_reduction_chains()}
    assert steps["ii.1"].conjugator == (-1,)
    assert steps["iii.6"].conjugator == (1, 2, 1)


def test_five_letter_insertion_preserves_quotient_image():
    rng = random.Random(9)
    q = coxeter_quotient()
    for _ in range(40):
        word = [rng.choice((-2, -1, 1, 2)) for _ in range(rng.randint(0, 10))]
        pos = rng.randint(0, len(word))
        gen = rng.choice((1, 2)) * rng.choice((1, -1))
        inserted = word[:pos] + [gen] * 5 + word[pos:]
        assert q.image(w(word)) == q.image(w(inserted))


def test_burau_entries_are_laurent():
    m = burau_image(w([1, -2, 1]))
    for entry in (m.a, m.b, m.c, m.d):
        assert isinstance(entry, LaurentPoly)
