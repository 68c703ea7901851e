import hashlib
import itertools
import json
import time

import pytest

from tanglekit import presentation
from tanglekit.coloring import col_group, solution_group
from tanglekit.corpus import corpus
from tanglekit.diagrams import braid, braid_closure, parse_pd, unlink
from tanglekit.errors import EnumerationFailure, ParseError, TooLarge
from tanglekit.kei import (
    check_axioms,
    core_kei,
    cyclic_group,
    dihedral_kei,
    eval_word,
    group_product,
    kei_isomorphic,
    trivial_kei,
)
from tanglekit.presentation import (
    KERNELS,
    MAX_BURNSIDE_EXPONENT,
    KeiPresentation,
    burnside_kei,
    enumerate_kei,
    free_burnside_presentation,
    fundamental_kei,
    parse_presentation,
    q_kei,
    r_n_relation,
)
from test_enum_golden import on_generator_pairs, random_presentation

TREFOIL = parse_pd("X 1 4 2 5\nX 3 6 4 1\nX 5 2 6 3")
FIG8 = braid_closure(braid([1, -2, 1, -2]))


@pytest.mark.parametrize(
    "n,rhs",
    [(2, (0, 1)), (3, (1, 0, 1)), (4, (0, 1, 0, 1)), (5, (1, 0, 1, 0, 1)),
     (6, (0, 1, 0, 1, 0, 1)), (7, (1, 0, 1, 0, 1, 0, 1)),
     (8, (0, 1, 0, 1, 0, 1, 0, 1)), (9, (1, 0, 1, 0, 1, 0, 1, 0, 1))],
)
def test_r_n_words(n, rhs):
    lhs, right = r_n_relation(n)
    assert lhs == (0,)
    assert right == rhs


def test_r_n_rejects_small():
    with pytest.raises(ValueError):
        r_n_relation(1)


def test_burnside_exponent_bound():
    """The bound itself is accepted; one past it is refused."""
    top = MAX_BURNSIDE_EXPONENT
    assert len(r_n_relation(top)[1]) == top
    assert parse_presentation(f"gens 3\nburnside {top}\n").burnside_exponent == top
    assert fundamental_kei(TREFOIL).with_burnside(top).burnside_exponent == top
    with pytest.raises(ValueError, match=f"n <= {top}$"):
        r_n_relation(top + 1)
    with pytest.raises(ValueError, match=f"must be in 2..{top}$"):
        parse_presentation(f"gens 3\nburnside {top + 1}\n")
    with pytest.raises(ValueError, match=f"must be in 2..{top}$"):
        fundamental_kei(TREFOIL).with_burnside(top + 1)


@pytest.mark.parametrize(
    "m,n,size",
    [(1, 3, 1), (1, 5, 1), (2, 3, 3), (3, 3, 9), (4, 3, 81), (3, 4, 96),
     (2, 2, 2), (3, 2, 3), (6, 2, 6)],
)
def test_free_burnside_sizes(m, n, size):
    r = q_kei(m, n, cap=8000)
    assert r.completed and r.size == size
    assert check_axioms(r.kei) == []


@pytest.mark.parametrize("n", range(2, 10))
def test_q2n_is_dihedral(n):
    r = q_kei(2, n, cap=2000)
    assert r.size == n
    assert kei_isomorphic(r.kei, dihedral_kei(n)) is not None


@pytest.mark.parametrize("m", range(1, 7))
def test_qm2_is_trivial(m):
    r = q_kei(m, 2, cap=2000)
    assert r.size == m
    assert kei_isomorphic(r.kei, trivial_kei(m)) is not None


@pytest.mark.parametrize("m", [2, 3, 4])
def test_qm3_is_commutative(m):
    r = q_kei(m, 3, cap=8000)
    t = r.kei.table
    for a in range(r.size):
        for b in range(r.size):
            assert t[a][b] == t[b][a]


def test_fundamental_kei_shapes():
    p = fundamental_kei(unlink(3))
    assert p.generator_count == 3 and p.relations == ()
    p = fundamental_kei(TREFOIL)
    assert p.generator_count == 3 and len(p.relations) == 3


def test_fundamental_kei_sizes():
    assert enumerate_kei(fundamental_kei(TREFOIL), cap=500).size == 3
    assert enumerate_kei(fundamental_kei(FIG8), cap=500).size == 5


def test_completed_tables_satisfy_relations():
    for diagram in (TREFOIL, FIG8):
        pres = fundamental_kei(diagram)
        r = enumerate_kei(pres, cap=500)
        assert check_axioms(r.kei) == []
        env = dict(enumerate(r.generator_images))
        for lhs, rhs in pres.relations:
            assert eval_word(r.kei, lhs, env) == eval_word(r.kei, rhs, env)


def test_generator_images_generate():
    r = q_kei(3, 3, cap=500)
    reached = set(r.generator_images)
    frontier = list(reached)
    while frontier:
        x = frontier.pop()
        for y in list(reached):
            for v in (r.kei.op(x, y), r.kei.op(y, x)):
                if v not in reached:
                    reached.add(v)
                    frontier.append(v)
    assert reached == set(range(r.size))


def test_burnside_kei_of_unlink_matches_free():
    for m in (1, 2, 3):
        left = burnside_kei(unlink(m), 3, cap=2000)
        right = q_kei(m, 3, cap=2000)
        assert left.completed and right.completed
        assert kei_isomorphic(left.kei, right.kei) is not None


def test_burnside_kei_trefoil_collapses():
    # the 3-element dihedral Kei does not satisfy the fifth universal
    # relation, so the quotient collapses to a point
    r = burnside_kei(TREFOIL, 5, cap=500)
    assert r.completed and r.size == 1


def test_burnside_kei_fig8():
    r = burnside_kei(FIG8, 5, cap=2000)
    assert r.completed and r.size == 5
    assert kei_isomorphic(r.kei, dihedral_kei(5)) is not None


def test_nine_crossing_link_burnside():
    link = braid_closure(braid([1, 1, -2] * 3))
    r = burnside_kei(link, 5, cap=20000)
    assert r.completed and r.size == 25
    core55 = core_kei(group_product(cyclic_group(5), cyclic_group(5)))
    assert kei_isomorphic(r.kei, core55) is not None


def test_cap_exceeded_is_reported_not_raised():
    r = q_kei(3, 3, cap=5)
    assert not r.completed
    assert r.kei is None and r.size is None


@pytest.mark.parametrize("cap", [0, -3])
def test_cap_below_one_is_refused(cap):
    with pytest.raises(ValueError, match="cap must be >= 1"):
        q_kei(2, 3, cap=cap)


def test_determinism():
    # pinned here rather than in test_enum_golden.py, which stays fast;
    # like those pins, these run on every kernel that is built
    for backend in KERNELS:
        a = q_kei(3, 4, cap=4000, backend=backend)
        b = q_kei(3, 4, cap=4000, backend=backend)
        assert a.kei.table == b.kei.table
        assert a.generator_images == b.generator_images
        assert a.deductions == b.deductions
        record = json.dumps([a.kei.table, a.generator_images, a.deductions],
                            separators=(",", ":"))
        assert hashlib.sha256(record.encode()).hexdigest() == (
            "5df66457fb6ddee3b29dae7712b5338568a7e5d3fc00eeaa9f5f899f86393712"
        ), backend
        c = q_kei(4, 3, cap=4000, backend=backend)
        record = json.dumps([c.kei.table, c.generator_images, c.deductions],
                            separators=(",", ":"))
        assert hashlib.sha256(record.encode()).hexdigest() == (
            "fcb9a8b78369e0d8d0baa4491515d9abc16ec2da6312d19e87c18871f8b9a664"
        ), backend


def test_universal_on_generator_pairs_differs():
    """Imposing r_n on generator pairs only, as the relations of
    `on_generator_pairs`, is weaker: Q(3,3) does not collapse to 9
    elements within a generous cap."""
    pres = free_burnside_presentation(3, 3)
    allp = enumerate_kei(pres, cap=4000)
    genp = enumerate_kei(on_generator_pairs(pres), cap=4000)
    assert allp.completed and allp.size == 9
    assert not genp.completed
    # the two-generator case happens to agree
    allp2 = enumerate_kei(free_burnside_presentation(2, 3), cap=400)
    genp2 = enumerate_kei(on_generator_pairs(free_burnside_presentation(2, 3)), cap=400)
    assert allp2.size == genp2.size == 3


def test_presentation_text_round_trip():
    pres = fundamental_kei(TREFOIL).with_burnside(5)
    text = pres.serialize()
    back = parse_presentation(text)
    assert back.generator_count == pres.generator_count
    assert back.relations == pres.relations
    assert back.burnside_exponent == 5


def test_presentation_validation():
    with pytest.raises(ValueError):
        KeiPresentation(2, (((0,), (2,)),))
    with pytest.raises(ValueError):
        KeiPresentation(1, (), 1)


@pytest.mark.parametrize("text,message", [
    ("gens 2\nburnside 2\nburnside 3\n", "line 3: duplicate 'burnside' record"),
    ("gens 3\nburnside 3\ngens 2\n", "line 3: duplicate 'gens' record"),
])
def test_parse_presentation_refuses_duplicate_records(text, message):
    with pytest.raises(ParseError, match=message):
        parse_presentation(text)


@pytest.mark.parametrize("text,message", [
    ("gens two\n", "line 1: bad generator count"),
    ("gens -1\n", "line 1: generator count must be non-negative"),
    ("rel x0 = x0\ngens 1\n", "line 1: rel before gens"),
    ("gens 2\n\nrel x0*x1 x0\n", "line 3: relation needs '='"),
    ("gens 2\nrel x0 = *\n", "line 2: empty word in relation"),
    ("gens 2\nrel = x1\n", "line 2: empty word in relation"),
    ("gens 2\nrel x0**x1 = x1\n", "line 2: empty factor in relation"),
    ("gens 2\nrel x0 = x1 * * x0\n", "line 2: empty factor in relation"),
    ("gens 2\nrel *x0 = x1\n", "line 2: empty factor in relation"),
    ("gens 2\n\nrel x0 = x1*\n", "line 3: empty factor in relation"),
    ("gens 2\nrel x0**x1 = *x1*\n", "line 2: empty factor in relation"),
    ("gens 2\nburnside 5.0\n", "line 2: bad burnside exponent"),
    ("gens 3\nburnside 1\n", f"line 2: burnside exponent must be in 2..{MAX_BURNSIDE_EXPONENT}"),
    ("gens 3\n\nrel x3 = x0\n", "line 3: unknown generator 'x3'"),
    ("gens 3\nrel x0 = x1*y\n", "line 2: unknown generator 'y'"),
    ("gens 2\nrelation x0 = x1\n", "line 2: unknown record 'relation'"),
    ("rel_x0 = x1\n", "line 1: unknown record 'rel_x0'"),
    ("# no records\nburnside 3\n", "missing 'gens' record"),
    ("", "missing 'gens' record"),
])
def test_parse_presentation_errors(text, message):
    with pytest.raises(ParseError) as info:
        parse_presentation(text)
    assert str(info.value) == message


@pytest.mark.parametrize("args,message", [
    ((-1,), "generator count must be non-negative"),
    ((2, (((0,), ()),)), "empty word in relation"),
    ((2, (((), (1,)),)), "empty word in relation"),
])
def test_kei_presentation_errors(args, message):
    with pytest.raises(ValueError) as info:
        KeiPresentation(*args)
    assert str(info.value) == message


@pytest.mark.parametrize("token", ["x01", "x-1", "x+1", "x1_0", "x\uff11", "y", "x", "x3"])
def test_parse_presentation_refuses_unknown_generator(token):
    with pytest.raises(ParseError, match="unknown generator"):
        parse_presentation(f"gens 3\nrel {token} = x0\n")


def test_parse_presentation_splits_on_any_whitespace():
    spaced = parse_presentation("gens 3\nrel x2 = x0*x1 * x2\nburnside 5\n")
    tabbed = parse_presentation("gens\t3\nrel\tx2\t= x0\t*\tx1*x2\nburnside\t 5\n")
    assert tabbed == spaced
    assert spaced.relations == (((2,), (0, 1, 2)),)


def test_more_generators_than_cap_stop_at_once():
    """A billion generators are neither indexed by the parser nor created
    by a kernel: the run is capped before either would start."""
    pres = parse_presentation("gens 1000000000\nrel x999999999 = x0*x1\n")
    assert pres.relations == (((999999999,), (0, 1)),)
    for backend in KERNELS:
        start = time.monotonic()
        r = enumerate_kei(pres, cap=5, backend=backend)
        assert time.monotonic() - start < 1.0
        assert not r.completed and r.deductions == 0 and r.cap == 5
        assert r.backend == backend


def test_empty_presentation():
    for backend in KERNELS:
        r = enumerate_kei(KeiPresentation(0), cap=10, backend=backend)
        assert r.completed and r.size == 0 and r.generator_images == ()


def test_unknown_backend_names_the_built_kernels():
    """An unknown name, or 'compiled' when it is not built."""
    built = ", ".join(KERNELS)
    for backend in [b for b in ("nosuch", "compiled") if b not in KERNELS]:
        with pytest.raises(ValueError, match=f"'{backend}': this install has {built}$"):
            enumerate_kei(KeiPresentation(0), cap=10, backend=backend)


def test_presenting_a_kei_by_its_table_reproduces_it():
    """Feeding the full multiplication table as relations must enumerate
    back to the same Kei: nothing extra collapses, nothing is missed."""
    import itertools

    perms = sorted(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    s3 = tuple(
        tuple(index[tuple(p[q[i]] for i in range(3))] for q in perms) for p in perms
    )
    candidates = [dihedral_kei(4), dihedral_kei(7), trivial_kei(5), core_kei(s3)]
    for k in candidates:
        relations = tuple(
            ((k.table[i][j],), (i, j)) for i in range(k.size) for j in range(k.size)
        )
        pres = KeiPresentation(k.size, relations)
        r = enumerate_kei(pres, cap=4 * k.size + 16)
        assert r.completed and r.size == k.size
        assert kei_isomorphic(r.kei, k) is not None


def test_kinked_unknot_kei_is_a_point():
    kink = parse_pd("X 0 1 1 0")
    r = enumerate_kei(fundamental_kei(kink), cap=100)
    assert r.completed and r.size == 1


def test_memory_budget_raises_too_large(monkeypatch):
    """A table over TANGLEKIT_MAX_TABLE_BYTES is refused as its own
    limit, not reported as a run that stopped at the cap."""
    if "compiled" not in KERNELS:
        pytest.skip("compiled kernel not built")
    monkeypatch.setenv("TANGLEKIT_MAX_TABLE_BYTES", "40000")
    with pytest.raises(TooLarge, match="memory budget") as err:
        q_kei(3, 4, cap=8000, backend="compiled")
    assert "cap" not in str(err.value)
    monkeypatch.delenv("TANGLEKIT_MAX_TABLE_BYTES")
    assert q_kei(3, 4, cap=8000, backend="compiled").size == 96


def test_memory_budget_counts_live_elements(monkeypatch):
    """Q(3,4) creates 189 elements but holds at most 97 live at once, so
    it completes under a budget that a table of 128 elements fits and
    one of all 189 does not: merged elements' slots are reused."""
    if "compiled" not in KERNELS:
        pytest.skip("compiled kernel not built")
    monkeypatch.setenv("TANGLEKIT_MAX_TABLE_BYTES", "100000")
    r = q_kei(3, 4, cap=8000, backend="compiled")
    assert r.completed and r.size == 96 and r.deductions == 93


def test_moving_universal_relation_preserves_iso_class():
    import random

    rng = random.Random(23)
    for _ in range(30):
        letters = [rng.choice((-2, -1, 1, 2)) for _ in range(rng.randint(1, 10))]
        pos = rng.randint(0, len(letters))
        gen = rng.choice((1, 2)) * rng.choice((1, -1))
        inserted = letters[:pos] + [gen] * 3 + letters[pos:]
        r1 = burnside_kei(braid_closure(braid(letters, 3)), 3, cap=4000)
        r2 = burnside_kei(braid_closure(braid(inserted, 3)), 3, cap=4000)
        assert r1.completed and r2.completed
        assert kei_isomorphic(r1.kei, r2.kei) is not None


def fake_kernel(monkeypatch, rows, images):
    """Make every enumeration 'complete' with the given table and images."""

    class Kernel:
        @staticmethod
        def run_enumeration(m, relations, pattern, cap):
            return 0, rows, images, 0

    monkeypatch.setattr(presentation, "KERNELS", {"pure": Kernel})


@pytest.mark.parametrize(
    "text,rows,images,match",
    [
        ("gens 2\n", dihedral_kei(3).table[::-1], [0, 1], "Kei axioms"),
        ("gens 2\nrel x0*x1 = x0\n", dihedral_kei(3).table, [0, 1],
         "violate a relation"),
        ("gens 2\nburnside 3\n", trivial_kei(2).table, [0, 1],
         "universal relation"),
        # x*x = x holds and every element is an image, so only the
        # checks of axioms 2 and 3 at the images' columns can refuse
        # these two: (1*0)*0 = 2*0 = 2, so column 0 is not an involution
        ("gens 3\n", ((0, 0, 0), (2, 1, 1), (2, 2, 2)), [0, 1, 2],
         "Kei axioms"),
        # column 1 swaps 0 and 2, but (1*0)*1 = 0 != (1*1)*(0*1) = 1
        ("gens 3\n", ((0, 2, 0), (2, 1, 1), (1, 0, 2)), [0, 1, 2],
         "Kei axioms"),
        # the image 0 reaches only itself
        ("gens 1\n", trivial_kei(2).table, [0], "do not generate"),
        # column 1 is not an involution, which the axiom checks at the
        # images' columns alone would miss
        ("gens 1\n", ((0, 1), (1, 1)), [0], "do not generate"),
    ],
    ids=["axioms", "relation", "universal", "involution", "distributivity",
         "ungenerated-kei", "ungenerated-bad-column"],
)
def test_certificate_refuses_wrong_table(monkeypatch, text, rows, images, match):
    fake_kernel(monkeypatch, rows, images)
    with pytest.raises(EnumerationFailure, match=match):
        enumerate_kei(parse_presentation(text))


def test_certificate_checks_universal_relation_where_imposed(monkeypatch):
    # imposed on generator pairs only, as relations, r_3 leaves a
    # 6-element Kei generated by its images, in which r_3 fails on the
    # pair (0, 5)
    pres = parse_presentation("gens 3\nrel x0*x2*x1 = x2*x0\nburnside 3\n")
    genp = enumerate_kei(on_generator_pairs(pres))
    assert genp.size == 6 and genp.generator_images == (0, 1, 2)
    fake_kernel(monkeypatch, genp.kei.table, list(genp.generator_images))
    r = enumerate_kei(on_generator_pairs(pres))
    assert r.completed and r.kei == genp.kei
    with pytest.raises(EnumerationFailure, match="universal relation"):
        enumerate_kei(pres)


def maps_into_dihedral(kei, images, p):
    """The number of Kei maps f from `kei` into R_p.  Since the images
    generate `kei`, f is a Kei map iff f(x*g) = 2 f(g) - f(x) at the images'
    columns g (the induction of `presentation._certify`)."""
    rows = []
    for g in set(images):
        for x in range(kei.size):
            row = [0] * kei.size
            row[kei.table[x][g]] += 1
            row[x] += 1
            row[g] -= 2
            rows.append(row)
    return solution_group(rows, kei.size, p).order


def word_row(w, m):
    """The left-normed word w as a linear form in R_p, where w*x = 2x - w."""
    row = [0] * m
    row[w[0]] = 1
    for g in w[1:]:
        row = [-c for c in row]
        row[g] += 2
    return row


def solutions_in_dihedral(pres, p):
    """The number of generator values in R_p satisfying `pres`.  In R_p,
    r_n(u, w) = u + n(w - u), so r_n holds on the whole subkei that the
    values x_i generate iff n(x_i - x_0) = 0 for every i."""
    m = pres.generator_count
    rows = [[a - b for a, b in zip(word_row(lhs, m), word_row(rhs, m))]
            for lhs, rhs in pres.relations]
    n = pres.burnside_exponent
    if n is not None:
        rows += [[n * (k == i) - n * (k == 0) for k in range(m)] for i in range(1, m)]
    return solution_group(rows, m, p).order


def test_maps_into_dihedral_kei_count_solutions():
    """A completed table is the presented Kei, so its maps into R_p
    are the solutions of the presentation there: p^m for Q(m, n) and
    the Fox p-colorings for BQ_n(L), whenever p divides n.  A table
    that merges two elements it should keep apart has fewer maps."""
    cases = [(q_kei, (3, 3), 3), (q_kei, (2, 5), 5)]
    cases += [(burnside_kei, (d, n), n) for d in corpus().values() for n in (3, 5)]
    # each about a second of pure enumeration
    heavy = [(q_kei, (4, 3), 3), (q_kei, (3, 4), 2), (q_kei, (3, 4), 4)]
    for backend in KERNELS:
        for run, args, p in cases + heavy * (backend == "compiled"):
            r = run(*args, backend=backend)
            want = p ** args[0] if run is q_kei else col_group(args[0], p).order
            assert maps_into_dihedral(r.kei, r.generator_images, p) == want, (args, p)
        for seed in range(150):
            pres, cap, all_pairs = random_presentation(seed)
            pres = pres if all_pairs else on_generator_pairs(pres)
            r = enumerate_kei(pres, cap, backend=backend)
            for p in range(2, 6) if r.completed else ():
                assert (maps_into_dihedral(r.kei, r.generator_images, p)
                        == solutions_in_dihedral(pres, p)), (seed, p)


def group_table(elements, times):
    """The multiplication table of the group on `elements` under `times`."""
    index = {x: i for i, x in enumerate(elements)}
    return [[index[times(x, y)] for y in elements] for x in elements]


def heisenberg3(x, y):
    """Upper unitriangular 3x3 matrices over Z/3 as (a, b, c)."""
    return ((x[0] + y[0]) % 3, (x[1] + y[1]) % 3, (x[2] + y[2] + x[0] * y[1]) % 3)


def dihedral8(x, y):
    """rho^r sigma^s as (r, s), where sigma rho = rho^-1 sigma."""
    return ((x[0] + (-1) ** x[1] * y[0]) % 4, (x[1] + y[1]) % 2)


def quaternion(x, y):
    """Hamilton's product of (a, b, c, d) = a + bi + cj + dk."""
    a, b, c, d = x
    e, f, g, h = y
    return (a * e - b * f - c * g - d * h, a * f + b * e + c * h - d * g,
            a * g - b * h + c * e + d * f, a * h + b * g - c * f + d * e)


def maps_into(kei, images, target):
    """The number of Kei maps from `kei` into the Kei `target`, by brute
    force over the values of the generator images: each choice is
    extended along the images' columns by f(x*g) = f(x)*f(g), and counts
    if that never clashes (the induction of `presentation._certify`)."""
    gens = sorted(set(images))
    count = 0
    for values in itertools.product(range(target.size), repeat=len(gens)):
        f = [None] * kei.size
        for g, v in zip(gens, values):
            f[g] = v
        todo, clash = list(gens), False
        while todo and not clash:
            x = todo.pop()
            for g in gens:
                y, v = kei.table[x][g], target.table[f[x]][f[g]]
                if f[y] is None:
                    f[y] = v
                    todo.append(y)
                clash |= f[y] != v
        count += not clash
    return count


def test_maps_into_core_kei_are_free():
    """The core Kei of a group whose exponent divides n satisfies r_n,
    so every choice of generator values extends to a Kei map from
    Q(m, n): |T|^m maps into each target T.  The targets are the cores
    of the Heisenberg group mod 3 (exponent 3) and of D4 and Q8
    (exponent 4), none of them abelian.  A table that merges two
    elements it should keep apart can have fewer maps."""
    units = [tuple(s * (k == i) for k in range(4)) for i in range(4) for s in (1, -1)]
    targets = {
        3: [core_kei(group_table(list(itertools.product(range(3), repeat=3)), heisenberg3))],
        4: [core_kei(group_table(list(itertools.product(range(4), range(2))), dihedral8)),
            core_kei(group_table(units, quaternion))],
    }
    for n, keis in targets.items():
        rhs = r_n_relation(n)[1]
        for t in keis:
            assert all(eval_word(t, rhs, (u, w)) == u
                       for u in range(t.size) for w in range(t.size)), (n, t.size)
    for backend in KERNELS:
        for m, n in [(2, 3), (3, 3), (2, 4), (3, 4)]:
            r = q_kei(m, n, backend=backend)
            for t in targets[n]:
                assert maps_into(r.kei, r.generator_images, t) == t.size ** m, (backend, m, n)
