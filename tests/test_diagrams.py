import pytest

from tanglekit.diagrams import (
    MAX_SPLIT_CIRCLES,
    BraidWord,
    LinkDiagram,
    braid,
    braid_closure,
    delta3,
    parse_braid,
    parse_pd,
    strand_count,
    unlink,
)
from tanglekit.errors import MalformedDiagram, ParseError

TREFOIL_PD = "X 1 4 2 5\nX 3 6 4 1\nX 5 2 6 3"


def test_parse_trefoil():
    d = parse_pd(TREFOIL_PD)
    assert d.crossing_count == 3
    assert d.arc_count == 6
    assert d.component_count() == 1
    assert strand_count(d.strand_classes(), d.unknotted_split_circles) == 3


def test_parse_split_circles():
    d = parse_pd("O 2")
    assert d.crossing_count == 0
    assert d.unknotted_split_circles == 2
    assert d.component_count() == 2


def test_parse_arity_error():
    with pytest.raises(ParseError):
        parse_pd("X 1 2 3")


def test_parse_non_integer():
    with pytest.raises(ParseError):
        parse_pd("X 1 a 2 3")


def test_arc_multiplicity_validation():
    with pytest.raises(MalformedDiagram):
        parse_pd("X 1 1 1 2")


@pytest.mark.parametrize("text,message", [
    ("O", "line 1: O takes one non-negative count"),
    ("O 1 2", "line 1: O takes one non-negative count"),
    ("X 1 2 1 2\nO -1", "line 2: O takes one non-negative count"),
    ("X 1 2 1 2\n\nY 1 2 1 2", "line 3: unknown record 'Y'"),
    (f"O {MAX_SPLIT_CIRCLES + 1}", f"line 1: more than {MAX_SPLIT_CIRCLES} split circles"),
    # the bound is on the sum over all O lines
    (f"O {MAX_SPLIT_CIRCLES}\n# one more\nO 1",
     f"line 3: more than {MAX_SPLIT_CIRCLES} split circles"),
    ("O 99999999999", f"line 1: more than {MAX_SPLIT_CIRCLES} split circles"),
])
def test_parse_pd_errors(text, message):
    with pytest.raises(ParseError) as info:
        parse_pd(text)
    assert str(info.value) == message


def test_split_circle_bound_is_accepted():
    d = parse_pd(f"{TREFOIL_PD}\nO {MAX_SPLIT_CIRCLES - 1}\nO 1")
    assert d.unknotted_split_circles == MAX_SPLIT_CIRCLES
    assert d.crossing_count == 3


@pytest.mark.parametrize("crossings,arcs,circles,message", [
    (((0, 1, 0),), 2, 0, "crossing (0, 1, 0) does not have 4 ends"),
    (((0, 1, 0, 1), (2, 3, 2, 2)), 4, 0, "arc 2 appears 3 times, expected 2"),
    (((1, 2, 1, 2),), 2, 0, "arc ids are not dense in 0..arc_count-1"),
    (((0, 2, 0, 2),), 3, 0, "arc_count does not match the crossing data"),
    ((), 0, -1, "negative split circle count"),
    (((0, 1, 0, 1),), 2, 0,
     "PD code is not planar: 1 faces where a plane diagram has 3"),
])
def test_link_diagram_errors(crossings, arcs, circles, message):
    with pytest.raises(MalformedDiagram) as info:
        LinkDiagram(crossings, arcs, circles)
    assert str(info.value) == message


@pytest.mark.parametrize("text", ["1 x 2", "1 2.0", "s1"])
def test_parse_braid_errors(text):
    with pytest.raises(ParseError) as info:
        parse_braid(text)
    assert str(info.value) == f"bad braid word {text!r}"


@pytest.mark.parametrize("text,strands,message", [
    ("1 5", 3, "bad braid word '1 5': letter 5 not a generator of B_3"),
    ("0", None, "bad braid word '0': letter 0 not a generator of B_1"),
], ids=["5-in-B3", "0"])
def test_parse_braid_refuses_letters_outside_the_group(text, strands, message):
    with pytest.raises(ParseError) as info:
        parse_braid(text, strands=strands)
    assert str(info.value) == message


def test_serialize_round_trip():
    d = parse_pd(TREFOIL_PD)
    assert parse_pd(d.serialize()) == d
    d2 = braid_closure(braid([1, -2, 1, -2]))
    assert parse_pd(d2.serialize()) == d2


def test_empty_braid_closure_gives_split_circles():
    d = braid_closure(braid([], strands=3))
    assert d.crossing_count == 0
    assert d.unknotted_split_circles == 3
    assert d.component_count() == 3


def test_sigma1_cubed_is_trefoil_shape():
    d = braid_closure(braid([1, 1, 1], strands=2))
    assert d.crossing_count == 3
    assert d.component_count() == 1


@pytest.mark.parametrize(
    "letters,strands,cycles",
    [
        ([1, 2] * 6, 3, 3),  # (s1 s2)^6 torus link
        ([1, 2] * 12, 3, 3),
        ([1, 1, -2] * 3, 3, 2),
        ([1], 2, 1),
        ([], 4, 4),
    ],
)
def test_components_match_permutation_cycles(letters, strands, cycles):
    w = braid(letters, strands)
    assert w.cycle_count() == cycles
    assert braid_closure(w).component_count() == cycles


def test_closure_crossing_count_is_word_length():
    import random

    rng = random.Random(3)
    for _ in range(50):
        letters = [rng.choice((-2, -1, 1, 2)) for _ in range(rng.randint(0, 12))]
        w = braid(letters, 3)
        d = braid_closure(w)
        assert d.crossing_count == len(letters)
        assert d.component_count() == w.cycle_count()


def test_component_count_stable_under_relabeling():
    import random

    rng = random.Random(19)
    original = parse_pd(TREFOIL_PD)
    labels = list(range(1, 7))
    for _ in range(10):
        rng.shuffle(labels)
        text = "\n".join(
            "X " + " ".join(str(labels[a - 1]) for a in quad)
            for quad in [(1, 4, 2, 5), (3, 6, 4, 1), (5, 2, 6, 3)]
        )
        assert parse_pd(text).component_count() == original.component_count()


def test_mirror_is_involution():
    d = braid_closure(braid([1, -2, 1, -2]))
    assert d.mirror().mirror().canonical_key() == d.canonical_key()
    assert d.mirror().arc_count == d.arc_count
    assert d.mirror().crossing_count == d.crossing_count
    assert d.mirror().component_count() == d.component_count()


def test_mirror_of_unlink():
    assert unlink(3).mirror() == unlink(3)


def test_braid_word_validation():
    with pytest.raises(ValueError):
        BraidWord(3, (3,))
    with pytest.raises(ValueError):
        BraidWord(0, ())
    with pytest.raises(ValueError):
        BraidWord(2, (0,))
    with pytest.raises(ValueError, match="different strand counts"):
        braid([1], strands=2) * braid([1], strands=3)


def test_braid_word_algebra():
    w = parse_braid("1 1 2 -1", strands=3)
    assert w.letters == (1, 1, 2, -1)
    assert (w * w.inverse()).cycle_count() == 3
    assert delta3().letters == (1, 2, 1)
    assert (delta3() ** 2).letters == (1, 2, 1, 1, 2, 1)
    assert (w ** -1).letters == (1, -2, -1, -1)
