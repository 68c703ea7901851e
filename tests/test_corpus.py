import importlib.resources

import pytest

from tanglekit.coloring import col_group, count_colorings_brute, coloring_matrix
from tanglekit.corpus import CORPUS_EXPECTED, corpus, corpus_entry, parse_corpus
from tanglekit.errors import CorpusError, ParseError
from tanglekit.jones import determinant, jones
from tanglekit.laurent import LaurentPoly


def test_corpus_complete():
    entries = corpus()
    assert set(CORPUS_EXPECTED) <= set(entries)


@pytest.mark.parametrize("name", sorted(CORPUS_EXPECTED))
def test_components_and_determinants(name):
    d = corpus_entry(name)
    assert d.component_count() == CORPUS_EXPECTED[name]["components"]
    assert determinant(d) == CORPUS_EXPECTED[name]["determinant"]


def test_crossing_counts():
    counts = {name: corpus_entry(name).crossing_count for name in CORPUS_EXPECTED}
    assert counts == {
        "unknot": 0, "hopf": 2, "trefoil": 3, "4_1": 4,
        "8_18": 8, "9_40": 9, "9_49": 9, "9_2_40": 9,
    }


def test_famous_three_coloring_count():
    # the eight-crossing Turk's head admits 27 three-colorings
    assert col_group(corpus_entry("8_18"), 3).order == 27


def test_exceptional_knots_coloring_rank():
    for name in ("9_40", "9_49"):
        assert col_group(corpus_entry(name), 5).cyclic_orders == (5, 5, 5)


def test_snf_against_brute_force_small_entries():
    for name, d in corpus().items():
        if coloring_matrix(d).cols > 7:
            continue
        for n in (2, 3, 4, 5):
            assert col_group(d, n).order == count_colorings_brute(d, n), (name, n)


def test_jones_figure_eight_palindromic():
    v = jones(corpus_entry("4_1"))
    assert v == LaurentPoly({4: 1, 2: -1, 0: 1, -2: -1, -4: 1})


def test_five_coloring_iff_determinant_divisible():
    from tanglekit.coloring import has_nontrivial_colorings

    for name, d in corpus().items():
        if d.component_count() != 1:
            continue
        expected = determinant(d) % 5 == 0
        assert has_nontrivial_colorings(d, 5) == expected, name


def test_corpus_parser_rejects_garbage():
    with pytest.raises(CorpusError):
        parse_corpus("X 0 1 2 3")
    with pytest.raises(CorpusError):
        parse_corpus("name: a\nO 1\nname: a\nO 1")
    with pytest.raises(CorpusError, match="^no corpus entry named 'nosuch'$"):
        corpus_entry("nosuch")


def test_corpus_parse_errors_name_the_file_line():
    text = "name: a\nX 0 1 1 0\n\nname: b\nX 0 1 2\n"
    with pytest.raises(ParseError, match="^line 5: crossing needs 4 arc ids, got 3$"):
        parse_corpus(text)
    with pytest.raises(CorpusError, match="^line 4: empty corpus entry name$"):
        parse_corpus("name: a\nO 1\n\nname:\n")
    with pytest.raises(CorpusError, match="^line 4: duplicate corpus entry 'a'$"):
        parse_corpus("name: a\nX 0 1 1 0\n\nname: a\nX 0 1 1 0\n")
    with pytest.raises(CorpusError, match="^line 3: PD lines before the first name record$"):
        parse_corpus("\n  \nX 0 1 1 0\n\nname: a\nX 0 1 1 0\n")


def test_round_trip_through_serialization():
    for name, d in corpus().items():
        from tanglekit.diagrams import parse_pd

        assert parse_pd(d.serialize()) == d, name


@pytest.fixture
def corpus_dir(tmp_path, monkeypatch):
    """`corpus()` reads `data/corpus.txt` under a temporary directory."""
    monkeypatch.setattr(importlib.resources, "files", lambda package: tmp_path)
    corpus.cache_clear()
    yield tmp_path
    corpus.cache_clear()


def test_corpus_file_missing(corpus_dir):
    with pytest.raises(CorpusError, match="^embedded corpus file is missing$"):
        corpus()


def test_corpus_file_lacking_an_entry(corpus_dir):
    (corpus_dir / "data").mkdir()
    (corpus_dir / "data" / "corpus.txt").write_text(
        "name: trefoil\nX 1 4 2 5\nX 3 6 4 1\nX 5 2 6 3\n")
    with pytest.raises(CorpusError) as info:
        corpus()
    missing = sorted(set(CORPUS_EXPECTED) - {"trefoil"})
    assert str(info.value) == f"corpus entries missing: {missing}"
