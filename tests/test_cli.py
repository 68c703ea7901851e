import argparse
import json

import pytest

from tanglekit.cli import emit, main
from tanglekit.diagrams import MAX_SPLIT_CIRCLES
from tanglekit.presentation import MAX_BURNSIDE_EXPONENT
from tanglekit.tangles import MAX_CROSSINGS, MAX_NESTING


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_color_command(capsys):
    code, report = run_cli(capsys, "color", "4_1", "--n", "5")
    assert code == 0
    assert report["schema_version"] == 1
    assert report["results"]["group"] == [5, 5]
    assert report["results"]["order"] == 25
    assert report["results"]["nontrivial"] is True


def test_color_unknown_diagram(capsys):
    code = main(["color", "nonexistent", "--n", "5"])
    assert code == 2


def test_jones5_figure_eight(capsys):
    code, report = run_cli(capsys, "jones5", "4_1")
    assert code == 0
    assert report["results"]["is_zero"] is True
    assert report["results"]["verdict"] == "not-5-move-trivializable"


def test_jones_command(capsys):
    code, report = run_cli(capsys, "jones", "trefoil")
    assert code == 0
    assert "s" in report["results"]["polynomial_in_sqrt_t"]


def test_braid_quotient_order(capsys):
    code, report = run_cli(capsys, "braid", "quotient-order")
    assert code == 0
    assert report["results"]["order"] == 600


def test_braid_census(capsys):
    code, report = run_cli(capsys, "braid", "census")
    assert code == 0
    assert report["results"]["class_count"] == 45
    assert report["results"]["classes_with_length_at_most_8"] >= 36


def test_braid_image(capsys):
    code, report = run_cli(capsys, "braid", "image", "1 1 2 -1")
    assert code == 0
    assert "burau" in report["results"]


def test_braid_verify(capsys):
    code, report = run_cli(capsys, "braid", "verify-prop27")
    assert code == 0
    assert report["passed"] is True
    assert all(s["passed"] for s in report["results"]["steps"])


def test_kei_burnside(capsys):
    code, report = run_cli(capsys, "kei", "burnside", "9_49", "--n", "5")
    assert code == 0
    assert report["results"]["size"] == 25


def test_kei_enum_and_check(capsys, tmp_path):
    pres = tmp_path / "q23.kei"
    pres.write_text("gens 2\nburnside 3\n")
    code, report = run_cli(capsys, "kei", "enum", str(pres), "--table")
    assert code == 0
    assert report["results"]["size"] == 3
    table = report["results"]["table"]
    tfile = tmp_path / "table.txt"
    tfile.write_text(
        f"{len(table)}\n" + "\n".join(" ".join(map(str, r)) for r in table)
    )
    code, report = run_cli(capsys, "kei", "check", str(tfile))
    assert code == 0 and report["passed"] is True


def test_kei_enum_rejects_cap_below_one(capsys, tmp_path):
    pres = tmp_path / "q23.kei"
    pres.write_text("gens 2\nburnside 3\n")
    assert main(["kei", "enum", str(pres), "--cap", "-3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: cap must be >= 1\n"


def test_kei_enum_rejects_duplicate_record(capsys, tmp_path):
    pres = tmp_path / "q22.kei"
    pres.write_text("gens 2\nburnside 2\nburnside 3\n")
    assert main(["kei", "enum", str(pres)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line 3: duplicate 'burnside' record\n"


def test_kei_huge_burnside_exponent_is_refused(capsys, tmp_path):
    """Refused before the length-n word of r_n is built."""
    pres = tmp_path / "q3.kei"
    pres.write_text("gens 3\nburnside 99999999999\n")
    for argv, where in ((["kei", "enum", str(pres), "--cap", "50"], "line 2: "),
                        (["kei", "burnside", "trefoil", "--n", "99999999999"], "")):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {where}burnside exponent must be in 2..{MAX_BURNSIDE_EXPONENT}\n"
        )


def test_kei_iso(capsys, tmp_path):
    from tanglekit.kei import dihedral_kei

    f1 = tmp_path / "a.txt"
    f2 = tmp_path / "b.txt"
    f1.write_text(dihedral_kei(5).serialize())
    f2.write_text(dihedral_kei(5).serialize())
    code, report = run_cli(capsys, "kei", "iso", str(f1), str(f2))
    assert code == 0 and report["results"]["isomorphic"] is True


def test_kei_iso_sizes_differ(capsys, tmp_path):
    from tanglekit.kei import dihedral_kei

    f1 = tmp_path / "a.txt"
    f2 = tmp_path / "b.txt"
    f1.write_text(dihedral_kei(3).serialize())
    f2.write_text(dihedral_kei(5).serialize())
    code, report = run_cli(capsys, "kei", "iso", str(f1), str(f2))
    assert code == 1 and report["passed"] is False
    assert report["results"] == {"bijection": None, "isomorphic": False}


def test_kei_iso_empty_tables(capsys, tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_text("0\n")
    code, report = run_cli(capsys, "kei", "iso", str(empty), str(empty))
    assert code == 0 and report["passed"] is True
    assert report["results"] == {"bijection": [], "isomorphic": True}


def test_kei_check_empty_table(capsys, tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    for argv in (["check", str(empty)], ["iso", str(empty), str(empty)]):
        assert main(["kei", *argv]) == 2
        assert capsys.readouterr().err.startswith("error:")


def test_tangle_closure(capsys):
    code, report = run_cli(capsys, "tangle", "closure", "(tw 2 2)", "--kind", "num")
    assert code == 0
    assert report["results"]["crossings"] == 4
    assert report["results"]["components"] == 1


def test_tangle_move(capsys):
    code, report = run_cli(
        capsys, "tangle", "move", "t0", "--n", "5", "--q", "2"
    )
    assert code == 0
    assert report["results"]["result"] == "(tw 2 2)"


def test_tangle_move_bad_site_step(capsys):
    for site in ("7", "-1"):
        code = main(["tangle", "move", "(comp 0 0 x+ t0)", "--site", site])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")


def test_tangle_move_site_that_is_not_integers(capsys):
    for site in ("0,", " ", "a"):
        code = main(["tangle", "move", "(comp 0 0 x+ t0)", "--site", site])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == (
            f"error: bad site {site!r}: steps are comma-separated 0s and 1s\n")


def test_tangle_obstruct(capsys):
    expr = "(comp 0 0 (tw 2 2) (comp 0 0 tinf tinf))"
    code, report = run_cli(capsys, "tangle", "obstruct", expr, "unknot", "--n", "5")
    assert code == 0
    assert report["results"]["verdict"] == "obstructed"


def test_invariants_bundle(capsys):
    code, report = run_cli(capsys, "invariants", "9_49")
    assert code == 0
    r = report["results"]
    assert r["col5_nontrivial"] is True
    assert r["bq5_size"] == 25
    assert r["components"] == 1


def test_invariants_unknot(capsys):
    code, report = run_cli(capsys, "invariants", "unknot")
    assert code == 0
    r = report["results"]
    assert r["col5"] == [5]
    assert r["bq5_size"] == 1
    assert r["jones5_verdict"] == "inconclusive"


def test_corpus_list(capsys):
    code, report = run_cli(capsys, "corpus", "list")
    assert code == 0
    names = {e["name"] for e in report["results"]["entries"]}
    assert {"unknot", "trefoil", "9_40", "9_49"} <= names


def test_corpus_verify_filtered(capsys):
    code, report = run_cli(capsys, "corpus", "verify", "--only", "jones")
    assert code == 0
    names = [c["name"] for c in report["results"]["checks"]]
    assert names and all("jones" in n for n in names)
    assert report["passed"] is True


def test_corpus_verify_refuses_filter_matching_no_check(capsys):
    code = main(["corpus", "verify", "--only", "nosuch"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: no check name contains 'nosuch'\n"


def nested(depth):
    """`depth` comp nodes nested down their left operands."""
    return "(comp 0 0 " * depth + "t0" + " t0)" * depth


@pytest.mark.parametrize("command", [
    ["closure"],
    ["move", "--site", ",".join(["0"] * MAX_NESTING)],
    ["obstruct", "trefoil"],
])
def test_tangle_nesting_bound(capsys, command):
    sub, *rest = command
    assert main(["tangle", sub, nested(MAX_NESTING), *rest]) == 0
    capsys.readouterr()
    assert main(["tangle", sub, nested(MAX_NESTING + 1), *rest]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: tangle expression nests more than {MAX_NESTING} nodes deep\n"
    )


TOO_MANY_CIRCLES = f"error: line 1: more than {MAX_SPLIT_CIRCLES} split circles\n"
TOO_MANY_CROSSINGS = (
    f"error: tangle expression has more than {MAX_CROSSINGS} crossings\n")


@pytest.mark.parametrize("argv,stdin,message", [
    (["jones", "-"], "O 99999999999\n", TOO_MANY_CIRCLES),
    (["invariants", "-"], "O 99999999999\n", TOO_MANY_CIRCLES),
    (["color", "-", "--n", "3"], "O 99999999999\n", TOO_MANY_CIRCLES),
    (["kei", "burnside", "-", "--n", "3"], "O 99999999999\n", TOO_MANY_CIRCLES),
    (["color", "-", "--n", "3"], f"O {MAX_SPLIT_CIRCLES + 1}\n", TOO_MANY_CIRCLES),
    (["tangle", "closure", "(tw 99999999999)"], "", TOO_MANY_CROSSINGS),
    (["tangle", "obstruct", "(tw 99999999999)", "unknot"], "", TOO_MANY_CROSSINGS),
    (["tangle", "closure", f"(tw {MAX_CROSSINGS + 1})"], "", TOO_MANY_CROSSINGS),
])
def test_huge_counts_are_refused(capsys, monkeypatch, argv, stdin, message):
    """Refused by the parser, before any work grows with the count."""
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == message


def test_counts_at_their_bounds_are_accepted(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(f"O {MAX_SPLIT_CIRCLES}\n"))
    code, report = run_cli(capsys, "color", "-", "--n", "3")
    assert code == 0 and report["results"]["group"] == [3] * MAX_SPLIT_CIRCLES
    code, report = run_cli(capsys, "tangle", "closure", f"(tw {MAX_CROSSINGS})")
    assert code == 0 and report["results"]["crossings"] == MAX_CROSSINGS


@pytest.mark.parametrize("argv,text", [
    (["kei", "enum", "FILE"], "rel x0 = x1\ngens 2\n"),
    (["kei", "enum", "FILE"], "gens 2\nrel x0 x1\n"),
    (["kei", "enum", "FILE"], "gens 2\nburnside three\n"),
    (["kei", "check", "FILE"], "2\n0 2\n1 1\n"),
    (["kei", "iso", "FILE", "FILE"], "2\n0 0\n"),
    (["color", "FILE", "--n", "3"], "X 1 2 1 2\nO -1\n"),
    (["color", "FILE", "--n", "3"], "Y 1 2 1 2\n"),
    (["jones", "FILE"], "X 1 2 1 3\n"),
    (["braid", "image", "1 x 2"], ""),
    (["braid", "image", "1 5"], ""),
    (["tangle", "closure", "(comp 0 0 t0"], ""),
    (["tangle", "closure", "(comp 0 0 t0 t0 t0)"], ""),
    (["tangle", "closure", "(tw 1 x)"], ""),
    (["tangle", "closure", "t0 t0"], ""),
    (["jones", "FILE"], "X 7 4 7 2\nX 4 3 5 6\nX 5 1 0 6\nX 0 1 3 2\n"),  # not planar
    (["kei", "enum", "FILE"], "gens -1\n"),
])
def test_bad_input_is_one_error_line(capsys, tmp_path, argv, text):
    path = tmp_path / "input.txt"
    path.write_text(text)
    assert main([str(path) if a == "FILE" else a for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "Traceback" not in captured.err


def test_timings_add_wall_times(capsys):
    _, plain = run_cli(capsys, "jones", "trefoil")
    code, timed = run_cli(capsys, "--timings", "jones", "trefoil")
    assert code == 0 and "wall_time_s" not in plain
    assert isinstance(timed.pop("wall_time_s"), float)
    assert timed == plain
    _, plain = run_cli(capsys, "corpus", "verify", "--only", "coloring")
    code, timed = run_cli(capsys, "--timings", "corpus", "verify", "--only", "coloring")
    assert code == 0 and "wall_time_s" in timed
    checks = timed["results"]["checks"]
    assert checks and all(isinstance(c.pop("seconds"), float) for c in checks)
    assert checks == plain["results"]["checks"]


def test_corpus_verify_rejects_instances_below_one(capsys):
    for n in ("0", "-5"):
        code = main(["corpus", "verify", "--instances", n, "--only", "coloring"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error:")


def test_corpus_verify_corrupted_diagram(capsys, tmp_path):
    bad = tmp_path / "bad.pd"
    bad.write_text("X 1 1 1 2\n")
    code = main(["color", str(bad), "--n", "3"])
    assert code == 2


def test_reports_are_deterministic(capsys):
    _, first = run_cli(capsys, "corpus", "verify", "--only", "coloring")
    _, second = run_cli(capsys, "corpus", "verify", "--only", "coloring")
    assert first == second


def test_stdin_diagram(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("X 1 4 2 5\nX 3 6 4 1\nX 5 2 6 3"))
    code, report = run_cli(capsys, "color", "-", "--n", "3")
    assert code == 0
    assert report["results"]["order"] == 9


def test_invariants_reports_bracket_limit(capsys, monkeypatch):
    import io

    from tanglekit.diagrams import braid, braid_closure

    wide = braid_closure(braid(list(range(1, 10)) * 10))  # frontier width 20
    monkeypatch.setattr("sys.stdin", io.StringIO(wide.serialize()))
    code, report = run_cli(capsys, "invariants", "-", "--cap", "5")
    assert code == 0
    assert report["results"]["crossings"] == 90
    assert report["results"]["jones5_verdict"] == "diagram too large"


def test_kei_enum_reports_failed_certificate(capsys, monkeypatch, tmp_path):
    from tanglekit import presentation
    from tanglekit.kei import trivial_kei

    class Kernel:
        @staticmethod
        def run_enumeration(m, relations, pattern, cap):
            return 0, trivial_kei(2).table, [0, 1], 0

    monkeypatch.setattr(presentation, "KERNELS", {"pure": Kernel})
    pres = tmp_path / "q23.kei"
    pres.write_text("gens 2\nburnside 3\n")
    assert main(["kei", "enum", str(pres)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: enumerated table violates the universal relation\n"
    )


def test_kei_enum_over_the_memory_budget_is_an_error(capsys, monkeypatch, tmp_path):
    from tanglekit import presentation

    if "compiled" not in presentation.KERNELS:
        pytest.skip("compiled kernel not built")
    # `kei enum` runs the default kernel, the first in KERNELS
    monkeypatch.setattr(presentation, "KERNELS",
                        {"compiled": presentation.KERNELS["compiled"]})
    monkeypatch.setenv("TANGLEKIT_MAX_TABLE_BYTES", "20000")
    pres = tmp_path / "q34.kei"
    pres.write_text("gens 3\nburnside 4\n")
    assert main(["kei", "enum", str(pres)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: the Kei table would outgrow its memory budget"
        " (TANGLEKIT_MAX_TABLE_BYTES)\n"
    )


def test_emit_refuses_a_value_json_cannot_hold(capsys):
    args = argparse.Namespace(timings=False, command="color")
    with pytest.raises(TypeError):
        emit(args, {}, {"group": {5}})
    assert capsys.readouterr().out == ""
