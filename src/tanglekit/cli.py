"""Command-line interface.

Reports are JSON with a schema_version field and sorted keys, so runs
with the same inputs and seed are byte-identical; wall-clock timings
are only included when --timings is passed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import acceptance
from .braids import conjugacy_census, coxeter_quotient, burau_image, verify_reduction_chains
from .coloring import col_group, has_nontrivial_colorings
from .corpus import CORPUS_EXPECTED, corpus, corpus_names
from .diagrams import LinkDiagram, parse_braid, parse_pd
from .errors import TangleKitError, TooLarge
from .jones import five_move_obstruction, five_move_verdict, jones, jones_at_fifth_root
from .kei import check_axioms, kei_isomorphic, parse_kei
from .presentation import (
    burnside_kei,
    enumerate_kei,
    kernel_backend,
    parse_presentation,
)
from .tangles import apply_rational_move, closure_diagram, embedding_obstruction, parse_expr, serialize_expr

SCHEMA_VERSION = 1


def load_diagram(spec: str) -> LinkDiagram:
    """A corpus name, a PD file path, or '-' for stdin."""
    if spec == "-":
        return parse_pd(sys.stdin.read())
    if spec in corpus():
        return corpus()[spec]
    path = Path(spec)
    if path.exists():
        return parse_pd(path.read_text())
    raise TangleKitError(
        f"{spec!r} is neither a corpus entry ({', '.join(corpus_names())}) nor a file"
    )


def emit(args, inputs: dict, results: dict, passed: bool | None = None):
    """Write the report of the command the parser read into `args`."""
    command = " ".join(filter(None, (args.command, getattr(args, "sub", None))))
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "inputs": inputs,
        "results": results,
    }
    if passed is not None:
        report["passed"] = passed
    if args.timings:
        report["wall_time_s"] = round(time.perf_counter() - args._t0, 3)
    sys.stdout.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    return 0 if passed in (None, True) else 1


def cmd_color(args) -> int:
    d = load_diagram(args.diagram)
    g = col_group(d, args.n)
    return emit(
        args,
        {"diagram": args.diagram, "n": args.n},
        {
            "group": list(g.cyclic_orders),
            "order": g.order,
            "nontrivial": has_nontrivial_colorings(d, args.n),
        },
    )


def cmd_kei_check(args) -> int:
    k = parse_kei(Path(args.table).read_text())
    violations = check_axioms(k)
    return emit(
        args,
        {"table": args.table},
        {"size": k.size, "violations": [list(v) for v in violations[:50]],
         "violation_count": len(violations)},
        passed=not violations,
    )


def cmd_kei_iso(args) -> int:
    k1 = parse_kei(Path(args.table1).read_text())
    k2 = parse_kei(Path(args.table2).read_text())
    bijection = kei_isomorphic(k1, k2)
    return emit(
        args,
        {"table1": args.table1, "table2": args.table2},
        {"isomorphic": bijection is not None, "bijection": bijection},
        passed=bijection is not None,
    )


def _enumeration_report(args, inputs: dict, r, **extra) -> int:
    """Report a Kei enumeration; `--table` adds the table once it completed."""
    results = {"completed": r.completed, "size": r.size,
               "deductions": r.deductions, "cap": r.cap, **extra}
    if r.completed and args.table:
        results["table"] = [list(row) for row in r.kei.table]
    return emit(args, inputs, results)


def cmd_kei_enum(args) -> int:
    pres = parse_presentation(Path(args.presentation).read_text())
    r = enumerate_kei(pres, cap=args.cap)
    return _enumeration_report(args, {"presentation": args.presentation}, r,
                               backend=r.backend)


def cmd_kei_burnside(args) -> int:
    r = burnside_kei(load_diagram(args.diagram), args.n, cap=args.cap)
    return _enumeration_report(args, {"diagram": args.diagram, "n": args.n}, r)


def cmd_braid_image(args) -> int:
    w = parse_braid(args.word, strands=3)
    m = burau_image(w)
    q = coxeter_quotient()
    element = q.image(w)
    return emit(
        args,
        {"word": args.word},
        {
            "burau": {
                "a": m.a.format("t"),
                "b": m.b.format("t"),
                "c": m.c.format("t"),
                "d": m.d.format("t"),
            },
            "quotient_element": element,
            "quotient_word": list(q.words[element]),
        },
    )


def cmd_braid_quotient_order(args) -> int:
    q = coxeter_quotient()
    return emit(args, {}, {"order": q.order})


def cmd_braid_census(args) -> int:
    q = coxeter_quotient()
    census = conjugacy_census(q)
    short = sum(1 for r in census if r["min_length"] <= 8)
    return emit(
        args,
        {},
        {
            "order": q.order,
            "class_count": len(census),
            "classes_with_length_at_most_8": short,
            "classes": [
                {"size": r["size"], "min_length": r["min_length"],
                 "representative": list(r["representative"])}
                for r in census
            ],
        },
    )


def cmd_braid_verify(args) -> int:
    steps = verify_reduction_chains()
    ok = all(s.passed for s in steps)
    return emit(
        args,
        {},
        {
            "steps": [
                {"label": s.label, "kind": s.kind, "passed": s.passed}
                for s in steps
            ]
        },
        passed=ok,
    )


def cmd_tangle_closure(args) -> int:
    expr = parse_expr(args.expr)
    d = closure_diagram(expr, args.kind)
    return emit(
        args,
        {"expr": args.expr, "kind": args.kind},
        {
            "pd": d.serialize().splitlines(),
            "crossings": d.crossing_count,
            "arcs": d.arc_count,
            "components": d.component_count(),
        },
    )


def cmd_tangle_move(args) -> int:
    expr = parse_expr(args.expr)
    site = tuple(int(x) for x in args.site.split(",")) if args.site else ()
    moved = apply_rational_move(expr, site, args.n, args.q, args.sign)
    return emit(
        args,
        {"expr": args.expr, "site": list(site), "n": args.n, "q": args.q,
         "sign": args.sign},
        {"result": serialize_expr(moved)},
    )


def cmd_tangle_obstruct(args) -> int:
    expr = parse_expr(args.expr)
    target = load_diagram(args.target)
    verdict = embedding_obstruction(expr, target, args.n)
    return emit(
        args,
        {"expr": args.expr, "target": args.target, "n": args.n},
        {"verdict": verdict},
    )


def cmd_jones(args) -> int:
    d = load_diagram(args.diagram)
    return emit(
        args,
        {"diagram": args.diagram},
        {"polynomial_in_sqrt_t": jones(d).format("s")},
    )


def cmd_jones5(args) -> int:
    d = load_diagram(args.diagram)
    value = jones_at_fifth_root(d)
    return emit(
        args,
        {"diagram": args.diagram},
        {
            "value_coordinates": list(value.coords),
            "is_zero": value.is_zero(),
            "verdict": five_move_verdict(value),
        },
    )


def cmd_invariants(args) -> int:
    d = load_diagram(args.diagram)
    bq = burnside_kei(d, 5, cap=args.cap)
    try:
        verdict = five_move_obstruction(d)
    except TooLarge:
        verdict = "diagram too large"
    return emit(
        args,
        {"diagram": args.diagram},
        {
            "components": d.component_count(),
            "crossings": d.crossing_count,
            "col3": list(col_group(d, 3).cyclic_orders),
            "col5": list(col_group(d, 5).cyclic_orders),
            "col5_nontrivial": has_nontrivial_colorings(d, 5),
            "bq5_size": bq.size,
            "bq5_completed": bq.completed,
            "jones5_verdict": verdict,
        },
    )


def cmd_corpus_verify(args) -> int:
    results = acceptance.run_acceptance(
        seed=args.seed, instances=args.instances, only=args.only
    )
    ok = all(r.passed for r in results)
    payload = {
        "checks": [
            {
                "criterion": r.criterion,
                "name": r.name,
                "passed": r.passed,
                "detail": r.detail,
                **({"seconds": round(r.seconds, 3)} if args.timings else {}),
            }
            for r in results
        ],
        "backend": kernel_backend(),
    }
    return emit(
        args,
        {"seed": args.seed, "instances": args.instances, "only": args.only},
        payload,
        passed=ok,
    )


def cmd_corpus_list(args) -> int:
    entries = corpus()
    return emit(
        args,
        {},
        {
            "entries": [
                {
                    "name": name,
                    "crossings": d.crossing_count,
                    "arcs": d.arc_count,
                    "components": d.component_count(),
                    "expected_determinant": CORPUS_EXPECTED[name]["determinant"],
                }
                for name, d in sorted(entries.items())
            ]
        },
    )


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="tanglekit",
        description="Link invariants for rational-move calculus.",
    )
    p.add_argument("--timings", action="store_true", help="include wall times in reports")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("color", help="Fox n-coloring group of a diagram")
    c.add_argument("diagram")
    c.add_argument("--n", type=int, required=True)
    c.set_defaults(fn=cmd_color)

    kei = sub.add_parser("kei", help="finite Kei operations").add_subparsers(
        dest="sub", required=True
    )
    k = kei.add_parser("check")
    k.add_argument("table")
    k.set_defaults(fn=cmd_kei_check)
    k = kei.add_parser("iso")
    k.add_argument("table1")
    k.add_argument("table2")
    k.set_defaults(fn=cmd_kei_iso)
    k = kei.add_parser("enum")
    k.add_argument("presentation")
    k.add_argument("--cap", type=int, default=None)
    k.add_argument("--table", action="store_true", help="include the full table")
    k.set_defaults(fn=cmd_kei_enum)
    k = kei.add_parser("burnside")
    k.add_argument("diagram")
    k.add_argument("--n", type=int, required=True)
    k.add_argument("--cap", type=int, default=None)
    k.add_argument("--table", action="store_true")
    k.set_defaults(fn=cmd_kei_burnside)

    br = sub.add_parser("braid", help="3-braid word problem").add_subparsers(
        dest="sub", required=True
    )
    b = br.add_parser("image")
    b.add_argument("word", help="whitespace-separated signed generators, e.g. '1 1 2 -1'")
    b.set_defaults(fn=cmd_braid_image)
    b = br.add_parser("quotient-order")
    b.set_defaults(fn=cmd_braid_quotient_order)
    b = br.add_parser("census")
    b.set_defaults(fn=cmd_braid_census)
    b = br.add_parser("verify-prop27")
    b.set_defaults(fn=cmd_braid_verify)

    tg = sub.add_parser("tangle", help="tangle expressions").add_subparsers(
        dest="sub", required=True
    )
    t = tg.add_parser("closure")
    t.add_argument("expr")
    t.add_argument("--kind", default="numerator", choices=["num", "numerator", "den", "denominator"])
    t.set_defaults(fn=cmd_tangle_closure)
    t = tg.add_parser("move")
    t.add_argument("expr")
    t.add_argument("--site", default="", help="comma-separated path of 0/1 steps")
    t.add_argument("--n", type=int, default=5)
    t.add_argument("--q", type=int, default=2)
    t.add_argument("--sign", type=int, default=1, choices=[1, -1])
    t.set_defaults(fn=cmd_tangle_move)
    t = tg.add_parser("obstruct")
    t.add_argument("expr")
    t.add_argument("target")
    t.add_argument("--n", type=int, default=5)
    t.set_defaults(fn=cmd_tangle_obstruct)

    j = sub.add_parser("jones", help="Jones polynomial in sqrt(t)")
    j.add_argument("diagram")
    j.set_defaults(fn=cmd_jones)
    j = sub.add_parser("jones5", help="exact value at t = e^(i pi/5)")
    j.add_argument("diagram")
    j.set_defaults(fn=cmd_jones5)

    inv = sub.add_parser("invariants", help="invariant bundle for a diagram")
    inv.add_argument("diagram")
    inv.add_argument("--cap", type=int, default=None)
    inv.set_defaults(fn=cmd_invariants)

    co = sub.add_parser("corpus", help="embedded corpus").add_subparsers(
        dest="sub", required=True
    )
    c = co.add_parser("verify")
    c.add_argument("--seed", type=int, default=acceptance.DEFAULT_SEED)
    c.add_argument("--instances", type=int, default=200)
    c.add_argument("--only", default=None, help="run only checks whose name contains this")
    c.set_defaults(fn=cmd_corpus_verify)
    c = co.add_parser("list")
    c.set_defaults(fn=cmd_corpus_list)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    args._t0 = time.perf_counter()
    try:
        return args.fn(args)
    except (TangleKitError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
