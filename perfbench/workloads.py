"""Seeded query streams for the four workloads, and the answer checks.

`build(workload, seed)` returns one pass of the stream: a list of
`Query`.  The same seed always gives the same queries.  The program sees
only the generated inputs: PD text on stdin, or a presentation file.
PD text is produced from seeded braid words and tangle expressions with
the package's own constructors (`braid_closure`, `closure_diagram`),
outside any timed region.

Each pass is built so that its latency statistics land inside
a group of queries of equal cost, not on the edge between two groups:
the tail (the 11th slowest query, which has 10 beyond it) and the
median each fall in the middle of one such group.  That keeps the
figures steady from seed to seed.

`check(workload, queries, replies)` returns one failure reason per
failed query (or per failed acceptance check for `verify`); answers are
checked after the pass, never inside the timed region.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass, field

from tanglekit.coloring import coloring_matrix, smith_normal_form
from tanglekit.corpus import corpus
from tanglekit.diagrams import LinkDiagram, braid, braid_closure, parse_pd
from tanglekit.jones import eval_at_fifth_root, writhe
from tanglekit.kei import FiniteKei, check_axioms
from tanglekit.laurent import LaurentPoly
from tanglekit.presentation import fundamental_kei
from tanglekit.tangles import closure_diagram, parse_expr

KEI_CAP = 8000

# Sizes the paper states; the benchmark compares completed tables to them.
KNOWN_SIZES = {
    "Q(3,3)": 9, "Q(4,3)": 81, "Q(3,4)": 96,
    **{f"Q(2,{n})": n for n in range(2, 10)},
    **{f"Q({m},2)": m for m in range(1, 7)},
    "BQ5(9_40)": 25, "BQ5(9_49)": 25,
}


@dataclass
class Query:
    id: str
    argv: list
    stdin: str = ""
    files: dict = field(default_factory=dict)  # relative path -> text
    expect: dict = field(default_factory=dict)

    def message(self) -> dict:
        return {"id": self.id, "argv": self.argv, "stdin": self.stdin}


# --- input generators ------------------------------------------------------


def _relabel(rng, d: LinkDiagram) -> LinkDiagram:
    """The same diagram with its crossings in another order, which the
    program reads with another arc numbering."""
    crossings = list(d.crossings)
    rng.shuffle(crossings)
    return parse_pd(LinkDiagram(tuple(crossings), d.arc_count,
                                d.unknotted_split_circles).serialize())


def _relabel_oriented(rng, d: LinkDiagram, tries=200) -> LinkDiagram:
    """A relabelling with the same writhe, so the same Jones polynomial.

    The program orients each component by where its lowest arc first
    appears, so reordering the crossings can reverse some components of
    a link; the bracket does not change, but the writhe may."""
    target = writhe(parse_pd(d.serialize()))
    for _ in range(tries):
        copy = _relabel(rng, d)
        if writhe(copy) == target:
            return copy
    raise RuntimeError(f"no relabelling of {d.serialize()!r} kept its writhe")


def _pd_key(d: LinkDiagram) -> str:
    return parse_pd(d.serialize()).serialize()  # the diagram as the program reads it


def _distinct(seen: set, make, key=_pd_key):
    """Call make() for a (source, diagram) pair until key(diagram) is one
    the program has not been given yet."""
    while True:
        source, d = make()
        k = key(d)
        if k not in seen:
            seen.add(k)
            return source, d


def _braid_word(rng, length):
    """A 3-braid word without adjacent inverse letters."""
    word = []
    while len(word) < length:
        g = rng.choice((-2, -1, 1, 2))
        if not word or g != -word[-1]:
            word.append(g)
    return word


def _alternating_word(rng, pairs, emax):
    """sigma1^a1 sigma2^-b1 ... with `pairs` syllable pairs."""
    word = []
    for _ in range(pairs):
        word += [1] * rng.randint(1, emax) + [-2] * rng.randint(1, emax)
    return word


def _tangle_expr(rng, crossings):
    """A tangle expression whose numerator closure has `crossings` crossings."""
    cuts = sorted(rng.sample(range(1, crossings), rng.randint(1, 2)))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [crossings])]
    leaves = []
    for p in parts:
        if p == 1:
            leaves.append(rng.choice(("x+", "x-")))
            continue
        first = rng.randint(1, p)
        terms = [first] + ([p - first] if p > first else [])
        terms = [t * rng.choice((1, -1)) for t in terms]
        leaves.append("(tw " + " ".join(map(str, terms)) + ")")
    expr = leaves[0]
    for leaf in leaves[1:]:
        expr = f"(comp {rng.randint(0, 1)} {rng.randint(0, 1)} {expr} {leaf})"
    return expr


def _determinant(d) -> int:
    """Product of the Smith invariant factors of the coloring matrix;
    0 when its rank is below columns - 1."""
    m = coloring_matrix(d)
    factors = smith_normal_form(m.rows) if m.rows else []
    if len(factors) != m.cols - 1:
        return 0
    out = 1
    for f in factors:
        out *= f
    return out


# One `jones` pass: for each crossing count, the number of diagrams queried
# with both `jones` and `jones5`, then diagrams queried with `jones` only.
# `jones5` evaluates the bracket twice, so it costs what `jones` costs at
# one crossing more.  With that the 85 queries fall into equal-cost
# groups: the median lands in the middle of the ten (8-crossing jones,
# 7-crossing jones5) queries and the tail (11th slowest) in the middle of
# the thirteen (12-crossing jones, 11-crossing jones5) ones.
JONES_PAIRED = {4: 6, 5: 5, 6: 5, 7: 5, 8: 5, 9: 2, 10: 2, 11: 8}
JONES_ONLY = (12, 12, 12, 12, 12, 13, 14, 15, 16)


def _seeded_diagram(rng, c):
    """A 3-braid closure or a tangle numerator closure with c crossings."""
    if rng.random() < 0.5:
        word = _braid_word(rng, c)
        source, d = f"braid {word}", braid_closure(braid(word, 3))
    else:
        source = _tangle_expr(rng, c)
        d = closure_diagram(parse_expr(source), "numerator")
    assert d.crossing_count == c, (source, d.crossing_count)
    return source, d


def build_jones(rng):
    plan = [(c, ("jones", "jones5")) for c, n in JONES_PAIRED.items() for _ in range(n)]
    plan += [(c, ("jones",)) for c in JONES_ONLY]
    queries, seen = [], set()
    for k, (c, commands) in enumerate(plan):
        source, d = _distinct(seen, lambda: _seeded_diagram(rng, c))
        key = f"c{c:02d}-{k}"
        expect = {"diagram": key, "source": source,
                  "components": d.component_count(), "determinant": _determinant(d)}
        queries.append(Query(f"jones-{key}", ["jones", "-"], d.serialize(), expect=expect))
        if "jones5" in commands:
            _, d5 = _distinct(seen, lambda: (source, _relabel_oriented(rng, d)))
            queries.append(Query(f"jones5-{key}", ["jones5", "-"], d5.serialize(),
                                 expect=expect))
    rng.shuffle(queries)
    return queries


def _enum_query(qid, pres_text, cap, expect):
    path = f"{qid}.pres"
    return Query(qid, ["kei", "enum", path, "--cap", str(cap), "--table"],
                 files={path: pres_text}, expect=expect)


def _burnside_query(qid, d, n, cap, expect):
    return Query(qid, ["kei", "burnside", "-", "--n", str(n), "--cap", str(cap),
                       "--table"], d.serialize(), expect=expect)


def _closure(word):
    return word, braid_closure(braid(word, 3))


def _relabelled_closure(rng, word):
    return word, _relabel(rng, braid_closure(braid(word, 3)))


def build_kei(rng):
    """Enumerations that complete.  Two heavy free Kei, then seventeen
    BQ5 of relabelled 9-crossing corpus knots (the tail, 11th slowest, is
    the middle one of them), then cheap ones around the median: small
    free Kei, small BQ5 and sixteen BQ3 of seeded 8-crossing closures."""
    entries = corpus()
    done = {"status": "completed"}
    seen = set()

    def free(m, n):
        return _enum_query(f"Q({m},{n})", f"gens {m}\nburnside {n}\n", KEI_CAP,
                           {**done, "name": f"Q({m},{n})"})

    queries = [free(3, 4), free(4, 3), free(3, 3)]
    queries += [free(2, n) for n in range(2, 10)]
    queries += [free(m, 2) for m in (1, 3, 4, 5, 6)]
    for name, copies in (("9_40", 6), ("9_49", 6), ("9_2_40", 5),
                         ("trefoil", 1), ("4_1", 1), ("8_18", 1)):
        for k in range(copies):
            _, d = _distinct(seen, lambda: (name, _relabel(rng, entries[name])))
            queries.append(_burnside_query(f"BQ5({name})-{k}", d, 5, KEI_CAP,
                                           {**done, "name": f"BQ5({name})"}))
    for k in range(16):
        word, d = _distinct(seen, lambda: _closure(_braid_word(rng, 8)))
        queries.append(_burnside_query(f"BQ3-{k}", d, 3, KEI_CAP,
                                       {**done, "source": f"braid {word}"}))
    rng.shuffle(queries)
    return queries


def _unlink_word(rng, half):
    """u u^-1 for a random u: a 3-component closure whose BQ5 is the free
    Q(3,5), so its enumeration stops at any modest cap."""
    u = _braid_word(rng, half)
    return u + [-g for g in reversed(u)]


# The 3-component closure whose BQ5 did not finish within 5 s at cap 8000.
UNLINK8 = [-2, -1, -1, 1, -1, 1, 1, 2]


def build_kei_capout(rng):
    """Enumerations that stop at the cap.  Three heavy ones with fixed
    inputs (the largest tables); fifteen fundamental Kei of 8- and
    9-crossing corpus knots at cap 200 (the tail, 11th slowest, is the
    middle one); twelve of seeded 9-crossing closures at cap 80 (the
    median lands in their middle); sixteen light ones at caps 20-40.

    The cap-200 group is the four knots as stored plus eleven seeded
    relabellings of 8_18 and 9_2_40, whose time to the cap varies least
    from one relabelling to another, so that the tail depends little on
    which inputs a seed drew.  The seeded closures are relabelled too,
    because there are only twenty alternating 9-crossing words of the
    shape used."""
    entries = corpus()
    capped = {"status": "capped"}
    seen = set()

    def pres(d):
        return fundamental_kei(d).serialize()

    def fund(qid, d, cap, source):
        seen.add(pres(d))
        return _enum_query(qid, pres(d), cap, {**capped, "source": source})

    def nine_crossings():
        word = []
        while len(word) != 9:
            word = _alternating_word(rng, 3, 2)
        return word

    def light():
        return _alternating_word(rng, rng.choice((3, 4)), 2)

    queries = [
        _enum_query("Q(4,4)", "gens 4\nburnside 4\n", 200, capped),
        _enum_query("Q(5,3)", "gens 5\nburnside 3\n", 200, capped),
        _burnside_query("BQ5-unlink8", braid_closure(braid(UNLINK8, 3)), 5, 250,
                        {**capped, "source": f"braid {UNLINK8}"}),
    ]
    for name in ("9_40", "9_49", "8_18", "9_2_40"):
        queries.append(fund(f"fund({name})", entries[name], 200, name))
    for k, name in enumerate(["8_18"] * 6 + ["9_2_40"] * 5):
        _, d = _distinct(seen, lambda: (name, _relabel(rng, entries[name])), key=pres)
        queries.append(fund(f"fund({name})-{k}", d, 200, name))
    for k, cap in enumerate([80] * 12 + [40] * 10):
        make = nine_crossings if cap == 80 else light
        word, d = _distinct(seen, lambda: _relabelled_closure(rng, make()), key=pres)
        queries.append(fund(f"fund-{k}", d, cap, f"braid {word}"))
    unlinks = set()
    for k in range(6):
        word, d = _distinct(unlinks, lambda: _closure(_unlink_word(rng, 4)))
        queries.append(_burnside_query(f"BQ5-3comp-{k}", d, 5, 20,
                                       {**capped, "source": f"braid {word}"}))
    rng.shuffle(queries)
    return queries


def build_verify(seed):
    return [Query("corpus-verify", ["corpus", "verify", "--seed", str(seed)])]


def build(workload: str, seed: int) -> list[Query]:
    if workload == "verify":
        return build_verify(seed)
    rng = random.Random(f"{workload}:{seed}")
    return {"jones": build_jones, "kei": build_kei,
            "kei-capout": build_kei_capout}[workload](rng)


# --- answer checks ---------------------------------------------------------


def digest(reply: dict) -> str:
    """Digest of a query's answer: exit code and report, minus the inputs
    and the kernel backend's name."""
    try:
        report = json.loads(reply["stdout"])
    except (KeyError, ValueError):
        report = reply.get("stdout")
    if isinstance(report, dict):  # both kernels must give the same answer
        report = {k: v for k, v in report.items() if k != "inputs"}
        if isinstance(report.get("results"), dict):
            report["results"] = {k: v for k, v in report["results"].items()
                                 if k != "backend"}
    text = json.dumps([reply.get("rc"), report], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


_TERM = re.compile(r"([+-]?)\s*(\d*)\*?(?:s(?:\^(-?\d+))?)?$")


def parse_poly(text: str) -> LaurentPoly:
    """Inverse of LaurentPoly.format('s')."""
    coeffs = {}
    for term in re.split(r"\s(?=[+-]\s)", text.strip()):
        m = _TERM.match(term.strip())
        if not m or term.strip() in ("", "+", "-"):
            raise ValueError(f"bad term {term!r} in {text!r}")
        sign, mag, exp = m.groups()
        has_var = "s" in term
        value = int(mag) if mag else 1
        e = (int(exp) if exp else 1) if has_var else 0
        coeffs[e] = -value if sign == "-" else value
    return LaurentPoly(coeffs)


def _value_at_minus_one(v: LaurentPoly) -> int:
    """|V(-1)| with s = i."""
    re_, im = 0, 0
    for e, c in v.coeffs.items():
        k = e % 4
        if k == 0:
            re_ += c
        elif k == 1:
            im += c
        elif k == 2:
            re_ -= c
        else:
            im -= c
    return abs(re_) + abs(im) if not (re_ and im) else -1


def _check_jones(q, res, polys):
    e = q.expect
    v = polys.get(e["diagram"])
    if v is None:
        return "no jones answer for this diagram"
    if q.argv[0] == "jones":
        if sum(v.coeffs.values()) != (-2) ** (e["components"] - 1):
            return "V(1) != (-2)^(components-1)"
        if _value_at_minus_one(v) != e["determinant"]:
            return "|V(-1)| != product of Smith invariant factors"
        return ""
    coords = list(res["value_coordinates"])
    if coords != list(eval_at_fifth_root(v).coords):
        return "jones5 value differs from V evaluated at the root"
    if res["is_zero"] != (not any(coords)):
        return "is_zero disagrees with the coordinates"
    if (res["verdict"] == "not-5-move-trivializable") != res["is_zero"]:
        return "verdict disagrees with is_zero"
    return ""


def _check_kei(q, res, _):
    if q.expect["status"] == "capped":
        ok = res["completed"] is False and res["size"] is None
        return "" if ok else "completed, expected to stop at the cap"
    if not res["completed"]:
        return "stopped at the cap, expected to complete"
    table = res["table"]
    known = KNOWN_SIZES.get(q.expect.get("name"))
    if len(table) != res["size"]:
        return "table size differs from reported size"
    if known is not None and res["size"] != known:
        return f"size {res['size']}, the paper's is {known}"
    if check_axioms(FiniteKei(tuple(map(tuple, table)))):
        return "table violates the Kei axioms"
    return ""


def check(workload, queries, replies):
    """Failure reasons for one pass.  `replies[i]` is None when query i
    missed its deadline.  For `verify` each failed acceptance check
    counts, and so does a `passed` field that disagrees with them."""
    reports = []
    for reply in replies:
        try:
            reports.append(json.loads(reply["stdout"]) if reply["rc"] in (0, 1) else None)
        except (TypeError, ValueError):
            reports.append(None)
    polys = {}
    for q, rep in zip(queries, reports):
        if rep is not None and q.argv[0] == "jones":
            try:
                polys[q.expect["diagram"]] = parse_poly(
                    rep["results"]["polynomial_in_sqrt_t"])
            except (KeyError, TypeError, ValueError):
                pass
    reasons = []
    for q, reply, rep in zip(queries, replies, reports):
        if reply is None:
            reasons.append(f"{q.id}: missed its deadline")
            continue
        if rep is None:
            reasons.append(f"{q.id}: exit {reply['rc']}: {reply['stderr'][-300:]}")
            continue
        try:
            res = rep["results"]
            if workload == "verify":
                problems = [f"{c['name']}: {c['detail']}"
                            for c in res["checks"] if not c["passed"]]
                if rep["passed"] is not all(c["passed"] for c in res["checks"]):
                    problems.append("'passed' disagrees with the checks")
            else:
                checker = _check_jones if workload == "jones" else _check_kei
                problems = [checker(q, res, polys)]
        except (KeyError, TypeError, ValueError) as exc:
            problems = [f"malformed answer ({exc!r})"]
        reasons += [f"{q.id}: {p}" for p in problems if p]
    return reasons


def attempted(workload, replies) -> int:
    """Queries run, or acceptance checks run for `verify`."""
    if workload != "verify":
        return len(replies)
    count = 0
    for reply in replies:
        try:
            count += len(json.loads(reply["stdout"])["results"]["checks"])
        except (TypeError, KeyError, ValueError):
            count += 1
    return count
