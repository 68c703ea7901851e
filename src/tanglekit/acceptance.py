"""Acceptance checks: every quantitative claim the package reproduces,
bundled for the test suite and the `corpus verify` command.

Each check returns a result record; the randomized move-invariance
suites are seeded and deterministic for a fixed seed.  The three suites
that insert a power into a 3-braid draw their instances from one
generator, `_power_insertions`, and differ only in what they compare.
"""

from __future__ import annotations

import functools
import os
import random
import time
from dataclasses import dataclass
from itertools import islice

from .braids import conjugacy_census, coxeter_quotient, verify_reduction_chains
from .coloring import col_group, count_colorings_brute, coloring_matrix
from .corpus import CORPUS_EXPECTED, corpus
from .diagrams import braid, braid_closure, unlink
from .jones import determinant, jones, jones_at_fifth_root
from .kei import (
    core_kei,
    cyclic_group,
    dihedral_kei,
    group_product,
    kei_isomorphic,
    trivial_kei,
)
from .laurent import LaurentPoly
from .presentation import burnside_kei, enumerate_kei, fundamental_kei, q_kei
from .tangles import (
    Comp,
    Leaf,
    TangleExpr,
    TwistLeaf,
    apply_rational_move,
    closure_diagram,
    leaf_sites,
)

DEFAULT_SEED = 20050129
KEI_CAP = 8000  # element cap of the Burnside Kei enumerations
FUNDAMENTAL_KEI_CAP = 4000  # element cap of the fundamental Kei enumerations


@dataclass(frozen=True)
class CheckResult:
    criterion: int
    name: str
    passed: bool
    detail: str
    seconds: float


def _check(criterion: int, name: str):
    """Give a check its criterion and name, and time every call.

    The decorated body returns (passed, detail); callers get a
    `CheckResult` whose `seconds` come from `time.perf_counter()`.
    """

    def decorate(body):
        @functools.wraps(body)
        def timed(*args, **kwargs) -> CheckResult:
            t0 = time.perf_counter()
            passed, detail = body(*args, **kwargs)
            seconds = time.perf_counter() - t0
            return CheckResult(criterion, name, bool(passed), detail, seconds)

        timed.check_name = name
        return timed

    return decorate


@_check(1, "coxeter-quotient")
def check_coxeter_quotient():
    q = coxeter_quotient()
    census = conjugacy_census(q)
    short = sum(1 for r in census if r["min_length"] <= 8)
    ok = q.order == 600 and len(census) == 45 and short >= 36
    return ok, f"order={q.order} classes={len(census)} short-classes={short}"


@_check(2, "reduction-chain-steps")
def check_reduction_chains():
    steps = verify_reduction_chains()
    q = coxeter_quotient()
    full_twist = q.image(braid([1, 2] * 30, 3)) == 0
    failed = [s.label for s in steps if not s.passed]
    ok = not failed and full_twist
    return (
        ok,
        f"steps={len(steps)} failed={failed or 'none'} thirtieth-power-trivial={full_twist}",
    )


@_check(3, "free-burnside-kei-sizes")
def check_kei_cardinalities():
    facts = []
    for m, n, want in ((2, 3, 3), (3, 3, 9), (4, 3, 81), (3, 4, 96)):
        r = q_kei(m, n, cap=KEI_CAP)
        facts.append((f"Q({m},{n})", r.size == want))
    for n in range(2, 10):
        r = q_kei(2, n, cap=KEI_CAP)
        iso = r.completed and kei_isomorphic(r.kei, dihedral_kei(n)) is not None
        facts.append((f"Q(2,{n})~dihedral", iso))
    for m in range(1, 7):
        r = q_kei(m, 2, cap=KEI_CAP)
        iso = r.completed and kei_isomorphic(r.kei, trivial_kei(m)) is not None
        facts.append((f"Q({m},2)~trivial", iso))
    for n in range(2, 10):
        r = q_kei(1, n, cap=KEI_CAP)
        facts.append((f"Q(1,{n})", r.size == 1))
    bad = [name for name, ok in facts if not ok]
    return not bad, f"checked={len(facts)} failed={bad or 'none'}"


@_check(4, "exceptional-knot-burnside-kei")
def check_exceptional_burnside():
    entries = corpus()
    core55 = core_kei(group_product(cyclic_group(5), cyclic_group(5)))
    results = {}
    for name in ("9_40", "9_49"):
        results[name] = burnside_kei(entries[name], 5)
    ok = all(r.completed and r.size == 25 for r in results.values())
    if ok:
        k40, k49 = results["9_40"].kei, results["9_49"].kei
        ok = (
            kei_isomorphic(k40, k49) is not None
            and kei_isomorphic(k40, core55) is not None
        )
    sizes = {n: r.size for n, r in results.items()}
    return ok, f"sizes={sizes} both isomorphic to core(Z5+Z5)={ok}"


@_check(5, "fundamental-kei-sizes")
def check_fundamental_kei_sizes():
    entries = corpus()
    facts = []
    for name, want in (("trefoil", 3), ("4_1", 5)):
        r = enumerate_kei(fundamental_kei(entries[name]), cap=FUNDAMENTAL_KEI_CAP)
        facts.append((name, r.size == want))
    five_halves = closure_diagram(TwistLeaf((2, 2)), "numerator")
    r = enumerate_kei(fundamental_kei(five_halves), cap=FUNDAMENTAL_KEI_CAP)
    facts.append(("N(5/2)", r.size == 5))
    bad = [name for name, ok in facts if not ok]
    return not bad, f"failed={bad or 'none'}"


@_check(6, "coloring-groups")
def check_coloring_groups():
    facts = []
    for n in range(2, 8):
        for m in range(1, 5):
            g = col_group(unlink(m), n)
            facts.append((f"Col_{n}(U_{m})", g.cyclic_orders == (n,) * m))
    entries = corpus()
    facts.append(("Col5(4_1)", col_group(entries["4_1"], 5).cyclic_orders == (5, 5)))
    facts.append(
        ("Col5(trefoil)", col_group(entries["trefoil"], 5).cyclic_orders == (5,))
    )
    for name, d in sorted(entries.items()):
        if coloring_matrix(d).cols > 7:
            continue
        for n in range(2, 6):
            same = col_group(d, n).order == count_colorings_brute(d, n)
            facts.append((f"snf-vs-brute {name} n={n}", same))
    for name, d in sorted(entries.items()):
        facts.append(
            (f"det {name}", determinant(d) == CORPUS_EXPECTED[name]["determinant"])
        )
        facts.append(
            (
                f"components {name}",
                d.component_count() == CORPUS_EXPECTED[name]["components"],
            )
        )
    bad = [name for name, ok in facts if not ok]
    return not bad, f"checked={len(facts)} failed={bad or 'none'}"


@_check(7, "jones-fifth-root")
def check_jones_obstruction():
    entries = corpus()
    facts = [("V(4_1) at root", jones_at_fifth_root(entries["4_1"]).is_zero())]
    minus_s_pair = LaurentPoly({1: -1, -1: -1})
    for n in range(1, 6):
        un = unlink(n)
        facts.append((f"V(U_{n}) formula", jones(un) == minus_s_pair ** (n - 1)))
        facts.append((f"V(U_{n}) nonzero", not jones_at_fifth_root(un).is_zero()))
    bad = [name for name, ok in facts if not ok]
    return not bad, f"failed={bad or 'none'}"


# --- seeded move-invariance suites --------------------------------------


def _random_expr(rng: random.Random, depth: int) -> TangleExpr:
    if depth == 0 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.35:
            return Leaf("t0")
        if roll < 0.5:
            return Leaf("tinf")
        if roll < 0.7:
            return Leaf("x+" if rng.random() < 0.5 else "x-")
        word = tuple(rng.choice((-2, -1, 1, 2)) for _ in range(rng.randint(1, 2)))
        return TwistLeaf(word)
    return Comp(
        rng.randint(0, 1),
        rng.randint(0, 1),
        _random_expr(rng, depth - 1),
        _random_expr(rng, depth - 1),
    )


def _power_insertions(rng: random.Random, max_len: int, n: int | None = None):
    """Endless n-move instances: (closure of a random 3-braid word, closure
    of the word with a generator's n-th power inserted, n).

    Draws, in order: n from (3, 4, 5) unless given, the word's length
    and letters, the insertion position, the generator and its sign.
    """
    while True:
        k = rng.choice((3, 4, 5)) if n is None else n
        word = [rng.choice((-2, -1, 1, 2)) for _ in range(rng.randint(1, max_len))]
        pos = rng.randint(0, len(word))
        gen = rng.choice((1, 2)) * rng.choice((1, -1))
        inserted = word[:pos] + [gen] * k + word[pos:]
        yield braid_closure(braid(word, 3)), braid_closure(braid(inserted, 3)), k


@_check(8, "suite-5/2-move-col5")
def suite_five_halves_move(seed: int, instances: int):
    rng = random.Random(seed)
    kinds = ("numerator", "denominator")
    done = failures = 0
    while done < instances:
        expr = _random_expr(rng, 4)
        sites = leaf_sites(expr, "t0")
        if not sites:
            continue
        before = [col_group(closure_diagram(expr, kind), 5) for kind in kinds]
        for site in sites:
            sign = rng.choice((1, -1))
            moved = apply_rational_move(expr, site, 5, 2, sign)
            for kind, group in zip(kinds, before):
                if col_group(closure_diagram(moved, kind), 5) != group:
                    failures += 1
            done += 1
            if done >= instances:
                break
    return failures == 0, f"instances={done} failures={failures}"


@_check(8, "suite-n-move-coln")
def suite_power_insertion_coloring(seed: int, instances: int):
    pairs = _power_insertions(random.Random(seed + 1), 10)
    failures = sum(col_group(d, n) != col_group(moved, n)
                   for d, moved, n in islice(pairs, instances))
    return failures == 0, f"instances={instances} failures={failures}"


@_check(8, "suite-5-move-jones-zeroness")
def suite_power_insertion_jones(seed: int, instances: int):
    pairs = _power_insertions(random.Random(seed + 2), 8, 5)
    failures = sum(
        jones_at_fifth_root(d).is_zero() != jones_at_fifth_root(moved).is_zero()
        for d, moved, _ in islice(pairs, instances))
    return failures == 0, f"instances={instances} failures={failures}"


@_check(8, "suite-3-move-bq3-iso")
def suite_power_insertion_burnside(seed: int, instances: int):
    pairs = _power_insertions(random.Random(seed + 3), 10, 3)
    done = failures = capped = 0
    while done < instances:
        d, moved, n = next(pairs)
        r1 = burnside_kei(d, n, cap=KEI_CAP)
        r2 = burnside_kei(moved, n, cap=KEI_CAP)
        if not (r1.completed and r2.completed):
            capped += 1
            continue
        if kei_isomorphic(r1.kei, r2.kei) is None:
            failures += 1
        done += 1
    return failures == 0, f"instances={done} failures={failures} capped={capped}"


@_check(9, "excluded-scope")
def check_scope_note():
    return (
        True,
        "full 3-braid classification, Burnside-group machinery and "
        "figure-driven reductions are out of scope; covered indirectly by "
        "criteria 1-3 and 8",
    )


def run_acceptance(
    seed: int = DEFAULT_SEED,
    instances: int = 200,
    only: str | None = None,
) -> list[CheckResult]:
    """Run the acceptance checks; `only` filters by substring of the name
    before anything executes, and a filter that keeps no check is a
    ValueError."""
    if instances < 1:
        raise ValueError("instances must be >= 1")
    suite_args = (seed, instances)
    checks = [
        (check_coxeter_quotient, ()),
        (check_reduction_chains, ()),
        (check_kei_cardinalities, ()),
        (check_exceptional_burnside, ()),
        (check_fundamental_kei_sizes, ()),
        (check_coloring_groups, ()),
        (check_jones_obstruction, ()),
        (suite_five_halves_move, suite_args),
        (suite_power_insertion_coloring, suite_args),
        (suite_power_insertion_jones, suite_args),
        (suite_power_insertion_burnside, suite_args),
        (check_scope_note, ()),
    ]
    chosen = [(fn, args) for fn, args in checks if not only or only in fn.check_name]
    if not chosen:
        raise ValueError(f"no check name contains {only!r}")
    return _run_chosen(chosen)


def _run_chosen(chosen) -> list[CheckResult]:
    """Run (check, args) pairs and return their results in order.

    The seeded suites (the checks that take arguments) share nothing with
    the other checks.  Where `os.fork` exists and this process has one
    thread (forking a threaded process can deadlock), one forked child
    runs the suites while this process runs the rest; the child sends
    its results, or its exception, back pickled through a pipe.
    """
    import threading

    suites = [(fn, args) for fn, args in chosen if args]
    others = [(fn, args) for fn, args in chosen if not args]
    one_thread = threading.active_count() == 1
    if not (suites and others and one_thread and hasattr(os, "fork")):
        return [fn(*args) for fn, args in chosen]
    import pickle
    import signal

    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child never returns into the caller
        try:
            os.close(rfd)
            try:
                answer = [fn(*args) for fn, args in suites]
            except BaseException as exc:
                answer = exc
            try:
                data = pickle.dumps(answer)
                pickle.loads(data)
            except Exception:
                data = pickle.dumps(RuntimeError(repr(answer)))
            with os.fdopen(wfd, "wb") as out:
                out.write(data)
            os._exit(0)
        finally:
            os._exit(1)
    os.close(wfd)
    with os.fdopen(rfd, "rb") as pipe:
        try:
            mine = [fn(*args) for fn, args in others]
            data = pipe.read()
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code != 0:
        raise RuntimeError(f"the seeded suites' process exited with status {code}")
    answer = pickle.loads(data)
    if isinstance(answer, BaseException):
        raise answer
    theirs, mine = iter(answer), iter(mine)
    return [next(theirs) if args else next(mine) for _, args in chosen]
