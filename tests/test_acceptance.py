"""Acceptance battery: every headline quantity, exact, with the stated
time budgets.  One pass/fail line is printed per criterion (run pytest
with -s to see them all)."""

import os
import threading
import time

import pytest

from tanglekit import acceptance
from tanglekit.acceptance import (
    DEFAULT_SEED,
    _check,
    check_coloring_groups,
    check_coxeter_quotient,
    check_exceptional_burnside,
    check_fundamental_kei_sizes,
    check_jones_obstruction,
    check_kei_cardinalities,
    check_reduction_chains,
    check_scope_note,
    run_acceptance,
    suite_five_halves_move,
    suite_power_insertion_burnside,
    suite_power_insertion_coloring,
    suite_power_insertion_jones,
)

SUITE_INSTANCES = 200


def report(result, budget):
    status = "PASS" if result.passed else "FAIL"
    print(
        f"[{status}] criterion {result.criterion}: {result.name} "
        f"({result.seconds:.2f}s, budget {budget}s) - {result.detail}"
    )
    assert result.passed, result.detail
    assert result.seconds < budget, f"{result.name} exceeded {budget}s"


def test_criterion_1_coxeter_quotient():
    report(check_coxeter_quotient(), 5)


def test_criterion_2_reduction_chains():
    report(check_reduction_chains(), 1)


def test_criterion_3_kei_cardinalities():
    report(check_kei_cardinalities(), 120)


def test_criterion_4_exceptional_burnside():
    report(check_exceptional_burnside(), 120)


def test_criterion_5_fundamental_kei_sizes():
    report(check_fundamental_kei_sizes(), 10)


def test_criterion_6_coloring_groups():
    report(check_coloring_groups(), 5)


def test_criterion_7_jones_obstruction():
    report(check_jones_obstruction(), 1)


@pytest.fixture(scope="module")
def move_suites():
    results = [
        suite_five_halves_move(DEFAULT_SEED, SUITE_INSTANCES),
        suite_power_insertion_coloring(DEFAULT_SEED, SUITE_INSTANCES),
        suite_power_insertion_jones(DEFAULT_SEED, SUITE_INSTANCES),
        suite_power_insertion_burnside(DEFAULT_SEED, SUITE_INSTANCES),
    ]
    return results


def test_criterion_8_move_invariance_suites(move_suites):
    total = sum(r.seconds for r in move_suites)
    for r in move_suites:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{status}] criterion 8: {r.name} ({r.seconds:.2f}s) - {r.detail}")
        assert r.passed, r.detail
        assert f"instances={SUITE_INSTANCES}" in r.detail
    print(f"criterion 8 total: {total:.2f}s (budget 120s)")
    assert total < 120


def test_criterion_9_scope_note():
    r = check_scope_note()
    print(f"[PASS] criterion 9: {r.name} - {r.detail}")
    assert r.passed


# --- the seeded suites' forked child -------------------------------------
# "jones" picks criterion 7 and one seeded suite, so run_acceptance forks


def facts(results):
    return [(r.criterion, r.name, r.passed, r.detail) for r in results]


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def refuse_fork():
    raise AssertionError("forked")


def test_suites_run_in_one_forked_child(monkeypatch):
    forks = []
    fork = os.fork

    def counted_fork():
        forks.append(1)
        return fork()

    sequential = [check_jones_obstruction(), suite_power_insertion_jones(DEFAULT_SEED, 5)]
    monkeypatch.setattr(os, "fork", counted_fork)
    results = run_acceptance(instances=5, only="jones")
    assert forks == [1]
    assert facts(results) == facts(sequential)
    assert_no_child_left()


def test_no_fork_without_os_fork(monkeypatch):
    forked = run_acceptance(instances=5, only="jones")
    monkeypatch.delattr(os, "fork")
    assert facts(run_acceptance(instances=5, only="jones")) == facts(forked)


def test_no_fork_for_one_group_or_a_second_thread(monkeypatch):
    forked = run_acceptance(instances=5, only="jones")
    monkeypatch.setattr(os, "fork", refuse_fork)
    assert facts(run_acceptance(instances=5, only="suite-5-move")) == facts(forked[1:])
    assert facts(run_acceptance(only="jones-fifth")) == facts(forked[:1])
    release = threading.Event()
    waiter = threading.Thread(target=release.wait, args=(60,))
    waiter.start()
    try:
        threaded = run_acceptance(instances=5, only="jones")
    finally:
        release.set()
        waiter.join(60)
    assert not waiter.is_alive()
    assert facts(threaded) == facts(forked)


def replace_jones_suite(monkeypatch, body):
    suite = _check(8, "suite-5-move-jones-zeroness")(body)
    monkeypatch.setattr(acceptance, "suite_power_insertion_jones", suite)


def test_child_exception_reraises_in_the_caller(monkeypatch):
    def body(seed, instances):
        raise ValueError(f"bad seed {seed}")

    replace_jones_suite(monkeypatch, body)
    with pytest.raises(ValueError, match="^bad seed 3$"):
        run_acceptance(seed=3, instances=5, only="jones")
    assert_no_child_left()


def test_child_exception_that_does_not_pickle(monkeypatch):
    class Unpicklable(Exception):
        pass

    def body(seed, instances):
        raise Unpicklable("local class")

    replace_jones_suite(monkeypatch, body)
    with pytest.raises(RuntimeError, match="Unpicklable"):
        run_acceptance(instances=5, only="jones")
    assert_no_child_left()


def test_child_that_dies_without_an_answer(monkeypatch):
    def body(seed, instances):
        os._exit(3)

    replace_jones_suite(monkeypatch, body)
    with pytest.raises(RuntimeError, match="status 3"):
        run_acceptance(instances=5, only="jones")
    assert_no_child_left()


def test_caller_exception_kills_the_child(monkeypatch):
    @_check(7, "jones-fifth-root")
    def failing():
        raise KeyError("headline")

    replace_jones_suite(monkeypatch, lambda seed, instances: time.sleep(60))
    monkeypatch.setattr(acceptance, "check_jones_obstruction", failing)
    t0 = time.monotonic()
    with pytest.raises(KeyError, match="headline"):
        run_acceptance(instances=5, only="jones")
    assert time.monotonic() - t0 < 30
    assert_no_child_left()
