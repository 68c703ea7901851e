"""Enumeration output pinned to recorded digests, for every kernel.

These pins are the one check on kernel output: each runs on the pure
kernel, and on the compiled one as well whenever it is built.  Each
pin is a SHA-256 over compact JSON of (status, table rows, generator
images, deduction count).  A change to which deductions the enumerator
makes, or to the order in which it creates elements, moves the table
or the count and so the digest, even when the Kei it finds
is isomorphic.  A capped run yields only its status and count, so its
pin sees less.  The cases cover completed and capped runs, r_n on all
pairs and, written as relations by `on_generator_pairs`, on generator
pairs only, and seeded presentations with relations.
Q(3,4) and Q(4,3) take seconds and are left out; `test_determinism`
pins them.  `test_random_presentations_golden` pins one digest over 150
seeded random presentations, `test_universal_pass_dead_pair_golden`
one input that reaches a guard no other pin does, and
`test_totalize_renumbering_golden` inputs on which the compiled kernel
renumbers its slots before a totalize fill.
`test_write_order_golden` pins the order
of the pure kernel's table writes, which these outputs cannot see,
`test_long_growth_write_order_golden` does so on long cap-out runs,
`test_many_merges_write_order_golden` on a run that merges as often as
it grows, and `test_dead_key_write_order_golden` on a run where a
pattern reads under a key that a merge in the same visit killed.
"""

import hashlib
import json
import random
from collections import deque

import pytest

from tanglekit import _enumpy
from tanglekit.corpus import corpus
from tanglekit.diagrams import braid, braid_closure, parse_pd
from tanglekit.presentation import (
    KERNELS,
    KeiPresentation,
    enumerate_kei,
    free_burnside_presentation,
    fundamental_kei,
    parse_presentation,
    r_n_relation,
)

TREFOIL = parse_pd("X 1 4 2 5\nX 3 6 4 1\nX 5 2 6 3")


def on_generator_pairs(pres):
    """`pres` with its r_n imposed on generator pairs only: the
    relations x_i = r_n(x_i, x_j) for i != j, in lexicographic (i, j)
    order, take the place of the universal relation."""
    if pres.burnside_exponent is None:
        return pres
    rhs = r_n_relation(pres.burnside_exponent)[1]
    m = pres.generator_count
    pairs = tuple(((i,), tuple((i, j)[x] for x in rhs))
                  for i in range(m) for j in range(m) if i != j)
    return KeiPresentation(m, pres.relations + pairs)


def free(m, n, cap, all_pairs=True):
    return lambda: (free_burnside_presentation(m, n), cap, all_pairs)


def fund(diagram, cap, n=None):
    def make():
        pres = fundamental_kei(diagram())
        return (pres if n is None else pres.with_burnside(n)), cap, True
    return make


def seeded(seed):
    """Fundamental Kei of a seeded closure of a 2- to 4-strand braid of
    2-7 letters, with an optional universal relation r_3..r_5."""
    def make():
        rng = random.Random(seed)
        strands = rng.randint(2, 4)
        word = [rng.choice((1, -1)) * rng.randint(1, strands - 1)
                for _ in range(rng.randint(2, 7))]
        pres = fundamental_kei(braid_closure(braid(word, strands)))
        n = rng.choice((None, 3, 4, 5))
        if n is not None:
            pres = pres.with_burnside(n)
        return pres, rng.choice((20, 60, 150, 400)), rng.random() < 0.5
    return make


CASES = [
    *((f"Q({m},{n})", free(m, n, 4000))
      for m, n in [(1, 5), (2, 3), (2, 5), (2, 9), (3, 2), (3, 3)]),
    ("fund(trefoil)", fund(lambda: TREFOIL, 1000)),
    ("fund(1-2-1-2)", fund(lambda: braid_closure(braid([1, -2, 1, -2])), 1000)),
    ("BQ5(1 1 -2 x3)", fund(lambda: braid_closure(braid([1, 1, -2] * 3)), 20000, 5)),
    ("Q(3,3)-cap5", free(3, 3, 5)),
    ("Q(2,4)-genpairs", free(2, 4, 500, all_pairs=False)),
    ("Q(3,3)-genpairs-cap1000", free(3, 3, 1000, all_pairs=False)),
    ("Q(4,4)-cap200", free(4, 4, 200)),
    ("fund(9_2_40)-cap200", fund(lambda: corpus()["9_2_40"], 200)),
    ("fund(8_18)-cap200", fund(lambda: corpus()["8_18"], 200)),
    ("BQ5(8_18)", fund(lambda: corpus()["8_18"], 20000, 5)),
    ("BQ4(3 2 1 2 3 1 3 3)-cap10",
     fund(lambda: braid_closure(braid([3, 2, 1, 2, 3, 1, 3, 3], 4)), 10, 4)),
    ("BQ4(-2 2 -1 2 2 2 -1)-cap20",
     fund(lambda: braid_closure(braid([-2, 2, -1, 2, 2, 2, -1], 3)), 20, 4)),
    *((f"seeded-{seed}", seeded(seed)) for seed in range(20)),
]

GOLDEN = {
    "Q(1,5)": "abc3ce6dee68eb4363319a765c09cde24fbb8ee4caec445a77192b71675b5a7b",
    "Q(2,3)": "3887609adfd69622820dd531d1765a247f85d831854963025d39eb2f2f54f1de",
    "Q(2,5)": "bfb116df557cea92147dc404a78df31111006b6bd234eaae34d0a6721b5638bd",
    "Q(2,9)": "64c3688abdb005a397e3690be1195151610c49e837bb833d6d257ebc71177879",
    "Q(3,2)": "a6b521217da697f3a0f4b9cc76993604c520a261bae7d08cc347d7bafd08b0f7",
    "Q(3,3)": "848e15cedf1986930eacb453fc2b4f680e009db78fe2d6d590552057ac8a97ec",
    "fund(trefoil)": "89b2c6e7f9747023d48374051917b5369d43cef5204afca7c4e5bc5e0576554d",
    "fund(1-2-1-2)": "babf43ef3173f79f468d01e204fa73dd7ac36f63e30c12c44d11e57968d2bf6f",
    "BQ5(1 1 -2 x3)": "2355eb6cbd4f5632006a2ce24ae54a7241ed7c1a97c6ae943606ebd975c5d2e1",
    "Q(3,3)-cap5": "2d3b9c6d5934bbaf313566cd4bf71dc6bad3efdccca24bef554c952e52e06a6f",
    "Q(2,4)-genpairs": "4f8abf12efb499ee96fab15f8ca5e6ac9c3a42254a8357bf9135f0f82a70e871",
    "Q(3,3)-genpairs-cap1000": "2d3b9c6d5934bbaf313566cd4bf71dc6bad3efdccca24bef554c952e52e06a6f",
    "Q(4,4)-cap200": "324de2f9aa8467f96f5ffd873fba7504677cc7173e488a7aaabc4066b6ec7498",
    "fund(9_2_40)-cap200": "2d3b9c6d5934bbaf313566cd4bf71dc6bad3efdccca24bef554c952e52e06a6f",
    "fund(8_18)-cap200": "2d3b9c6d5934bbaf313566cd4bf71dc6bad3efdccca24bef554c952e52e06a6f",
    "BQ5(8_18)": "07f96a9487f4645c32357f5af8e64cfcbeb20888c12e09c0e397489d25241a6b",
    "BQ4(3 2 1 2 3 1 3 3)-cap10": "8889401a45a20ca68c2d8f23ceba6ea86b5684cd3a25824c6b58102dee723b9c",
    "BQ4(-2 2 -1 2 2 2 -1)-cap20": "194f2f1d9f6b5988e3db30f2479d4b4e5f3cb97c2d4ee2cb2f627379bbbb4032",
    "seeded-0": "696ffbe04d6be658c841174268be5558bc37c8e5dba4ad61cd6408761b8bccb9",
    "seeded-1": "36bfab94bb19abbc4ef7ef3ea88927ed506fec8cdef1601efa36fdac64815f3e",
    "seeded-2": "5d9b784048e9db7b8005845034e7d1bccfb9315c32b1559db5a9936251a21861",
    "seeded-3": "5e9d1c0c5b4c94f143955d512220be52745a6465e8966b68338727861d23f8f9",
    "seeded-4": "a9caf5932782b52734d0bce163241ceed7e4eef8dbc0e6f3ad296a6a66b1febc",
    "seeded-5": "ed4ce21d07329f71a6ad368d0613d8ad23a16b3a6ecde48d5d919c64944987ba",
    "seeded-6": "011b55cfe0245f20abd41a38f27b69ad0df633152f9b68670424c8ab647d71ea",
    "seeded-7": "20bb5813e1fe1b9d2292e517ee3e6a407dc77328277ba0727fd260a10c268a4f",
    "seeded-8": "3af4556f9d5f9665aac624de8588f2547e9098df69248729396d4246b9dc52eb",
    "seeded-9": "36bfab94bb19abbc4ef7ef3ea88927ed506fec8cdef1601efa36fdac64815f3e",
    "seeded-10": "57480e32f095d67b128681dec2a436154f4d4e126db71174fa4abd8299c957e0",
    "seeded-11": "1a4e5944d746736435d5a9f53f1de2ce99f836e793f7f7d54c44be9cb687092d",
    "seeded-12": "3af4556f9d5f9665aac624de8588f2547e9098df69248729396d4246b9dc52eb",
    "seeded-13": "4a0fdb65055db649c20e827aadab2ec87d2811692bfd5565120cea90445e9315",
    "seeded-14": "382c88fb55b3bacd98c416852a36ec0e68b36c78e430397af4a16069463ebda0",
    "seeded-15": "5d9b784048e9db7b8005845034e7d1bccfb9315c32b1559db5a9936251a21861",
    "seeded-16": "7433c64a0f8c27835061b0d5fcbbe745cff61b55e86df5d117a343591fc63291",
    "seeded-17": "43b5c3652ef9a7bb74b113320b81ce89c52458efe224835bd5ed7df9e72e258c",
    "seeded-18": "57032d80e7ecab2b206253741316890c2547d0a5e84aa68cf9df8a70cd652450",
    "seeded-19": "42c237433b5737ec2c76aca10e61c84bd14152c3ea24f56a398083fe7543fe28",
}


def random_presentation(seed):
    """1-4 generators, up to 4 relations between words of 1-4 letters,
    an optional r_2..r_5 on all pairs or on generator pairs, cap 20-200."""
    rng = random.Random(seed)
    m = rng.randint(1, 4)

    def word():
        return tuple(rng.randrange(m) for _ in range(rng.randint(1, 4)))

    relations = tuple((word(), word()) for _ in range(rng.randint(0, 4)))
    pres = KeiPresentation(m, relations, rng.choice((None, 2, 3, 4, 5)))
    return pres, rng.choice((20, 50, 100, 200)), rng.random() < 0.5


RANDOM_GOLDEN = "33f212f8f9d1fbbb0e209280c816533e90bc597c3aa01f5128b5650acaca2b6f"


def run_record(pres, cap, all_pairs, backend="pure") -> list:
    if not all_pairs:
        pres = on_generator_pairs(pres)
    r = enumerate_kei(pres, cap, backend=backend)
    return [
        0 if r.completed else 1,
        r.kei.table if r.completed else None,
        r.generator_images,
        r.deductions,
    ]


def digest(record) -> str:
    text = json.dumps(record, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("cid,make", CASES, ids=[c for c, _ in CASES])
def test_enumeration_golden(cid, make):
    for backend in KERNELS:
        assert digest(run_record(*make(), backend)) == GOLDEN[cid], backend


def test_random_presentations_golden():
    for backend in KERNELS:
        records = [run_record(*random_presentation(seed), backend)
                   for seed in range(150)]
        assert digest(records) == RANDOM_GOLDEN, backend


def test_relation_loop_cap_stop_golden():
    """The first relation grows the table past the cap, so the run stops
    before it traces the second."""
    pres = KeiPresentation(3, (((0, 1, 2), (2, 1, 0)), ((0,), (1,))))
    for backend in KERNELS:
        assert digest(run_record(pres, 3, True, backend)) == (
            "2d3b9c6d5934bbaf313566cd4bf71dc6bad3efdccca24bef554c952e52e06a6f"
        ), backend


def test_universal_pass_dead_pair_golden():
    """A universal pass where a merge made by an earlier trace of the
    inner loop kills `u` and its new root is `w`, so `trace_universal`
    skips that pair at its `find(u) == w` guard (once, by a line trace).
    It completes with 4 elements after 17 deductions."""
    pres = parse_presentation("gens 3\nrel x1*x0*x1*x1*x1 = x2*x1*x0*x2\nburnside 4\n")
    for backend in KERNELS:
        assert digest(run_record(pres, 50, True, backend)) == (
            "535b67ea24de6a4fb0c8a4be9b750559f1b86edf7f5a6728314a8a7f0b757ad9"
        ), backend


def test_totalize_renumbering_golden():
    """Two presentations that complete with 3 elements, and Q(3,6) and
    Q(5,4) with r_n on generator pairs only, as relations, which stop
    at cap 100.  On each, the compiled kernel renumbers its slots to
    make room for a totalize fill, a renumbering that the other pins do
    not reach; on the first two, the pair to fill is itself renumbered."""
    inputs = [
        (KeiPresentation(4, (((0, 0, 1, 2, 0), (3, 1, 3, 3, 3, 3)),
                             ((0,), (0, 1, 1)),
                             ((3, 2, 2, 2, 3, 1), (3, 3, 3, 3)),
                             ((1, 0, 1, 2, 1), (1, 2, 2, 0)),
                             ((1, 0, 1, 3), (0, 3, 2, 3, 2)),
                             ((3, 2, 2, 2, 0), (0,)))), 100, False),
        (KeiPresentation(4, (((2, 1, 1), (2, 3, 0, 1)),
                             ((1, 1, 1, 1, 3), (2, 0, 0)),
                             ((0, 2, 1, 2), (2, 1)),
                             ((1, 3), (1, 1)))), 10, False),
        (free_burnside_presentation(3, 6), 100, False),
        (free_burnside_presentation(5, 4), 100, False),
    ]
    for backend in KERNELS:
        assert digest([run_record(*case, backend) for case in inputs]) == (
            "84175a4698478627526f7e4344539052e345b976ef4d1d039bd671a147a04147"
        ), backend


WRITE_ORDER_GOLDEN = "f3a84884adda6e02091f674618726c701696bf055cfaab6cec14c88e700f4e02"


def write_order_digest(monkeypatch, inputs) -> str:
    """`put` schedules exactly one event per table write, so an event
    queue that logs every append logs the order of the writes."""
    log = []

    class WriteLog(deque):
        def append(self, key):
            log.append(key)
            super().append(key)

    monkeypatch.setattr(_enumpy, "deque", WriteLog)
    records = []
    for pres, cap, all_pairs in inputs:
        record = run_record(pres, cap, all_pairs)
        records.append([log[:], record])
        log.clear()
    return digest(records)


def test_write_order_golden(monkeypatch):
    inputs = ([make() for _, make in CASES]
              + [random_presentation(seed) for seed in range(150)]
              + [(free_burnside_presentation(4, 3), 4000, True)])
    assert write_order_digest(monkeypatch, inputs) == WRITE_ORDER_GOLDEN


# A 3-component closure whose BQ5 is the free Q(3,5), so it grows to any cap.
UNLINK8 = [-2, -1, -1, 1, -1, 1, 1, 2]
LONG_GROWTH_GOLDEN = "6a01f59c414d3bb488e72396dc49b6da855dbf898c3710f2e7d45fff0ec87128"


def test_long_growth_write_order_golden(monkeypatch):
    """Runs that grow for hundreds of totalize fills and universal
    passes before their cap.  All but the last stop with 0 merges, so
    their outputs share one digest and only the write order sees how
    they grew."""
    inputs = [
        (fundamental_kei(corpus()["8_18"]), 2000, True),
        (fundamental_kei(corpus()["9_40"]), 1000, True),
        (free_burnside_presentation(3, 3), 2000, False),
        (fundamental_kei(braid_closure(braid(UNLINK8, 3))).with_burnside(5), 500, True),
    ]
    assert write_order_digest(monkeypatch, inputs) == LONG_GROWTH_GOLDEN


MANY_MERGES_GOLDEN = "f1f6626beee23bf1a893cad575641fa25185c012371b0e627c3adcbc1410ec81"


def test_many_merges_write_order_golden(monkeypatch):
    """Q(4,4) at cap 2000 makes 1,997 merges before its cap, so many of
    the values it reads were stored before their element died.  The
    pure kernel's write order, with its output, is pinned; every other
    kernel's output is pinned to the same stop and deduction count."""
    q44 = (free_burnside_presentation(4, 4), 2000, True)
    for backend in KERNELS.keys() - {"pure"}:
        assert digest(run_record(*q44, backend)) == (
            "dd2a0954404cc231aebf6a26c2be3cbca97bce209011d67b25d0f5c87d4cef63"
        ), backend
    assert write_order_digest(monkeypatch, [q44]) == MANY_MERGES_GOLDEN


DEAD_KEY_GOLDEN = "7a24b3d8221fdbf994c7f455ed015d8f214beb555125dcaeced3fef11b964e16"


def test_dead_key_write_order_golden(monkeypatch):
    """BQ3 of 9_49, which completes with 1 element after 8 merges.  A
    `confront` merges away a key that the next pattern of the same
    visit reads, and that pattern reads the entry as undefined.  A
    kernel that resolved the keys through `find` would give the same
    outputs here, but its 46th of 53 writes would differ."""
    bq3 = (fundamental_kei(corpus()["9_49"]).with_burnside(3), 8000, True)
    assert write_order_digest(monkeypatch, [bq3]) == DEAD_KEY_GOLDEN
