"""Exact word problem in B_3 and its finite quotient by fifth powers.

Two oracles:

* the reduced Burau representation (faithful on three strands), with
  2x2 matrices over exact integer Laurent polynomials, decides equality
  in B_3 itself;
* coset enumeration of <s1, s2 | s1 s2 s1 = s2 s1 s2, s1^5> realizes
  the 600-element quotient, in which equality models 5-move
  equivalence of 3-braids (the fifth power of every conjugate of a
  generator dies, so inserting five equal letters anywhere is
  invisible).  The fifth power is the only one the paper uses, so
  `coxeter_quotient` builds that quotient alone, once per process.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .diagrams import BraidWord, braid
from .errors import EnumerationFailure, UnsupportedStrandCount
from .laurent import LaurentPoly


@dataclass(frozen=True)
class LaurentMatrix2:
    a: LaurentPoly
    b: LaurentPoly
    c: LaurentPoly
    d: LaurentPoly

    def __mul__(self, other: "LaurentMatrix2") -> "LaurentMatrix2":
        return LaurentMatrix2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    @classmethod
    def identity(cls) -> "LaurentMatrix2":
        one, zero = LaurentPoly.one(), LaurentPoly.zero()
        return cls(one, zero, zero, one)

    def det(self) -> LaurentPoly:
        return self.a * self.d - self.b * self.c


def _generator_matrices() -> dict[int, LaurentMatrix2]:
    t = LaurentPoly.var(1)
    tinv = LaurentPoly.var(-1)
    one, zero = LaurentPoly.one(), LaurentPoly.zero()
    return {
        1: LaurentMatrix2(-t, one, zero, one),
        -1: LaurentMatrix2(-tinv, tinv, zero, one),
        2: LaurentMatrix2(one, zero, t, -t),
        -2: LaurentMatrix2(one, zero, one, -tinv),
    }


_BURAU = _generator_matrices()


def burau_image(w: BraidWord) -> LaurentMatrix2:
    """Reduced Burau matrix of a 3-braid; equal iff the braids are equal."""
    if w.strands != 3:
        raise UnsupportedStrandCount(f"reduced Burau oracle needs 3 strands, got {w.strands}")
    m = LaurentMatrix2.identity()
    for g in w.letters:
        m = m * _BURAU[g]
    return m


def braids_equal(u: BraidWord, v: BraidWord) -> bool:
    return burau_image(u) == burau_image(v)


# --- coset enumeration -------------------------------------------------

_INV = {0: 1, 1: 0, 2: 3, 3: 2}
COSET_CAP = 100000


def _coset_enumerate(relators: list[list[int]]) -> list[list[int]]:
    """HLT coset enumeration over the trivial subgroup, 2 generators,
    refusing to define more than COSET_CAP cosets.

    Returns the completed table with live rows compacted in BFS order.
    """
    table: list[list[int | None]] = [[None] * 4]
    p = [0]

    def rep(x: int) -> int:
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def define(alpha: int, x: int) -> int:
        if len(table) >= COSET_CAP:
            raise EnumerationFailure(f"coset cap {COSET_CAP} exceeded")
        beta = len(table)
        table.append([None] * 4)
        p.append(beta)
        table[alpha][x] = beta
        table[beta][_INV[x]] = alpha
        return beta

    def coincidence(a: int, b: int) -> None:
        queue: list[int] = []

        def merge(x: int, y: int) -> None:
            x, y = rep(x), rep(y)
            if x == y:
                return
            if x > y:
                x, y = y, x
            p[y] = x
            queue.append(y)

        merge(a, b)
        i = 0
        while i < len(queue):
            y = queue[i]
            i += 1
            for x in range(4):
                d = table[y][x]
                if d is None:
                    continue
                table[d][_INV[x]] = None
                mu, nu = rep(y), rep(d)
                if table[mu][x] is not None:
                    merge(nu, table[mu][x])
                elif table[nu][_INV[x]] is not None:
                    merge(mu, table[nu][_INV[x]])
                else:
                    table[mu][x] = nu
                    table[nu][_INV[x]] = mu

    def scan_and_fill(alpha: int, word: list[int]) -> None:
        f, i = alpha, 0
        b, j = alpha, len(word) - 1
        while True:
            while i <= j and table[f][word[i]] is not None:
                f = table[f][word[i]]
                i += 1
            if i > j:
                if f != b:
                    coincidence(f, b)
                return
            while j >= i and table[b][_INV[word[j]]] is not None:
                b = table[b][_INV[word[j]]]
                j -= 1
            if j < i:
                coincidence(f, b)
                return
            if j == i:
                table[f][word[i]] = b
                table[b][_INV[word[i]]] = f
                return
            define(f, word[i])

    alpha = 0
    while alpha < len(table):
        if rep(alpha) == alpha:
            for rel in relators:
                scan_and_fill(alpha, rel)
                if rep(alpha) != alpha:
                    break
            if rep(alpha) == alpha:
                for x in range(4):
                    if table[alpha][x] is None:
                        define(alpha, x)
        alpha += 1

    # compact live cosets in BFS order from the identity coset
    order: list[int] = [rep(0)]
    index = {rep(0): 0}
    head = 0
    while head < len(order):
        c = order[head]
        head += 1
        for x in range(4):
            d = rep(table[c][x])
            if d not in index:
                index[d] = len(order)
                order.append(d)
    out = []
    for c in order:
        out.append([index[rep(table[c][x])] for x in range(4)])
    return out


@dataclass(frozen=True)
class QuotientGroup:
    """Finite quotient of B_3 with a full multiplication table.

    Elements are 0..order-1 with 0 the identity; `words` holds one
    shortest representative word per element (letters +-1, +-2).
    """

    mult: tuple[tuple[int, ...], ...]
    words: tuple[tuple[int, ...], ...]
    s1: int
    s2: int

    @property
    def order(self) -> int:
        return len(self.mult)

    def inverse(self, x: int) -> int:
        return self.mult[x].index(0)

    def element_order(self, x: int) -> int:
        k, y = 1, x
        while y != 0:
            y = self.mult[y][x]
            k += 1
        return k

    def image(self, w: BraidWord) -> int:
        if w.strands != 3:
            raise UnsupportedStrandCount("quotient images are defined for 3-braids")
        gens = {1: self.s1, 2: self.s2}
        x = 0
        for g in w.letters:
            e = gens[abs(g)]
            if g < 0:
                e = self.inverse(e)
            x = self.mult[x][e]
        return x

    def is_central(self, x: int) -> bool:
        return all(v == row[x] for v, row in zip(self.mult[x], self.mult))

    def conjugacy_classes(self) -> list[list[int]]:
        n = self.order
        cls = [-1] * n
        classes = []
        i1, i2 = self.inverse(self.s1), self.inverse(self.s2)
        conjugators = [(i1, self.s1), (i2, self.s2), (self.s1, i1), (self.s2, i2)]  # (g^-1, g)
        for x in range(n):
            if cls[x] != -1:
                continue
            orbit = [x]
            cls[x] = len(classes)
            head = 0
            while head < len(orbit):
                y = orbit[head]
                head += 1
                for g_inv, g in conjugators:
                    z = self.mult[self.mult[g_inv][y]][g]
                    if cls[z] == -1:
                        cls[z] = len(classes)
                        orbit.append(z)
            classes.append(sorted(orbit))
        return classes


@functools.cache
def coxeter_quotient() -> QuotientGroup:
    """The quotient of B_3 by the normal closure of s1**5, Coxeter's
    finite group of order 600."""
    relators = [
        [0, 2, 0, 3, 1, 3],  # s1 s2 s1 s2^-1 s1^-1 s2^-1
        [0] * 5,
    ]
    action = _coset_enumerate(relators)  # action[x][letter] = x * letter
    n = len(action)
    letters_sym = {0: 1, 1: -1, 2: 2, 3: -2}

    # shortest representative words by BFS over right multiplication, and
    # the full multiplication table one column per element along the BFS
    # tree: column y = x * letter is column x acted on by the letter
    words: list[tuple[int, ...] | None] = [None] * n
    words[0] = ()
    cols: list[list[int]] = [[]] * n
    cols[0] = list(range(n))
    queue = [0]
    head = 0
    while head < len(queue):
        x = queue[head]
        head += 1
        for letter in range(4):
            y = action[x][letter]
            if words[y] is None:
                words[y] = words[x] + (letters_sym[letter],)
                cols[y] = [action[v][letter] for v in cols[x]]
                queue.append(y)

    return QuotientGroup(
        mult=tuple(zip(*cols)),
        words=tuple(words),  # type: ignore[arg-type]
        s1=action[0][0],
        s2=action[0][2],
    )


def quotient_image(w: BraidWord) -> int:
    return coxeter_quotient().image(w)


def conjugacy_census(q: QuotientGroup) -> list[dict]:
    """Conjugacy classes with sizes and minimal representative lengths."""
    out = []
    for cl in q.conjugacy_classes():
        min_len = min(len(q.words[x]) for x in cl)
        rep = min((x for x in cl), key=lambda x: (len(q.words[x]), q.words[x]))
        out.append(
            {
                "size": len(cl),
                "min_length": min_len,
                "representative": q.words[rep],
            }
        )
    out.sort(key=lambda r: (r["min_length"], r["size"], r["representative"]))
    return out


# --- mechanical verification of the 5-move reduction chains ------------


def _w(letters) -> BraidWord:
    return braid(letters, strands=3)


def _pow(seq, k):
    return list(seq) * k


@dataclass(frozen=True)
class VerificationStep:
    label: str
    kind: str  # exact | quotient | conjugate-exact
    lhs: tuple[int, ...]
    rhs: tuple[int, ...]
    conjugator: tuple[int, ...] | None
    passed: bool


def _steps() -> list[tuple[str, str, list[int], list[int], list[int] | None]]:
    sq12 = _pow([1, 2], 6)  # (s1 s2)^6, square of the center
    alpha1_bar = _pow([-1, -1, 2], 3)
    alpha2 = [1, 1, 2, 2, -1, -1, 2, 2, 1, 1, -2, -2]
    steps = [
        ("i.1", "exact",
         alpha1_bar,
         _pow([-1, -1, 2], 2) + [-2, -1, -2, 1, 2, -1, 2], None),
        ("i.2", "exact",
         _pow([-1, -1, 2], 2) + [-2, -1, -2, 1, 2, -1, 2],
         [-1, -1, 2, -1, -1, -1, -2, 1, 2, -1, 2], None),
        ("i.3", "exact",
         [-1, -1, 2, -1, -1, -1, -2, 1, 2, -1, 2],
         [-1, -1, 2, -1, -1, -1, -2, -2, 1, 2, 2], None),
        ("i.4", "quotient",
         [-1, -1, 2, -1, -1, -1, -2, -2, 1, 2, 2],
         [1, 1, 1, 2, 1, 1, 2, 2, 2, 1, 2, 2], None),
        ("i.5", "exact",
         [1, 1, 1, 2, 1, 1, 2, 2, 2, 1, 2, 2],
         sq12, None),
        ("ii.1", "conjugate-exact",
         alpha2,
         [1, 2, 2, -1, -1, 2] + [2, 1, 1, -2, -2, 1],
         [-1]),
        ("ii.2", "quotient",
         [1, 2, 2, -1, -1, 2] + [2, 1, 1, -2, -2, 1],
         [1, 2, 2, 1, 1, 1, 2] + [2, 1, 1, 2, 2, 2, 1], None),
        ("ii.3", "exact",
         sq12,
         [1, 1, 2, 2, 2, 1, 2, 2, 1, 1, 1, 2], None),
        ("ii.4", "exact",
         sq12,
         [2, 2, 1, 1, 1, 2, 1, 1, 2, 2, 2, 1], None),
        ("ii.5", "exact",
         [1, 2, 2, 1, 1, 1, 2] + [2, 1, 1, 2, 2, 2, 1],
         sq12 + [-2, -2, -2, -1, -1, -1, -1, -1, -2, -2] + sq12, None),
        ("ii.6", "quotient",
         sq12 + [-2, -2, -2, -1, -1, -1, -1, -1, -2, -2] + sq12,
         _pow([1, 2], 12), None),
        ("iii.1", "exact",
         _pow([1, 2], 15),
         [1, 1, 1, 2, 1, 1, 2, -1] + _pow([1, 2], 12), None),
        ("iii.2", "exact",
         [1, 1, 1, 2, 1, 1, 2, -1] + _pow([1, 2], 12),
         [1, 1, 1, 2] + _pow([1, 2], 3) + [1, 1] + _pow([1, 2], 3)
         + [2, -1] + _pow([1, 2], 6), None),
        ("iii.3", "exact",
         [1, 1, 1, 2] + _pow([1, 2], 3) + [1, 1] + _pow([1, 2], 3)
         + [2, -1] + _pow([1, 2], 6),
         [1, 1, 1, 2] + [2, 1, 1, 2, 1, 1] + [1, 1]
         + [1, 2, 2] + [2, 2, 1, 2, 2, 1] + [1] + [1, 2, 2, 1, 2, 2]
         + [2, 2] + [2, -1], None),
        ("iii.4", "exact",
         [1, 1, 1, 2] + [2, 1, 1, 2, 1, 1] + [1, 1]
         + [1, 2, 2] + [2, 2, 1, 2, 2, 1] + [1] + [1, 2, 2, 1, 2, 2]
         + [2, 2] + [2, -1],
         [1, 1, 1] + [2, 2] + [1, 1] + [2] + [1] * 5 + [2] * 4 + [1]
         + [2, 2] + [1, 1, 1] + [2, 2] + [1] + [2] * 5 + [-1], None),
        ("iii.5", "quotient",
         [1, 1, 1] + [2, 2] + [1, 1] + [2] + [1] * 5 + [2] * 4 + [1]
         + [2, 2] + [1, 1, 1] + [2, 2] + [1] + [2] * 5 + [-1],
         _pow([-1, -1, 2, 2], 3), None),
        ("iii.6", "conjugate-exact",
         _pow([-1, -1, 2, 2], 3),
         _pow([-2, -2, 1, 1], 3),
         [1, 2, 1]),
        ("iii.7", "quotient",
         _pow([-2, -2, 1, 1], 3),
         [-2, -1] * 15, None),
        ("iii.8", "quotient",
         _pow([1, 2], 30),
         [], None),
        ("iv", "quotient",
         [-2, -1] * 12,
         _pow([1, 2], 18), None),
        ("v", "quotient",
         [-2, -1] * 6,
         _pow([1, 2], 24), None),
    ]
    return steps


def verify_reduction_chains() -> list[VerificationStep]:
    """Check every displayed identity in the 3-braid reduction chains.

    `exact` steps are decided by the Burau oracle, `quotient` steps by
    equality of images in the fifth-power quotient, `conjugate-exact`
    steps by the stated conjugator and the Burau oracle.
    """
    q = coxeter_quotient()
    out = []
    for label, kind, lhs, rhs, conj in _steps():
        wl, wr = _w(lhs), _w(rhs)
        if kind == "exact":
            passed = braids_equal(wl, wr)
        elif kind == "quotient":
            passed = q.image(wl) == q.image(wr)
        elif kind == "conjugate-exact":
            c = _w(conj)
            conjugated = c * wl * c.inverse()
            passed = braids_equal(conjugated, wr)
        else:
            raise ValueError(kind)
        out.append(
            VerificationStep(
                label,
                kind,
                tuple(lhs),
                tuple(rhs),
                tuple(conj) if conj else None,
                passed,
            )
        )
    return out
