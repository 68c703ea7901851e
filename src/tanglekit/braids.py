"""Exact word problem in B_3 and its finite quotient by fifth powers.

Two oracles:

* the reduced Burau representation (faithful on three strands), with
  2x2 matrices over exact integer Laurent polynomials, decides equality
  in B_3 itself;
* the 600-element quotient <s1, s2 | s1 s2 s1 = s2 s1 s2, s1^5> is
  SL(2,5) x Z/5; a breadth-first search over that faithful image gives
  its right regular action (`action`) with a shortest word per element
  (`words`), and `times` follows a word through the action.  Equality
  there models 5-move equivalence of 3-braids (the fifth power of
  every conjugate of a generator dies, so inserting five equal letters
  anywhere is invisible).  The fifth power is the only one the paper
  uses, so `coxeter_quotient` builds that quotient alone, once per
  process.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .diagrams import BraidWord, braid
from .errors import UnsupportedStrandCount
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


# --- the fifth-power quotient -------------------------------------------

_LETTERS = (1, -1, 2, -2)  # the signed generator of each action column
_COLUMN = {g: x for x, g in enumerate(_LETTERS)}
# each letter's image in SL(2,5) x Z/5: a 2x2 matrix over F_5, row-major,
# and the exponent sum mod 5
_IMAGE = {
    1: ((1, 1, 0, 1), 1),
    -1: ((1, 4, 0, 1), 4),
    2: ((1, 0, 4, 1), 1),
    -2: ((1, 0, 1, 1), 4),
}


def _image_times(x, g: int):
    """The image x times the image of the letter g."""
    (a, b, c, d), e = x
    (p, q, r, s), f = _IMAGE[g]
    m = ((a * p + b * r) % 5, (a * q + b * s) % 5, (c * p + d * r) % 5, (c * q + d * s) % 5)
    return m, (e + f) % 5


@dataclass(frozen=True)
class QuotientGroup:
    """Finite quotient of B_3 as the right regular action of its generators.

    Elements are 0..order-1 with 0 the identity; `action[x]` is
    (x s1, x s1^-1, x s2, x s2^-1) and `words[x]` one shortest word
    (letters +-1, +-2) with image x.
    """

    action: tuple[tuple[int, ...], ...]
    words: tuple[tuple[int, ...], ...]
    s1: int
    s2: int

    @property
    def order(self) -> int:
        return len(self.action)

    def times(self, x: int, letters) -> int:
        """The element x times the word `letters` (signed generators)."""
        for g in letters:
            x = self.action[x][_COLUMN[g]]
        return x

    def inverse(self, x: int) -> int:
        return self.times(0, [-g for g in reversed(self.words[x])])

    def element_order(self, x: int) -> int:
        k, y = 1, x
        while y != 0:
            y = self.times(y, self.words[x])
            k += 1
        return k

    def image(self, w: BraidWord) -> int:
        if w.strands != 3:
            raise UnsupportedStrandCount("quotient images are defined for 3-braids")
        return self.times(0, w.letters)

    def is_central(self, x: int) -> bool:
        # s1 and s2 generate the group
        return all(self.times(x, (g,)) == self.times(0, (g,) + self.words[x]) for g in (1, 2))

    def conjugacy_classes(self) -> list[list[int]]:
        n = self.order
        cls = [-1] * n
        classes = []
        for x in range(n):
            if cls[x] != -1:
                continue
            orbit = [x]
            cls[x] = len(classes)
            head = 0
            while head < len(orbit):
                y = orbit[head]
                head += 1
                for g in (1, 2, -1, -2):
                    z = self.times(0, (-g, *self.words[y], g))  # g^-1 y g
                    if cls[z] == -1:
                        cls[z] = len(classes)
                        orbit.append(z)
            classes.append(sorted(orbit))
        return classes


@functools.cache
def coxeter_quotient() -> QuotientGroup:
    """The quotient Q of B_3 by the normal closure of s1**5, Coxeter's
    finite group of order 600, as SL(2,5) x Z/5.

    s1 and s2 go to the matrices [[1,1],[0,1]] and [[1,0],[-1,1]] over
    F_5, each paired with 1 in Z/5 (`_IMAGE`).  The map is faithful:

    * both images satisfy s1 s2 s1 = s2 s1 s2 and s1^5 = 1, so the map
      factors through Q;
    * the two unitriangular matrices generate SL(2,5), and the exponent
      sum maps onto Z/5, so the image projects onto both factors;
    * SL(2,5) is perfect, so it has no Z/5 quotient, and by Goursat's
      lemma the image is the whole product, of order 600;
    * Q has order 600 (Coxeter, 1957), so the map from Q onto
      SL(2,5) x Z/5 is an isomorphism.

    A breadth-first search from the identity, trying the letters in the
    column order (s1, s1^-1, s2, s2^-1), numbers the elements.  That
    numbering depends only on the Cayley graph, not on the image.
    """
    identity = ((1, 0, 0, 1), 0)
    elements, index, words, action = [identity], {identity: 0}, [()], []
    for head, x in enumerate(elements):  # elements grows while it is walked
        row = []
        for g in _LETTERS:
            y = _image_times(x, g)
            if y not in index:
                index[y] = len(elements)
                elements.append(y)
                words.append(words[head] + (g,))
            row.append(index[y])
        action.append(tuple(row))
    return QuotientGroup(tuple(action), tuple(words), s1=action[0][0], s2=action[0][2])


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
    """(label, kind, lhs, rhs, conjugator) of every step, in order.

    Each chain below is a start word and its steps (label, kind, rhs,
    conjugator); a step's lhs is the previous step's rhs.
    """
    sq12 = _pow([1, 2], 6)  # (s1 s2)^6, square of the center
    ii_mid = [1, 2, 2, 1, 1, 1, 2] + [2, 1, 1, 2, 2, 2, 1]
    chains = [
        (_pow([-1, -1, 2], 3), [  # alpha1 bar
            ("i.1", "exact", _pow([-1, -1, 2], 2) + [-2, -1, -2, 1, 2, -1, 2], None),
            ("i.2", "exact", [-1, -1, 2, -1, -1, -1, -2, 1, 2, -1, 2], None),
            ("i.3", "exact", [-1, -1, 2, -1, -1, -1, -2, -2, 1, 2, 2], None),
            ("i.4", "quotient", [1, 1, 1, 2, 1, 1, 2, 2, 2, 1, 2, 2], None),
            ("i.5", "exact", sq12, None),
        ]),
        ([1, 1, 2, 2, -1, -1, 2, 2, 1, 1, -2, -2], [  # alpha2
            ("ii.1", "conjugate-exact",
             [1, 2, 2, -1, -1, 2] + [2, 1, 1, -2, -2, 1], [-1]),
            ("ii.2", "quotient", ii_mid, None),
        ]),
        (sq12, [("ii.3", "exact", [1, 1, 2, 2, 2, 1, 2, 2, 1, 1, 1, 2], None)]),
        (sq12, [("ii.4", "exact", [2, 2, 1, 1, 1, 2, 1, 1, 2, 2, 2, 1], None)]),
        (ii_mid, [
            ("ii.5", "exact",
             sq12 + [-2, -2, -2, -1, -1, -1, -1, -1, -2, -2] + sq12, None),
            ("ii.6", "quotient", _pow([1, 2], 12), None),
        ]),
        (_pow([1, 2], 15), [
            ("iii.1", "exact", [1, 1, 1, 2, 1, 1, 2, -1] + _pow([1, 2], 12), None),
            ("iii.2", "exact",
             [1, 1, 1, 2] + _pow([1, 2], 3) + [1, 1] + _pow([1, 2], 3)
             + [2, -1] + _pow([1, 2], 6), None),
            ("iii.3", "exact",
             [1, 1, 1, 2] + [2, 1, 1, 2, 1, 1] + [1, 1]
             + [1, 2, 2] + [2, 2, 1, 2, 2, 1] + [1] + [1, 2, 2, 1, 2, 2]
             + [2, 2] + [2, -1], None),
            ("iii.4", "exact",
             [1, 1, 1] + [2, 2] + [1, 1] + [2] + [1] * 5 + [2] * 4 + [1]
             + [2, 2] + [1, 1, 1] + [2, 2] + [1] + [2] * 5 + [-1], None),
            ("iii.5", "quotient", _pow([-1, -1, 2, 2], 3), None),
            ("iii.6", "conjugate-exact", _pow([-2, -2, 1, 1], 3), [1, 2, 1]),
            ("iii.7", "quotient", [-2, -1] * 15, None),
        ]),
        (_pow([1, 2], 30), [("iii.8", "quotient", [], None)]),
        ([-2, -1] * 12, [("iv", "quotient", _pow([1, 2], 18), None)]),
        ([-2, -1] * 6, [("v", "quotient", _pow([1, 2], 24), None)]),
    ]
    steps = []
    for lhs, chain in chains:
        for label, kind, rhs, conj in chain:
            steps.append((label, kind, lhs, rhs, conj))
            lhs = rhs
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
