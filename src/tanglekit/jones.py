"""Kauffman bracket and Jones polynomial with exact evaluation at the
primitive tenth root of unity (t**5 = -1, t != -1).

The bracket is the state sum over all smoothings:

    <X> = A <0-smoothing> + A^-1 <infinity-smoothing>,
    one extra circle contributes delta = -A^2 - A^-2,
    normalized so a single circle has bracket 1.

The state sum is contracted crossing by crossing in shared Python
(`_enumpy.bracket_statesum`), so its cost grows with the width of the
frontier between processed and unprocessed crossings, not with the
crossing count; diagrams wider than `BRACKET_WIDTH_CAP` are refused.

The Jones polynomial V = (-A^3)^(-w) <D> is rewritten in s = t^(1/2)
via s = A^-2.  Evaluation at t = e^(i pi/5) happens in the cyclotomic
integers Z[s]/(s^8 - s^6 + s^4 - s^2 + 1), where the zero test is
exact: the modulus is the minimal polynomial of a primitive 20th root
of unity, so the residue ring is an integral domain.
"""

from __future__ import annotations

from dataclasses import dataclass
from .diagrams import LinkDiagram, trace_components
from .laurent import LaurentPoly
from . import _enumpy as _kernel

BRACKET_WIDTH_CAP = _kernel.BRACKET_WIDTH_CAP  # applied by bracket_statesum


def kauffman_bracket(d: LinkDiagram) -> LaurentPoly:
    """State-sum bracket in the variable A, single circle normalized to 1."""
    if d.crossing_count == 0 and d.unknotted_split_circles == 0:
        raise ValueError("the empty diagram has no bracket")
    # a state with k + 1 circles contributes delta^k times its A-monomial,
    # and delta^k = (-1)^k sum_j C(k, j) A^(2k - 4j) by the binomial theorem
    coeffs: dict[int, int] = {}
    for (exponent, circles), mult in _kernel.bracket_statesum(
        d.crossings, d.arc_count
    ).items():
        k = circles + d.unknotted_split_circles - 1
        c = -mult if k % 2 else mult  # mult * (-1)^k C(k, j), from j = 0
        for j in range(k + 1):
            e = exponent + 2 * k - 4 * j
            coeffs[e] = coeffs.get(e, 0) + c
            c = c * (k - j) // (j + 1)
    return LaurentPoly(coeffs)


def writhe(d: LinkDiagram, orientation: tuple[bool, ...] | None = None) -> int:
    """Sum of crossing signs for the chosen per-component directions."""
    comps = trace_components(d)
    if orientation is None:
        orientation = (False,) * len(comps)
    if len(orientation) != len(comps):
        raise ValueError(f"need {len(comps)} orientation flags")
    # exits[(k, pos)] = True when the strand leaves crossing k at pos
    exits: dict[tuple[int, int], bool] = {}
    for walk, flip in zip(comps, orientation):
        for _, tail, head in walk:
            exits[tail], exits[head] = not flip, flip
    w = 0
    for k in range(d.crossing_count):
        pu = 0 if not exits[(k, 0)] else 2
        po = 1 if not exits[(k, 1)] else 3
        w += 1 if (pu - po) % 4 == 1 else -1
    return w


def jones(d: LinkDiagram, orientation: tuple[bool, ...] | None = None) -> LaurentPoly:
    """Jones polynomial in s = t^(1/2) (exponents of t are halves of s).

    Each component is oriented along its walk in `trace_components`, or
    against it where its `orientation` flag is set.  A knot's polynomial
    does not depend on this; reversing one component of a link
    multiplies its polynomial by a power of s, so the closures of two
    braids of the same link may differ by a factor s^k.
    """
    bracket = kauffman_bracket(d)
    w = writhe(d, orientation)
    signed = bracket.shift(-3 * w) if w % 2 == 0 else -bracket.shift(-3 * w)
    out: dict[int, int] = {}
    for e, coeff in signed.coeffs.items():
        if e % 2:
            raise AssertionError("bracket of a closed diagram has even exponents")
        out[-e // 2] = coeff
    return LaurentPoly(out)


# --- exact arithmetic at s = e^(i pi / 10) ------------------------------

# s^8 = s^6 - s^4 + s^2 - 1 modulo the 20th cyclotomic polynomial
_RED8 = (-1, 0, 1, 0, -1, 0, 1, 0)


@dataclass(frozen=True)
class CyclotomicValue:
    """Element of Z[s]/(s^8 - s^6 + s^4 - s^2 + 1) as 8 coordinates."""

    coords: tuple[int, int, int, int, int, int, int, int]

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.coords)

    def __add__(self, other: "CyclotomicValue") -> "CyclotomicValue":
        return CyclotomicValue(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __mul__(self, other: "CyclotomicValue") -> "CyclotomicValue":
        prod = [0] * 15
        for i, a in enumerate(self.coords):
            if a:
                for j, b in enumerate(other.coords):
                    prod[i + j] += a * b
        for e in range(14, 7, -1):
            coeff = prod[e]
            if coeff:
                prod[e] = 0
                for k, r in enumerate(_RED8):
                    prod[e - 8 + k] += coeff * r
        return CyclotomicValue(tuple(prod[:8]))

    @classmethod
    def zero(cls) -> "CyclotomicValue":
        return cls((0,) * 8)

    @classmethod
    def one(cls) -> "CyclotomicValue":
        return cls((1, 0, 0, 0, 0, 0, 0, 0))


_S = CyclotomicValue((0, 1, 0, 0, 0, 0, 0, 0))
_POW20 = [CyclotomicValue.one()]  # s^0 .. s^19; s has order 20
while len(_POW20) < 20:
    _POW20.append(_POW20[-1] * _S)


def eval_at_fifth_root(p: LaurentPoly) -> CyclotomicValue:
    """Evaluate a polynomial in s at the primitive 20th root of unity.

    Exponents fold mod 20 first (s has order 20), then reduce through
    the minimal polynomial; the result is zero iff the complex value is.
    """
    acc = [0] * 8
    for e, c in p.coeffs.items():
        vec = _POW20[e % 20].coords
        for k in range(8):
            acc[k] += c * vec[k]
    return CyclotomicValue(tuple(acc))


def jones_at_fifth_root(d: LinkDiagram) -> CyclotomicValue:
    return eval_at_fifth_root(jones(d))


def five_move_verdict(value: CyclotomicValue) -> str:
    """'not-5-move-trivializable' when the fifth-root value vanishes.

    Trivial links evaluate to (-s - s^-1)^(n-1) != 0, and 5-moves only
    change the value by a unit, which cannot turn zero into nonzero.
    """
    return "not-5-move-trivializable" if value.is_zero() else "inconclusive"


def five_move_obstruction(d: LinkDiagram) -> str:
    return five_move_verdict(jones_at_fifth_root(d))


def determinant(d: LinkDiagram) -> int:
    """|V(-1)|: V at s^5 = i, where s^10 = -1 leaves a + b s^5."""
    v = jones(d)
    value = eval_at_fifth_root(LaurentPoly({5 * e: c for e, c in v.coeffs.items()}))
    re, im = value.coords[0], value.coords[5]
    if re and im:
        raise AssertionError("V(-1) is neither real nor purely imaginary")
    return abs(re) if re else abs(im)
