"""Fox n-colorings of a diagram as an abelian group.

At each crossing the two under-strand colors must sum to twice the
over-strand color mod n.  The solution group is computed exactly from
the integer Smith normal form of the crossing/strand matrix; a brute
force counter over all assignments doubles as an independent oracle on
small diagrams.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd, prod

from .diagrams import LinkDiagram
from .errors import InvalidModulus


@dataclass(frozen=True)
class ColoringMatrix:
    """One row per crossing, one column per strand (then split circles)."""

    rows: tuple[tuple[int, ...], ...]
    cols: int

    def row_sums(self) -> list[int]:
        return [sum(r) for r in self.rows]


def coloring_rows(crossings, classes: list[int], cols: int):
    """One row per crossing over `cols` columns: under + under - 2 * over."""
    rows = []
    for a, b, c, _ in crossings:
        row = [0] * cols
        row[classes[a]] += 1
        row[classes[c]] += 1
        row[classes[b]] -= 2
        rows.append(tuple(row))
    return tuple(rows)


def coloring_matrix(d: LinkDiagram) -> ColoringMatrix:
    cols = d.strand_count()
    return ColoringMatrix(coloring_rows(d.crossings, d.strand_classes(), cols), cols)


def smith_normal_form(matrix) -> list[int]:
    """Invariant factors d1 | d2 | ... | dr of an integer matrix.

    Exact arbitrary-precision arithmetic; pivots chosen by minimal
    absolute value.  Only the nonzero diagonal is returned.
    """
    m = [list(map(int, row)) for row in matrix]
    if not m or not m[0]:
        return []
    rows, cols = len(m), len(m[0])
    factors = []
    top = 0
    while top < min(rows, cols):
        # locate a pivot of minimal absolute value in the remaining block
        pivot = None
        best = None
        for i in range(top, rows):
            for j in range(top, cols):
                v = abs(m[i][j])
                if v and (best is None or v < best):
                    best, pivot = v, (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        m[top], m[pi] = m[pi], m[top]
        for row in m:
            row[top], row[pj] = row[pj], row[top]

        # clear the pivot row and column; restart if a remainder shrinks the pivot
        while True:
            p = m[top][top]
            done = True
            for i in range(top + 1, rows):
                if m[i][top]:
                    q = m[i][top] // p
                    for j in range(top, cols):
                        m[i][j] -= q * m[top][j]
                    if m[i][top]:
                        m[top], m[i] = m[i], m[top]
                        done = False
                        break
            if not done:
                continue
            for j in range(top + 1, cols):
                if m[top][j]:
                    q = m[top][j] // p
                    for i in range(top, rows):
                        m[i][j] -= q * m[i][top]
                    if m[top][j]:
                        for i in range(rows):
                            m[i][top], m[i][j] = m[i][j], m[i][top]
                        done = False
                        break
            if done:
                break

        # divisibility: pivot must divide every later entry
        p = m[top][top]
        offender = None
        for i in range(top + 1, rows):
            for j in range(top + 1, cols):
                if m[i][j] % p:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            for j in range(top, cols):
                m[top][j] += m[offender][j]
            continue
        factors.append(abs(p))
        top += 1

    return factors


@dataclass(frozen=True)
class AbelianGroupStructure:
    """Finite abelian group in divisor-chain form: each order divides the next."""

    cyclic_orders: tuple[int, ...]
    free_rank: int = 0

    @property
    def order(self) -> int:
        return prod(self.cyclic_orders) if self.cyclic_orders else 1

    def __str__(self):
        if not self.cyclic_orders:
            return "0"
        return " + ".join(f"Z{o}" for o in self.cyclic_orders)


def solution_group(rows, cols: int, n: int) -> AbelianGroupStructure:
    """Solutions mod n of an integer system in `cols` unknowns."""
    if not isinstance(n, int) or n < 2:
        raise InvalidModulus(f"modulus must be an integer >= 2, got {n!r}")
    factors = smith_normal_form(rows) if rows else []
    # the invariant factors divide each other, gcd with n keeps that
    # order and n ends the chain: already a divisor chain
    orders = [gcd(n, f) for f in factors] + [n] * (cols - len(factors))
    return AbelianGroupStructure(tuple(o for o in orders if o != 1))


def col_group(d: LinkDiagram, n: int) -> AbelianGroupStructure:
    """The group of Fox n-colorings, trivial (constant) colorings included."""
    mat = coloring_matrix(d)
    return solution_group(mat.rows, mat.cols, n)


def count_colorings_brute(d: LinkDiagram, n: int) -> int:
    """Independent oracle: try all n**strands assignments."""
    if not isinstance(n, int) or n < 2:
        raise InvalidModulus(f"modulus must be an integer >= 2, got {n!r}")
    mat = coloring_matrix(d)
    count = 0
    for assignment in itertools.product(range(n), repeat=mat.cols):
        if all(sum(c * x for c, x in zip(row, assignment)) % n == 0 for row in mat.rows):
            count += 1
    return count


def has_nontrivial_colorings(d: LinkDiagram, n: int) -> bool:
    """True iff the coloring group outnumbers component-wise constants."""
    return col_group(d, n).order > n ** d.component_count()
