"""Fox n-colorings of a diagram as an abelian group.

At each crossing the two under-strand colors must sum to twice the
over-strand color mod n.  The solution group is computed exactly from
the integer Smith normal form of the crossing/strand matrix.  One pivot
loop finds it: reduce the pivot's row and column, take a remainder as
the next pivot, and delete the row and column once they are clear.  A
coloring row has three nonzero entries, so a row reduction touches few
rows.  A brute force counter over all assignments doubles as an
independent oracle on small diagrams.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd, prod

from .diagrams import LinkDiagram, strand_count
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
    classes = d.strand_classes()
    cols = strand_count(classes, d.unknotted_split_circles)
    return ColoringMatrix(coloring_rows(d.crossings, classes, cols), cols)


def _least_entry(m):
    """(i, j) of a nonzero entry of least absolute value, or None; the
    first +-1 ends the search, since no nonzero entry is smaller."""
    best, where = 0, None
    for i, row in enumerate(m):
        for j, v in enumerate(row):
            if v and (not best or abs(v) < best):
                best, where = abs(v), (i, j)
                if best == 1:
                    return where
    return where


def smith_normal_form(matrix) -> list[int]:
    """Invariant factors d1 | d2 | ... | dr of an integer matrix.

    Exact arbitrary-precision arithmetic in one pivot loop (Cohen, *A
    Course in Computational Algebraic Number Theory*, 1993, 2.4).  Only
    the nonzero diagonal is returned.
    """
    m = [list(map(int, row)) for row in matrix]
    factors = []
    pivot = _least_entry(m)
    while pivot is not None:
        i, j = pivot
        prow = m[i]
        p = prow[j]
        # reduce the pivot's column by its row and its row by its column;
        # a remainder is smaller than |p| and becomes the next pivot
        pivot = None
        for r, row in enumerate(m):
            if r != i and row[j]:
                q = row[j] // p
                m[r] = row = [a - q * b for a, b in zip(row, prow)]
                if row[j]:
                    pivot = (r, j)
        for k, v in enumerate(prow):
            if k != j and v:
                q = v // p
                for row in m:
                    row[k] -= q * row[j]
                if prow[k]:
                    pivot = (i, k)
        if pivot is not None:
            continue
        # p must divide every other entry, else an offending row is
        # added to its row and the next pass leaves a smaller remainder
        offender = abs(p) > 1 and next((row for row in m if any(v % p for v in row)), None)
        if offender:
            m[i] = [a + b for a, b in zip(prow, offender)]
            pivot = (i, j)
            continue
        factors.append(abs(p))
        del m[i]
        for row in m:
            del row[j]
        pivot = _least_entry(m)
    return factors


@dataclass(frozen=True)
class AbelianGroupStructure:
    """Finite abelian group in divisor-chain form: each order divides the next."""

    cyclic_orders: tuple[int, ...]

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
    factors = smith_normal_form(rows)
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
