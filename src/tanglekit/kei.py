"""Finite Kei (involutive quandles) as explicit operation tables.

A Kei is a set with a binary operation * satisfying

    (i)   a*a = a
    (ii)  (a*b)*b = a
    (iii) (a*b)*c = (a*c)*(b*c)

Elements are dense indices 0..size-1; `table[a][b]` holds a*b.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotAGroup, ParseError


@dataclass(frozen=True)
class FiniteKei:
    table: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.table)
        for row in self.table:
            if len(row) != n or any(not (0 <= v < n) for v in row):
                raise ValueError("operation table is not square over 0..n-1")

    @property
    def size(self) -> int:
        return len(self.table)

    def op(self, a: int, b: int) -> int:
        return self.table[a][b]

    def serialize(self) -> str:
        lines = [str(self.size)]
        lines += [" ".join(str(v) for v in row) for row in self.table]
        return "\n".join(lines) + "\n"


def parse_kei(text: str) -> FiniteKei:
    tokens = text.split()
    if not tokens:
        raise ParseError("empty Kei table")
    try:
        n, *vals = map(int, tokens)
    except ValueError as exc:
        raise ParseError(f"non-integer token in Kei table: {exc}") from exc
    if n < 0:
        raise ParseError(f"negative Kei table size {n}")
    if len(vals) != n * n:
        raise ParseError(f"expected {n * n} table entries, got {len(vals)}")
    return FiniteKei(tuple(tuple(vals[i * n : (i + 1) * n]) for i in range(n)))


def dihedral_kei(n: int) -> FiniteKei:
    """Z_n with i*j = 2j - i mod n."""
    if n < 1:
        raise ValueError("n must be positive")
    return FiniteKei(tuple(tuple((2 * j - i) % n for j in range(n)) for i in range(n)))


def trivial_kei(n: int) -> FiniteKei:
    """a*b = a for all a, b."""
    return FiniteKei(tuple(tuple(i for _ in range(n)) for i in range(n)))


def core_kei(group_table) -> FiniteKei:
    """Core Kei of a finite group: a*b = b a^{-1} b."""
    t = [list(map(int, row)) for row in group_table]
    n = len(t)
    if any(len(row) != n for row in t) or any(
        not (0 <= v < n) for row in t for v in row
    ):
        raise NotAGroup("multiplication table is not square over 0..n-1")
    identity = None
    for e in range(n):
        if all(t[e][x] == x and t[x][e] == x for x in range(n)):
            identity = e
            break
    if identity is None:
        raise NotAGroup("no identity element")
    inv = [None] * n
    for a in range(n):
        for b in range(n):
            if t[a][b] == identity and t[b][a] == identity:
                inv[a] = b
                break
        if inv[a] is None:
            raise NotAGroup(f"element {a} has no inverse")
    # (ab)c vs a(bc) on all triples, one row of c at a time
    if any(t[t[a][b]] != [t[a][x] for x in t[b]] for a in range(n) for b in range(n)):
        raise NotAGroup("multiplication is not associative")
    return FiniteKei(
        tuple(tuple(t[b][t[inv[a]][b]] for b in range(n)) for a in range(n))
    )


def cyclic_group(n: int):
    return tuple(tuple((i + j) % n for j in range(n)) for i in range(n))


def group_product(g1, g2):
    n1, n2 = len(g1), len(g2)
    out = []
    for a1 in range(n1):
        for a2 in range(n2):
            row = []
            for b1 in range(n1):
                for b2 in range(n2):
                    row.append(g1[a1][b1] * n2 + g2[a2][b2])
            out.append(tuple(row))
    return tuple(out)


def kei_product(k1: FiniteKei, k2: FiniteKei) -> FiniteKei:
    return FiniteKei(group_product(k1.table, k2.table))


def check_axioms(k: FiniteKei, columns=None) -> list[tuple]:
    """All axiom violations as (axiom index, offending elements...).

    Ordered by axiom, then (i) by a, (ii) by b then a, (iii) by c, a, b.
    Given `columns`, (ii) and (iii) are checked only at those right
    factors b and c: the full list with its other (ii) and (iii)
    entries left out.
    """
    t = k.table
    n = k.size
    cols = range(n) if columns is None else sorted(set(columns))
    out: list[tuple] = [(1, a) for a in range(n) if t[a][a] != a]
    for b in cols:
        out += [(2, a, b) for a in range(n) if t[t[a][b]][b] != a]
    for c in cols:
        rho = [row[c] for row in t]  # rho[x] = x*c
        for a in range(n):
            ta, rc = t[a], t[rho[a]]
            out += [(3, a, b, c) for b in range(n) if rho[ta[b]] != rc[rho[b]]]
    return out


def kei_isomorphic(k1: FiniteKei, k2: FiniteKei) -> list[int] | None:
    """A table-preserving bijection k1 -> k2, or None.

    Backtracking search: the first unmapped element of k1 tries each
    unused element of k2 in ascending order, and every assignment is
    propagated through the products of mapped elements.  Intended for
    tables up to a few hundred elements.
    """
    if k1.size != k2.size:
        return None
    n = k1.size
    t1, t2 = k1.table, k2.table
    mapping: list[int | None] = [None] * n
    used = [False] * n

    def assign(x: int, y: int, trail: list[int]) -> bool:
        """Set f(x) = y and propagate through known products."""
        stack = [(x, y)]
        while stack:
            a, b = stack.pop()
            if mapping[a] is not None:
                if mapping[a] != b:
                    return False
                continue
            if used[b]:
                return False
            mapping[a] = b
            used[b] = True
            trail.append(a)
            for z in range(n):
                fz = mapping[z]
                if fz is None:
                    continue
                stack.append((t1[a][z], t2[b][fz]))
                stack.append((t1[z][a], t2[fz][b]))
        return True

    def undo(trail: list[int]):
        while trail:
            a = trail.pop()
            used[mapping[a]] = False
            mapping[a] = None

    def choose() -> int | None:
        return next((x for x in range(n) if mapping[x] is None), None)

    def advance(x: int, ys, trail: list[int]) -> bool:
        """Assign x its next consistent candidate from ys."""
        for y in ys:
            if not used[y]:
                if assign(x, y, trail):
                    return True
                undo(trail)
        return False

    # one (element, remaining candidates, trail) per open decision, so
    # the search depth is not bounded by the recursion limit
    decisions: list = []
    x = choose()
    while x is not None:
        decisions.append((x, iter(range(n)), []))
        while decisions:
            x, ys, trail = decisions[-1]
            undo(trail)
            if advance(x, ys, trail):
                break
            decisions.pop()
        else:
            return None
        x = choose()
    return mapping


def phi_eval(w: tuple[int, ...]) -> int:
    """Value of a two-generator free Kei word, a tuple of letters 0 and 1,
    under the dihedral model on Z with 0 -> 0 and 1 -> 1.

    The model gives the fold phi(w*x) = 2 phi(x) - phi(w).
    """
    if not w or any(x not in (0, 1) for x in w):
        raise ValueError("phi_eval expects a non-empty word in the letters 0 and 1")
    val = w[0]
    for x in w[1:]:
        val = 2 * x - val
    return val


def eval_word(k: FiniteKei, w: tuple[int, ...], env) -> int:
    """Evaluate the left-normed word w, a tuple of generator indices, in a
    finite Kei with generator g sent to env[g]."""
    t = k.table
    val = env[w[0]]
    for g in w[1:]:
        val = t[val][env[g]]
    return val
