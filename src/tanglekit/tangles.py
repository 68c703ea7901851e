"""Rational tangle arithmetic and algebraic tangle expression trees.

Tangles sit in a disk with four boundary ends NW, NE, SW, SE.  The
numerator closure joins NW-NE and SW-SE, the denominator closure joins
NW-SW and NE-SE.  Horizontal composition glues the east side of the
left operand to the west side of the right one; `r` rotates a tangle a
quarter turn (on fractions: p/q -> -q/p).

A twist word [a1, a2, ..., ak] names the rational tangle with fraction
ak + 1/(a_{k-1} + 1/(... + 1/a1)), built by alternating twist stages
that end with a horizontal stage, so [2, 2] is the 5/2 tangle and [n]
the n/1 tangle of the n-move.

Geometric realization builds an expression out of crossing ports and
wires on a `diagrams.Wiring`, which numbers the arcs for the open
tangle (`tangle_diagram`, boundary ends left dangling) and for its
closures (`closure_diagram`) exactly as it does for braid closures.
The coloring counts of an open tangle reuse `diagrams.strand_classes`
and the coloring rows and solution groups of `coloring`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .coloring import col_group, coloring_rows, solution_group
from .diagrams import LinkDiagram, Wiring, strand_classes, strand_count
from .errors import InvalidMoveSite, ParseError


@dataclass(frozen=True)
class RationalTangle:
    """Reduced fraction p/q with q >= 0; (1, 0) is the infinity tangle."""

    p: int
    q: int

    @staticmethod
    def make(p: int, q: int) -> "RationalTangle":
        if q == 0:
            return RationalTangle(1, 0)
        if q < 0:
            p, q = -p, -q
        g = gcd(abs(p), q)
        if g > 1:
            p, q = p // g, q // g
        return RationalTangle(p, q)

    @property
    def is_infinity(self) -> bool:
        return self.q == 0

    def fraction(self) -> tuple[int, int]:
        return (self.p, self.q)

    def __str__(self):
        return "inf" if self.q == 0 else f"{self.p}/{self.q}"


def fraction_of_twists(twists) -> RationalTangle:
    """Continued-fraction value of a twist word; [] is the 0-tangle."""
    twists = tuple(int(a) for a in twists)
    if not twists:
        return RationalTangle.make(0, 1)
    p, q = twists[0], 1
    for a in twists[1:]:
        # a + 1/(p/q)
        p, q = a * p + q, p
    return RationalTangle.make(p, q)


def rotate(t: RationalTangle) -> RationalTangle:
    """Quarter-turn rotation: p/q -> -q/p."""
    return RationalTangle.make(-t.q, t.p)


def cf_expand(p: int, q: int) -> list[int]:
    """A twist word evaluating to p/q (q >= 1) under fraction_of_twists."""
    if q < 1:
        raise ValueError("cf_expand needs a finite fraction with q >= 1")
    terms = []
    while q:
        a, r = divmod(p, q)
        terms.append(a)
        p, q = q, r
    terms.reverse()
    return terms


# --- expression trees ----------------------------------------------------


# each leaf is one twist stage: (crossings, horizontal)
_LEAF_STAGES = {"t0": (0, True), "tinf": (0, False), "x+": (1, True), "x-": (-1, True)}


@dataclass(frozen=True)
class Leaf:
    kind: str  # one of: t0, tinf, x+, x-

    def __post_init__(self):
        if self.kind not in _LEAF_STAGES:
            raise ValueError(f"unknown leaf {self.kind!r}")


@dataclass(frozen=True)
class TwistLeaf:
    twists: tuple[int, ...]


@dataclass(frozen=True)
class Comp:
    """Horizontal composition r^i(left) * r^j(right), i and j in {0, 1}."""

    i: int
    j: int
    left: "TangleExpr"
    right: "TangleExpr"

    def __post_init__(self):
        if self.i not in (0, 1) or self.j not in (0, 1):
            raise ValueError("rotation exponents are taken in {0, 1}")


TangleExpr = Leaf | TwistLeaf | Comp

T0 = Leaf("t0")
TINF = Leaf("tinf")
XPLUS = Leaf("x+")
XMINUS = Leaf("x-")


def serialize_expr(t: TangleExpr) -> str:
    if isinstance(t, Leaf):
        return t.kind
    if isinstance(t, TwistLeaf):
        return "(tw " + " ".join(str(a) for a in t.twists) + ")"
    return f"(comp {t.i} {t.j} {serialize_expr(t.left)} {serialize_expr(t.right)})"


# The parser and the tree walkers recurse once per nesting level, so a
# parsed expression may nest at most this many parenthesised nodes.
MAX_NESTING = 200
# Closures, colorings and the bracket grow with the crossings, so a
# parsed expression may have at most this many: its x+ and x- leaves
# plus the |twist| entries of its twist leaves.
MAX_CROSSINGS = 1000


def parse_expr(text: str) -> TangleExpr:
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    pos = 0
    crossings = 0

    def count(k: int) -> None:
        nonlocal crossings
        crossings += k
        if crossings > MAX_CROSSINGS:
            raise ParseError(
                f"tangle expression has more than {MAX_CROSSINGS} crossings")

    def parse(depth: int) -> TangleExpr:
        nonlocal pos
        if pos >= len(tokens):
            raise ParseError("unexpected end of tangle expression")
        tok = tokens[pos]
        pos += 1
        if tok in _LEAF_STAGES:
            count(abs(_LEAF_STAGES[tok][0]))
            return Leaf(tok)
        if tok != "(":
            raise ParseError(f"unexpected token {tok!r}")
        if depth > MAX_NESTING:
            raise ParseError(
                f"tangle expression nests more than {MAX_NESTING} nodes deep"
            )
        head = tokens[pos]
        pos += 1
        if head == "tw":
            vals = []
            while tokens[pos] != ")":
                vals.append(int(tokens[pos]))
                count(abs(vals[-1]))
                pos += 1
            pos += 1
            return TwistLeaf(tuple(vals))
        if head == "comp":
            i = int(tokens[pos]); pos += 1
            j = int(tokens[pos]); pos += 1
            left = parse(depth + 1)
            right = parse(depth + 1)
            if tokens[pos] != ")":
                raise ParseError("missing ')' in comp node")
            pos += 1
            return Comp(i, j, left, right)
        raise ParseError(f"unknown node {head!r}")

    try:
        out = parse(1)
    except (IndexError, ValueError) as exc:
        raise ParseError(f"bad tangle expression {text!r}") from exc
    if pos != len(tokens):
        raise ParseError("trailing tokens in tangle expression")
    return out


def leaf_sites(t: TangleExpr, kind: str = "t0") -> list[tuple[int, ...]]:
    """Paths (0 = left, 1 = right) of all leaves of the given kind."""
    out: list[tuple[int, ...]] = []

    def walk(node, path):
        if isinstance(node, Comp):
            walk(node.left, path + (0,))
            walk(node.right, path + (1,))
        elif isinstance(node, Leaf) and node.kind == kind:
            out.append(path)

    walk(t, ())
    return out


def apply_rational_move(
    t: TangleExpr, site: tuple[int, ...], n: int, q: int, sign: int = 1
) -> TangleExpr:
    """Replace the 0-tangle leaf at `site` with the +-n/q rational tangle.

    (n, q) = (5, 2) with sign +1 is the insertion of the [2, 2] clasp
    pair; sign -1 inserts its mirror [-2, -2].
    """
    if n < 1 or q < 1 or gcd(n, q) != 1:
        raise ValueError("rational move needs a reduced fraction n/q with n, q >= 1")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    word = cf_expand(n, q)
    if sign < 0:
        word = [-a for a in word]
    replacement = TwistLeaf(tuple(word))

    def rebuild(node, path):
        if not path:
            if not (isinstance(node, Leaf) and node.kind == "t0"):
                raise InvalidMoveSite(f"site does not address a 0-tangle leaf: {node}")
            return replacement
        if not isinstance(node, Comp):
            raise InvalidMoveSite("site walks past a leaf")
        if path[0] == 0:
            return Comp(node.i, node.j, rebuild(node.left, path[1:]), node.right)
        if path[0] == 1:
            return Comp(node.i, node.j, node.left, rebuild(node.right, path[1:]))
        raise InvalidMoveSite(f"site step {path[0]} is neither 0 nor 1")

    return rebuild(t, tuple(site))


# --- geometric realization ------------------------------------------------

Bounds = tuple[int, int, int, int]  # nw, ne, sw, se


def _crossing(asm: Wiring, kind: str) -> Bounds:
    """Returns boundary (nw, ne, sw, se); records the PD tuple.

    Tuples run counterclockwise from an under-strand end: x+ has
    the SW-NE strand under, x- the SE-NW strand.
    """
    nw, ne, sw, se = (asm.token() for _ in range(4))
    asm.crossings.append((sw, se, ne, nw) if kind == "x+" else (se, ne, nw, sw))
    return nw, ne, sw, se


def _h_compose(asm: Wiring, a: Bounds, b: Bounds) -> Bounds:
    asm.join(a[1], b[0])
    asm.join(a[3], b[2])
    return (a[0], b[1], a[2], b[3])


def _v_compose(asm: Wiring, top: Bounds, bot: Bounds) -> Bounds:
    asm.join(top[2], bot[0])
    asm.join(top[3], bot[1])
    return (top[0], top[1], bot[2], bot[3])


def _rotated(b: Bounds, times: int) -> Bounds:
    for _ in range(times % 4):
        b = (b[1], b[3], b[0], b[2])
    return b


def _build_stage(asm: Wiring, count: int, horizontal: bool) -> Bounds:
    """|count| crossings in a row (horizontal) or a column; with none,
    the row is the 0-tangle and the column the infinity tangle."""
    if count == 0:
        a, b = asm.wire()
        c, d = asm.wire()
        return (a, b, c, d) if horizontal else (a, c, b, d)
    kind = "x+" if count > 0 else "x-"
    compose = _h_compose if horizontal else _v_compose
    cur = _crossing(asm, kind)
    for _ in range(abs(count) - 1):
        cur = compose(asm, cur, _crossing(asm, kind))
    return cur


def _build(asm: Wiring, t: TangleExpr) -> Bounds:
    if isinstance(t, Leaf):
        return _build_stage(asm, *_LEAF_STAGES[t.kind])
    if isinstance(t, TwistLeaf):
        # stages alternate and end with a horizontal one; () is the 0-tangle
        twists = t.twists or (0,)
        horizontal = len(twists) % 2 == 1
        cur = _build_stage(asm, twists[0], horizontal)
        for a in twists[1:]:
            horizontal = not horizontal
            compose = _h_compose if horizontal else _v_compose
            cur = compose(asm, cur, _build_stage(asm, a, horizontal))
        return cur
    left = _rotated(_build(asm, t.left), t.i)
    right = _rotated(_build(asm, t.right), t.j)
    return _h_compose(asm, left, right)


@dataclass(frozen=True)
class TangleDiagram:
    """PD data of an open tangle: four boundary arcs left dangling."""

    crossings: tuple[tuple[int, int, int, int], ...]
    arc_count: int
    boundary: tuple[int, int, int, int]  # arc ids at nw, ne, sw, se
    circles: int


def closure_diagram(t: TangleExpr, kind: str = "numerator") -> LinkDiagram:
    """Close the tangle without new crossings and return its PD diagram.

    The numerator closure joins NW-NE and SW-SE, the denominator
    closure NW-SW and NE-SE.
    """
    if kind in ("num", "numerator"):
        pairs = ((0, 1), (2, 3))
    elif kind in ("den", "denominator"):
        pairs = ((0, 2), (1, 3))
    else:
        raise ValueError(f"closure kind must be numerator or denominator, got {kind!r}")
    asm = Wiring()
    bounds = _build(asm, t)
    for i, j in pairs:
        asm.join(bounds[i], bounds[j])
    return asm.link()


def tangle_diagram(t: TangleExpr) -> TangleDiagram:
    asm = Wiring()
    crossings, arcs, boundary, circles = asm.assemble(_build(asm, t))
    return TangleDiagram(crossings, arcs, boundary, circles)


# --- the coloring obstruction to tangle embedding -------------------------


def _coloring_system(t: TangleExpr) -> tuple[tuple, int, tuple]:
    """(rows, columns, pins) of the tangle's coloring equations; the pin
    rows set each boundary strand to 0."""
    td = tangle_diagram(t)
    classes = strand_classes(td.crossings, td.arc_count)
    cols = strand_count(classes, td.circles)
    rows = coloring_rows(td.crossings, classes, cols)
    pins = tuple(
        tuple(int(j == strand) for j in range(cols))
        for strand in sorted({classes[a] for a in td.boundary})
    )
    return rows, cols, pins


def tangle_coloring_counts(t: TangleExpr, n: int) -> tuple[int, int]:
    """(all tangle colorings, colorings vanishing on the boundary) mod n."""
    rows, cols, pins = _coloring_system(t)
    return solution_group(rows, cols, n).order, solution_group(rows + pins, cols, n).order


def embedding_obstruction(t: TangleExpr, target: LinkDiagram, n: int) -> str:
    """'obstructed' when the tangle cannot sit inside the target link.

    If some coloring of the tangle vanishes on all four boundary ends
    without vanishing inside, then every link containing the tangle has
    a non-constant coloring extending the constant one outside; a
    target with only constant colorings therefore excludes the tangle.
    """
    rows, cols, pins = _coloring_system(t)
    pinned = solution_group(rows + pins, cols, n).order
    target_only_trivial = col_group(target, n).order == n
    if pinned > 1 and target_only_trivial:
        return "obstructed"
    return "inconclusive"
