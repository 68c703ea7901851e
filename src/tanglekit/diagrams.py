"""Unoriented link diagrams as PD codes, plus braid words and closures.

A crossing is a 4-tuple of arc labels read counterclockwise starting at
an end of the under-strand, so positions 0 and 2 carry the under-strand
and positions 1 and 3 the over-strand.  Labels name the *edges* of the
diagram (segments between crossing ends); the two over-strand edges at
a crossing belong to the same strand of the link, and `strand_classes`
merges them into the arcs used by colorings and Kei presentations.
Crossing-free circles are carried as an explicit counter.  A
`LinkDiagram` refuses PD data that no plane diagram has: each connected
piece of its crossing graph must bound c + 2 faces (`_faces`).

This is the package's one PD layer.  `Wiring` turns crossing ports and
the wires joining them into dense PD data, for braid closures here and
for tangle expressions and their closures in `tangles`, so every
construction numbers its arcs the same way (and arc numbering fixes
the generator order of a Kei presentation).  `strand_classes` and
`strand_count` serve closed diagrams and open tangles alike, and
`trace_components` gives the component walks that `component_count`
counts and `jones.writhe` orients.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .errors import MalformedDiagram, ParseError


def _find(parent: list[int], x: int) -> int:
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _union(parent: list[int], x: int, y: int) -> None:
    rx, ry = _find(parent, x), _find(parent, y)
    if rx != ry:
        parent[max(rx, ry)] = min(rx, ry)


@dataclass(frozen=True)
class LinkDiagram:
    """Immutable PD diagram. `crossings` is a tuple of 4-tuples of arc ids."""

    crossings: tuple[tuple[int, int, int, int], ...]
    arc_count: int
    unknotted_split_circles: int = 0

    def __post_init__(self):
        ends: dict[int, list[int]] = {}  # arc -> its ends, as 4 * crossing + position
        for k, x in enumerate(self.crossings):
            if len(x) != 4:
                raise MalformedDiagram(f"crossing {x!r} does not have 4 ends")
            for pos, a in enumerate(x):
                ends.setdefault(a, []).append(4 * k + pos)
        for a, slots in ends.items():
            if len(slots) != 2:
                raise MalformedDiagram(f"arc {a} appears {len(slots)} times, expected 2")
        if ends and (min(ends) != 0 or max(ends) != self.arc_count - 1):
            raise MalformedDiagram("arc ids are not dense in 0..arc_count-1")
        if len(ends) != self.arc_count:
            raise MalformedDiagram("arc_count does not match the crossing data")
        if self.unknotted_split_circles < 0:
            raise MalformedDiagram("negative split circle count")
        faces, want = _faces(len(self.crossings), ends.values())
        if faces != want:
            raise MalformedDiagram(
                f"PD code is not planar: {faces} faces where a plane diagram has {want}")

    @property
    def crossing_count(self) -> int:
        return len(self.crossings)

    def strand_classes(self) -> list[int]:
        """Map each arc id to its strand (over-strand edges merged)."""
        return strand_classes(self.crossings, self.arc_count)

    def component_count(self) -> int:
        return len(trace_components(self)) + self.unknotted_split_circles

    def mirror(self) -> "LinkDiagram":
        """Switch every crossing by rotating its tuple one position."""
        return LinkDiagram(
            tuple((b, c, d, a) for a, b, c, d in self.crossings),
            self.arc_count,
            self.unknotted_split_circles,
        )

    def canonical_key(self):
        """Key identifying the diagram up to the 2-fold tuple rotation.

        Rotating a crossing tuple by two positions names the same
        unoriented crossing, so the key quotients that out.
        """
        norm = tuple(
            sorted(min((a, b, c, d), (c, d, a, b)) for a, b, c, d in self.crossings)
        )
        return (norm, self.arc_count, self.unknotted_split_circles)

    def serialize(self) -> str:
        lines = [f"X {a} {b} {c} {d}" for a, b, c, d in self.crossings]
        if self.unknotted_split_circles:
            lines.append(f"O {self.unknotted_split_circles}")
        return "\n".join(lines) + ("\n" if lines else "")


def _faces(crossing_count: int, arcs) -> tuple[int, int]:
    """Faces that PD data traces, and the number a plane diagram has.

    `arcs` gives each arc's two ends as 4 * crossing + position.  A face
    is traced by following an arc to its other end and stepping one
    position back in that crossing's counterclockwise tuple.  A connected
    piece of c crossings (4-valent, so 2c edges) bounds c + 2 faces in
    the plane by Euler's formula, and fewer on a surface of higher genus.
    """
    other = [0] * (4 * crossing_count)
    parent = list(range(crossing_count))
    for e, f in arcs:
        other[e], other[f] = f, e
        _union(parent, e // 4, f // 4)
    pieces = sum(_find(parent, k) == k for k in range(crossing_count))
    seen = [False] * len(other)
    faces = 0
    for start in range(len(other)):
        if seen[start]:
            continue
        faces += 1
        end = start
        while not seen[end]:
            seen[end] = True
            end = other[end]  # the arc's other end, then one position back
            end = end - 1 if end % 4 else end + 3
    return faces, crossing_count + 2 * pieces


def strand_classes(crossings, arc_count: int) -> list[int]:
    """Dense relabeling arc id -> strand id of PD data, open or closed.

    The two over-strand edges of each crossing are merged; strands are
    numbered in order of their lowest arc id and are the coloring
    variables of the diagram.
    """
    parent = list(range(arc_count))
    for _, b, _, d in crossings:
        _union(parent, b, d)
    label: dict[int, int] = {}
    return [label.setdefault(_find(parent, a), len(label)) for a in range(arc_count)]


def strand_count(classes: list[int], circles: int) -> int:
    """Coloring variables: one per strand, then one per split circle."""
    return max(classes, default=-1) + 1 + circles


Slot = tuple[int, int]  # (crossing index, position in its tuple)


def trace_components(d: LinkDiagram) -> list[list[tuple[int, Slot, Slot]]]:
    """Components as walks: lists of (arc, tail slot, head slot).

    A walk runs along each arc from the slot it leaves (tail) to the
    slot it enters (head), and leaves that crossing at the slot
    opposite the head.  Each walk starts at the first appearance of its
    lowest arc; split circles have no walk.
    """
    appearances: dict[int, list[Slot]] = {}
    for k, quad in enumerate(d.crossings):
        for pos, a in enumerate(quad):
            appearances.setdefault(a, []).append((k, pos))
    seen: set[int] = set()
    components = []
    for start in range(d.arc_count):
        if start in seen:
            continue
        walk = []
        tail = first = appearances[start][0]
        while True:
            arc = d.crossings[tail[0]][tail[1]]
            seen.add(arc)
            ends = appearances[arc]
            head = ends[1] if ends[0] == tail else ends[0]
            walk.append((arc, tail, head))
            tail = (head[0], (head[1] + 2) % 4)
            if tail == first:
                break
        components.append(walk)
    return components


class Wiring:
    """Wire ends (integer tokens), joins that glue them, and crossings.

    Every construction that builds a diagram from pieces (braid
    closures, tangle expressions and their closures) records crossing
    tuples over port tokens, joins ports and wire ends, and calls
    `assemble`; that one routine decides what the PD arcs are and how
    they are numbered.
    """

    def __init__(self):
        self.n = 0
        self.joins: list[tuple[int, int]] = []
        self.crossings: list[tuple[int, int, int, int]] = []

    def token(self) -> int:
        self.n += 1
        return self.n - 1

    def join(self, a: int, b: int) -> None:
        self.joins.append((a, b))

    def wire(self) -> tuple[int, int]:
        a, b = self.token(), self.token()
        self.join(a, b)
        return a, b

    def assemble(self, open_ends=()):
        """Dense PD data: (crossings, arc count, open-end arcs, circles).

        Joined tokens form one arc.  Arcs are numbered in order of first
        use along the crossing tuples, then along `open_ends` (the
        dangling boundary ends of an open tangle); token classes that
        reach neither are crossing-free circles.  Every arc must have
        exactly two ends, counting crossing ports and open ends.
        """
        parent = list(range(self.n))
        for a, b in self.joins:
            _union(parent, a, b)
        ports = [_find(parent, t) for quad in self.crossings for t in quad]
        open_roots = [_find(parent, t) for t in open_ends]
        uses = Counter(ports + open_roots)
        if any(k != 2 for k in uses.values()):
            raise MalformedDiagram("wiring produced a bad arc valence")
        label = {r: i for i, r in enumerate(uses)}  # in order of first use
        circles = len({_find(parent, t) for t in range(self.n)}) - len(label)
        arcs = [label[r] for r in ports]
        crossings = tuple(tuple(arcs[i:i + 4]) for i in range(0, len(arcs), 4))
        return crossings, len(label), tuple(label[r] for r in open_roots), circles

    def link(self) -> LinkDiagram:
        crossings, arcs, _, circles = self.assemble()
        return LinkDiagram(crossings, arcs, circles)


# A parsed diagram may carry at most this many split circles (summed over
# its `O` lines): each adds a term to the Jones polynomial, a coloring
# column and a Kei generator.
MAX_SPLIT_CIRCLES = 1000


def parse_pd(text: str) -> LinkDiagram:
    """Parse PD-code text: lines `X a b c d` plus optional `O k` lines."""
    crossings = []
    circles = 0
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        kind, args = tokens[0].upper(), tokens[1:]
        try:
            values = [int(t) for t in args]
        except ValueError as exc:
            raise ParseError(f"line {ln}: non-integer token in {raw!r}") from exc
        if kind == "X":
            if len(values) != 4:
                raise ParseError(f"line {ln}: crossing needs 4 arc ids, got {len(values)}")
            crossings.append(tuple(values))
        elif kind == "O":
            if len(values) != 1 or values[0] < 0:
                raise ParseError(f"line {ln}: O takes one non-negative count")
            circles += values[0]
            if circles > MAX_SPLIT_CIRCLES:
                raise ParseError(
                    f"line {ln}: more than {MAX_SPLIT_CIRCLES} split circles")
        else:
            raise ParseError(f"line {ln}: unknown record {kind!r}")

    # normalize arc ids to a dense 0..n-1 range, preserving order of first use
    relabel: dict[int, int] = {}
    for x in crossings:
        for a in x:
            if a not in relabel:
                relabel[a] = len(relabel)
    dense = tuple(tuple(relabel[a] for a in x) for x in crossings)
    return LinkDiagram(dense, len(relabel), circles)


@dataclass(frozen=True)
class BraidWord:
    """Braid word in B_n: letters are nonzero ints i, |i| <= strands-1."""

    strands: int
    letters: tuple[int, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.strands < 1:
            raise ValueError("a braid needs at least one strand")
        object.__setattr__(self, "letters", tuple(self.letters))
        for g in self.letters:
            if g == 0 or abs(g) > self.strands - 1:
                raise ValueError(f"letter {g} not a generator of B_{self.strands}")

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        if self.strands != other.strands:
            raise ValueError("cannot concatenate words on different strand counts")
        return BraidWord(self.strands, self.letters + other.letters)

    def inverse(self) -> "BraidWord":
        return BraidWord(self.strands, tuple(-g for g in reversed(self.letters)))

    def __pow__(self, n: int) -> "BraidWord":
        w = self if n >= 0 else self.inverse()
        return BraidWord(self.strands, w.letters * abs(n))

    def permutation(self) -> list[int]:
        """Image in the symmetric group (0-indexed, position map top to bottom)."""
        perm = list(range(self.strands))
        for g in self.letters:
            i = abs(g) - 1
            perm[i], perm[i + 1] = perm[i + 1], perm[i]
        return perm

    def cycle_count(self) -> int:
        perm = self.permutation()
        seen = [False] * self.strands
        cycles = 0
        for i in range(self.strands):
            if not seen[i]:
                cycles += 1
                j = i
                while not seen[j]:
                    seen[j] = True
                    j = perm[j]
        return cycles


def braid(letters, strands: int | None = None) -> BraidWord:
    letters = tuple(letters)
    if strands is None:
        strands = max((abs(g) for g in letters), default=0) + 1
        strands = max(strands, 1)
    return BraidWord(strands, letters)


def delta3() -> BraidWord:
    """The half twist in B_3."""
    return BraidWord(3, (1, 2, 1))


def parse_braid(text: str, strands: int | None = None) -> BraidWord:
    try:
        letters = tuple(int(t) for t in text.split())
    except ValueError as exc:
        raise ParseError(f"bad braid word {text!r}") from exc
    try:
        return braid(letters, strands)
    except ValueError as exc:
        raise ParseError(f"bad braid word {text!r}: {exc}") from exc


def braid_closure(w: BraidWord) -> LinkDiagram:
    """Standard closure of a braid word as a PD diagram.

    One crossing per letter; strands untouched by any letter close up
    into split circles.  With the strands running downward, a positive
    letter takes strand i over strand i+1; its PD tuple starts at the
    incoming upper-right under-end, a negative letter's at upper-left.
    """
    wiring = Wiring()
    tops = [wiring.token() for _ in range(w.strands)]
    ends = list(tops)  # dangling token at each strand position
    for g in w.letters:
        i = abs(g) - 1
        nw, ne, sw, se = (wiring.token() for _ in range(4))
        wiring.join(ends[i], nw)
        wiring.join(ends[i + 1], ne)
        wiring.crossings.append((ne, nw, sw, se) if g > 0 else (nw, sw, se, ne))
        ends[i], ends[i + 1] = sw, se
    for top, end in zip(tops, ends):
        wiring.join(end, top)  # an untouched strand joins its top to itself
    return wiring.link()


def unlink(m: int) -> LinkDiagram:
    """Trivial link of m components."""
    return LinkDiagram((), 0, m)
