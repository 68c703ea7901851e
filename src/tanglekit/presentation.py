"""Finitely presented Kei: fundamental Kei of a diagram, universal
relations r_n, and enumeration to a finite table.

The universal relation r_n(u, w) identifies u with the alternating
left-normed word of length n in u and w whose dihedral value is n;
imposing it on all element pairs yields the free objects Q(m, n) and
the Burnside quotient of a link's fundamental Kei.

Enumeration is a completion procedure (see `_enumpy`).  `KERNELS`
names the kernels this install has, the compiled `_enumcore` first
when it is built; the first is the default, and any can be forced
through the `backend` argument.  Whichever kernel runs,
`enumerate_kei` certifies each completed table once: it must be a Kei
generated by the generator images, the images must satisfy every
relation, and r_n must hold on every pair.  Generation lets the
certificate check axioms 2 and 3, and r_n, at the images' columns only
(see `_certify`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .diagrams import LinkDiagram, strand_count
from .errors import EnumerationFailure, ParseError, TooLarge
from .kei import FiniteKei, check_axioms, eval_word, phi_eval
from . import _enumpy

# report name -> module of each built kernel, the default first
try:
    from . import _enumcore
    KERNELS = {"compiled": _enumcore, "pure": _enumpy}
except ImportError:  # extension not built
    KERNELS = {"pure": _enumpy}

DEFAULT_CAP = 20000
# r_n is a word of length n, built and traced whole before a cap applies
MAX_BURNSIDE_EXPONENT = 10**6


def kernel_backend() -> str:
    """Name of the kernel used by default: 'compiled' or 'pure'."""
    return next(iter(KERNELS))


def r_n_relation(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The pair (u, alternating word of length n in u and w with dihedral
    value n), as letter tuples with 0 = u and 1 = w."""
    if not 2 <= n <= MAX_BURNSIDE_EXPONENT:
        raise ValueError(f"the universal relation needs 2 <= n <= {MAX_BURNSIDE_EXPONENT}")
    rhs = tuple((n + i) % 2 for i in range(n))
    assert phi_eval(rhs) == n
    return (0,), rhs


@dataclass(frozen=True)
class KeiPresentation:
    """Generators 0..m-1, written x0..x{m-1}, with left-normed word
    relations.

    `relations` holds pairs of generator-index tuples; `burnside_exponent`,
    when set, additionally imposes r_n(u, w) for all element pairs of the
    presented Kei (not only generator pairs).
    """

    generator_count: int
    relations: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...] = ()
    burnside_exponent: int | None = None

    def __post_init__(self):
        if self.generator_count < 0:
            raise ValueError("generator count must be non-negative")
        object.__setattr__(
            self, "relations", tuple((tuple(lhs), tuple(rhs)) for lhs, rhs in self.relations))
        for lhs, rhs in self.relations:
            for w in (lhs, rhs):
                if len(w) == 0:
                    raise ValueError("empty word in relation")
                if any(not (0 <= g < self.generator_count) for g in w):
                    raise ValueError("relation references an unknown generator")
        n = self.burnside_exponent
        if n is not None and not 2 <= n <= MAX_BURNSIDE_EXPONENT:
            raise ValueError(f"burnside exponent must be in 2..{MAX_BURNSIDE_EXPONENT}")

    def with_burnside(self, n: int) -> "KeiPresentation":
        return replace(self, burnside_exponent=n)

    def serialize(self) -> str:
        lines = [f"gens {self.generator_count}"]
        for lhs, rhs in self.relations:
            left = "*".join(f"x{g}" for g in lhs)
            right = "*".join(f"x{g}" for g in rhs)
            lines.append(f"rel {left} = {right}")
        if self.burnside_exponent is not None:
            lines.append(f"burnside {self.burnside_exponent}")
        return "\n".join(lines) + "\n"


def parse_presentation(text: str) -> KeiPresentation:
    m = None
    relations = []
    burnside = None

    def resolve(token: str) -> int:
        """k for the token x<k> with 0 <= k < m, written as `serialize`
        writes it."""
        try:
            k = int(token[1:])
        except ValueError:
            k = -1
        if not 0 <= k < m or token != f"x{k}":
            raise ParseError(f"line {ln}: unknown generator {token!r}")
        return k

    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head = line.split(None, 1)[0]
        rest = line[len(head):]
        if head == "gens":
            if m is not None:
                raise ParseError(f"line {ln}: duplicate 'gens' record")
            try:
                m = int(rest)
            except ValueError as exc:
                raise ParseError(f"line {ln}: bad generator count") from exc
            if m < 0:
                raise ParseError(f"line {ln}: generator count must be non-negative")
        elif head == "rel":
            if m is None:
                raise ParseError(f"line {ln}: rel before gens")
            if "=" not in rest:
                raise ParseError(f"line {ln}: relation needs '='")
            words = ["".join(side.split()).split("*") for side in rest.split("=", 1)]
            if not all(any(w) for w in words):
                raise ParseError(f"line {ln}: empty word in relation")
            if any("" in w for w in words):
                raise ParseError(f"line {ln}: empty factor in relation")
            relations.append(tuple(tuple(map(resolve, w)) for w in words))
        elif head == "burnside":
            if burnside is not None:
                raise ParseError(f"line {ln}: duplicate 'burnside' record")
            try:
                burnside = int(rest)
            except ValueError as exc:
                raise ParseError(f"line {ln}: bad burnside exponent") from exc
            if not 2 <= burnside <= MAX_BURNSIDE_EXPONENT:
                raise ParseError(
                    f"line {ln}: burnside exponent must be in 2..{MAX_BURNSIDE_EXPONENT}")
        else:
            raise ParseError(f"line {ln}: unknown record {head!r}")
    if m is None:
        raise ParseError("missing 'gens' record")
    return KeiPresentation(m, tuple(relations), burnside)


@dataclass(frozen=True)
class EnumerationResult:
    """Outcome of one enumeration run."""

    completed: bool
    kei: FiniteKei | None
    generator_images: tuple[int, ...] | None
    deductions: int
    cap: int
    backend: str

    @property
    def size(self) -> int | None:
        return self.kei.size if self.kei is not None else None


def _certify(p, kei, images, pattern) -> None:
    """Raise EnumerationFailure unless the images generate `kei`, `kei`
    satisfies the axioms, under `images` every relation holds, and r_n
    holds on every pair of elements.

    Generation is checked first: right multiplication by the images
    must reach every element from the images.  Axiom 1, x*x = x, is
    then checked at every x, but axioms 2 and 3 and r_n only at the
    images' columns.  Write R_y for x -> x*y; axioms 2 and 3 at column y
    say that R_y is an involutive endomorphism.  If they hold at column
    g, then z*(y*g) = ((z*g)*y)*g, so R_{y*g} = R_g R_y R_g is one
    whenever R_y is (Joyce, J. Pure Appl. Algebra 23, 1982).  R_g is
    then an automorphism, so r_n(u, y*g) = R_g(r_n(u*g, y)), which is
    R_g(u*g) = u when r_n holds at column y.  Every element is an image
    or some y*g with g an image and y reached earlier, so the axioms and
    r_n hold at every column.
    """
    t = kei.table
    gens = set(images)
    reached, fresh = set(gens), gens
    while fresh:
        fresh = {t[x][g] for x in fresh for g in gens} - reached
        reached |= fresh
    if len(reached) != kei.size:
        raise EnumerationFailure("generator images do not generate the enumerated table")
    if check_axioms(kei, gens):
        raise EnumerationFailure("enumerated table violates the Kei axioms")
    if any(
        eval_word(kei, lhs, images) != eval_word(kei, rhs, images)
        for lhs, rhs in p.relations
    ):
        raise EnumerationFailure("generator images violate a relation")
    if pattern and any(
        eval_word(kei, pattern, (u, g)) != u for u in range(kei.size) for g in gens
    ):
        raise EnumerationFailure("enumerated table violates the universal relation")


def enumerate_kei(
    p: KeiPresentation,
    cap: int | None = None,
    backend: str | None = None,
) -> EnumerationResult:
    """Run the completion procedure on a presentation.

    CapExceeded is reported as a result, not raised: finiteness of the
    presented Kei is in general unknown, so hitting the cap is a normal
    outcome.  A cap below 1 is refused with ValueError; a completed table
    that fails its certificate raises EnumerationFailure.  More generators
    than the cap stop at once, without calling a kernel.  A compiled run
    whose table would outgrow TANGLEKIT_MAX_TABLE_BYTES raises TooLarge.
    """
    if cap is None:
        cap = DEFAULT_CAP
    if cap < 1:
        raise ValueError("cap must be >= 1")
    name = kernel_backend() if backend is None else backend
    if name not in KERNELS:
        raise ValueError(
            f"unknown backend {backend!r}: this install has {', '.join(KERNELS)}")
    if p.generator_count > cap:
        # both kernels create every generator and stop with no deduction
        return EnumerationResult(False, None, None, 0, cap, name)
    pattern = () if p.burnside_exponent is None else r_n_relation(p.burnside_exponent)[1]
    status, rows, images, merges = KERNELS[name].run_enumeration(
        p.generator_count, p.relations, pattern, int(cap))
    if status == 2:
        raise TooLarge(
            "the Kei table would outgrow its memory budget (TANGLEKIT_MAX_TABLE_BYTES)")
    if status != 0:
        return EnumerationResult(False, None, None, merges, cap, name)
    kei = FiniteKei(tuple(rows))
    _certify(p, kei, images, pattern)
    return EnumerationResult(True, kei, tuple(images), merges, cap, name)


def free_burnside_presentation(m: int, n: int) -> KeiPresentation:
    """Q(m, n): m generators, universal relation r_n on all pairs."""
    return KeiPresentation(m, (), n)


def q_kei(m: int, n: int, cap: int | None = None, **kw) -> EnumerationResult:
    return enumerate_kei(free_burnside_presentation(m, n), cap, **kw)


def fundamental_kei(d: LinkDiagram) -> KeiPresentation:
    """One generator per strand (plus split circles), one relation per
    crossing: outgoing under-strand = incoming under-strand * over-strand."""
    classes = d.strand_classes()
    relations = tuple(((classes[c],), (classes[a], classes[b])) for a, b, c, _ in d.crossings)
    return KeiPresentation(strand_count(classes, d.unknotted_split_circles), relations)


def burnside_kei(
    d: LinkDiagram, n: int, cap: int | None = None, backend: str | None = None
) -> EnumerationResult:
    return enumerate_kei(fundamental_kei(d).with_burnside(n), cap, backend=backend)

