"""Finitely presented Kei: fundamental Kei of a diagram, universal
relations r_n, and enumeration to a finite table.

The universal relation r_n(u, w) identifies u with the alternating
left-normed word of length n in u and w whose dihedral value is n;
imposing it on all element pairs yields the free objects Q(m, n) and
the Burnside quotient of a link's fundamental Kei.

Enumeration is a completion procedure (see `_enumpy`); the compiled
kernel `_enumcore` is preferred when it is importable, and either kernel
can be forced through the `backend` argument.  Whichever kernel runs,
`enumerate_kei` certifies each completed table once: it must be a Kei
in which the generator images satisfy every relation and r_n.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .diagrams import LinkDiagram
from .errors import EnumerationFailure, ParseError
from .kei import FiniteKei, LeftNormedWord, check_axioms, phi_eval
from . import _enumpy

try:
    from . import _enumcore
except ImportError:  # extension not built; pure fallback only
    _enumcore = None

DEFAULT_CAP = 20000


def kernel_backend() -> str:
    """Name of the kernel used by default: 'compiled' or 'pure'."""
    return "compiled" if _enumcore is not None else "pure"


def _kernel(backend: str | None):
    if backend is None:
        return _enumcore if _enumcore is not None else _enumpy
    if backend == "compiled":
        if _enumcore is None:
            raise RuntimeError("compiled kernel is not available")
        return _enumcore
    if backend == "pure":
        return _enumpy
    raise ValueError(f"unknown backend {backend!r}")


def r_n_relation(n: int) -> tuple[LeftNormedWord, LeftNormedWord]:
    """The pair (a, alternating word of length n) with dihedral value n."""
    if n < 2:
        raise ValueError("the universal relation needs n >= 2")
    if n % 2:
        letters = tuple("b" if i % 2 == 0 else "a" for i in range(n))
    else:
        letters = tuple("a" if i % 2 == 0 else "b" for i in range(n))
    rhs = LeftNormedWord(letters)
    assert phi_eval(rhs) == n
    return LeftNormedWord(("a",)), rhs


@dataclass(frozen=True)
class KeiPresentation:
    """Generators 0..m-1 with left-normed word relations.

    `relations` holds pairs of generator-index tuples; `burnside_exponent`,
    when set, additionally imposes r_n(u, w) for all element pairs of the
    presented Kei (not only generator pairs).
    """

    generator_count: int
    relations: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...] = ()
    burnside_exponent: int | None = None
    generator_names: tuple[str, ...] = field(default=(), compare=False)

    def __post_init__(self):
        if self.generator_count < 0:
            raise ValueError("generator count must be non-negative")
        for lhs, rhs in self.relations:
            for w in (lhs, rhs):
                if len(w) == 0:
                    raise ValueError("empty word in relation")
                if any(not (0 <= g < self.generator_count) for g in w):
                    raise ValueError("relation references an unknown generator")
        if self.burnside_exponent is not None and self.burnside_exponent < 2:
            raise ValueError("burnside exponent must be >= 2")
        if not self.generator_names:
            object.__setattr__(
                self,
                "generator_names",
                tuple(f"x{i}" for i in range(self.generator_count)),
            )

    def with_burnside(self, n: int) -> "KeiPresentation":
        return KeiPresentation(
            self.generator_count, self.relations, n, self.generator_names
        )

    def serialize(self) -> str:
        names = self.generator_names
        lines = [f"gens {self.generator_count}"]
        for lhs, rhs in self.relations:
            left = "*".join(names[g] for g in lhs)
            right = "*".join(names[g] for g in rhs)
            lines.append(f"rel {left} = {right}")
        if self.burnside_exponent is not None:
            lines.append(f"burnside {self.burnside_exponent}")
        return "\n".join(lines) + "\n"


def parse_presentation(text: str) -> KeiPresentation:
    m = None
    names: list[str] = []
    index: dict[str, int] = {}
    relations = []
    burnside = None

    def resolve(token: str) -> int:
        if token not in index:
            raise ParseError(f"unknown generator {token!r}")
        return index[token]

    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        if head == "gens":
            try:
                m = int(rest)
            except ValueError as exc:
                raise ParseError(f"line {ln}: bad generator count") from exc
            names = [f"x{i}" for i in range(m)]
            index = {n: i for i, n in enumerate(names)}
        elif head == "rel":
            if m is None:
                raise ParseError(f"line {ln}: rel before gens")
            if "=" not in rest:
                raise ParseError(f"line {ln}: relation needs '='")
            left, right = rest.split("=", 1)
            lhs = tuple(resolve(t) for t in left.replace(" ", "").split("*") if t)
            rhs = tuple(resolve(t) for t in right.replace(" ", "").split("*") if t)
            if not lhs or not rhs:
                raise ParseError(f"line {ln}: empty word in relation")
            relations.append((lhs, rhs))
        elif head == "burnside":
            try:
                burnside = int(rest)
            except ValueError as exc:
                raise ParseError(f"line {ln}: bad burnside exponent") from exc
        else:
            raise ParseError(f"line {ln}: unknown record {head!r}")
    if m is None:
        raise ParseError("missing 'gens' record")
    return KeiPresentation(m, tuple(relations), burnside, tuple(names))


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


def _rn_pattern(n: int) -> tuple[int, ...]:
    _, rhs = r_n_relation(n)
    return tuple(0 if x == "a" else 1 for x in rhs.letters)


def _certify(p, kei, images, pattern, universal_on_all_pairs) -> None:
    """Raise EnumerationFailure unless `kei` satisfies the axioms and,
    under `images`, every relation and r_n on the pairs it was imposed on."""
    t = kei.table

    def value(word, env):
        x = env[word[0]]
        for sym in word[1:]:
            x = t[x][env[sym]]
        return x

    if check_axioms(kei):
        raise EnumerationFailure("enumerated table violates the Kei axioms")
    if any(value(lhs, images) != value(rhs, images) for lhs, rhs in p.relations):
        raise EnumerationFailure("generator images violate a relation")
    domain = range(kei.size) if universal_on_all_pairs else set(images)
    if pattern and any(value(pattern, (u, w)) != u for u in domain for w in domain):
        raise EnumerationFailure("enumerated table violates the universal relation")


def enumerate_kei(
    p: KeiPresentation,
    cap: int | None = None,
    universal_on_all_pairs: bool = True,
    backend: str | None = None,
) -> EnumerationResult:
    """Run the completion procedure on a presentation.

    CapExceeded is reported as a result, not raised: finiteness of the
    presented Kei is in general unknown, so hitting the cap is a normal
    outcome.  A cap below 1 is refused with ValueError; a completed table
    that fails its certificate raises EnumerationFailure.
    """
    if cap is None:
        cap = DEFAULT_CAP
    if cap < 1:
        raise ValueError("cap must be >= 1")
    kernel = _kernel(backend)
    pattern = () if p.burnside_exponent is None else _rn_pattern(p.burnside_exponent)
    status, rows, images, merges = kernel.run_enumeration(
        p.generator_count,
        tuple(p.relations),
        pattern,
        bool(universal_on_all_pairs),
        int(cap),
    )
    name = "compiled" if kernel is _enumcore else "pure"
    if status != 0:
        return EnumerationResult(False, None, None, merges, cap, name)
    kei = FiniteKei(tuple(tuple(r) for r in rows))
    _certify(p, kei, images, pattern, universal_on_all_pairs)
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
    relations = []
    for a, b, c, _ in d.crossings:
        relations.append(((classes[c],), (classes[a], classes[b])))
    return KeiPresentation(d.strand_count(), tuple(relations))


def burnside_kei(
    d: LinkDiagram, n: int, cap: int | None = None, backend: str | None = None
) -> EnumerationResult:
    if n < 2:
        raise ValueError("burnside exponent must be >= 2")
    return enumerate_kei(fundamental_kei(d).with_burnside(n), cap, backend=backend)


@dataclass(frozen=True)
class GroupPresentationRecord:
    """Core-group presentation of a diagram, exported as text only."""

    generators: tuple[str, ...]
    relators: tuple[str, ...]

    def text(self) -> str:
        lines = [f"generators {' '.join(self.generators)}"]
        lines += [f"relator {r}" for r in self.relators]
        return "\n".join(lines) + "\n"


def core_group_presentation(d: LinkDiagram) -> GroupPresentationRecord:
    """Arc generators with one relator y_over y_in^-1 y_over y_out^-1 per
    crossing.  No solving is attempted."""
    classes = d.strand_classes()
    names = tuple(f"y{i}" for i in range(d.strand_count()))
    relators = []
    for a, b, c, _ in d.crossings:
        yi, yj, yk = names[classes[b]], names[classes[a]], names[classes[c]]
        relators.append(f"{yi} {yj}^-1 {yi} {yk}^-1")
    return GroupPresentationRecord(names, tuple(relators))
