"""Embedded diagram corpus.

Every entry was generated from an explicit construction (braid closures
for all but one; a clasp substitution on the Borromean diagram for the
last non-alternating knot) and is cross-validated at test time against
its determinant and coloring counts.  Chirality of the chiral entries
is the one fixed by the embedded PD code.
"""

from __future__ import annotations

import importlib.resources
from functools import lru_cache

from .diagrams import LinkDiagram, parse_pd
from .errors import CorpusError

# determinant/component expectations; dets of the named table knots are
# the published values, 9_2_40's is recorded from this package's own
# computation (Jones at -1 and Smith form agree)
CORPUS_EXPECTED: dict[str, dict] = {
    "unknot": {"components": 1, "determinant": 1},
    "hopf": {"components": 2, "determinant": 2},
    "trefoil": {"components": 1, "determinant": 3},
    "4_1": {"components": 1, "determinant": 5},
    "8_18": {"components": 1, "determinant": 45},
    "9_40": {"components": 1, "determinant": 75},
    "9_49": {"components": 1, "determinant": 25},
    "9_2_40": {"components": 2, "determinant": 50},
}


def parse_corpus(text: str) -> dict[str, LinkDiagram]:
    """Parse `name: <id>` records, each followed by PD lines."""
    entries: dict[str, LinkDiagram] = {}
    name: str | None = None
    chunk: list[str] = []

    def flush():
        nonlocal name, chunk
        if name is None:
            for ln, line in enumerate(chunk, 1):
                if line.strip():
                    raise CorpusError(f"line {ln}: PD lines before the first name record")
            return
        entries[name] = parse_pd("\n".join(chunk))
        name, chunk = None, []

    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if line.startswith("name:"):
            flush()
            name = line.split(":", 1)[1].strip()
            if not name:
                raise CorpusError(f"line {ln}: empty corpus entry name")
            if name in entries:
                raise CorpusError(f"line {ln}: duplicate corpus entry {name!r}")
            # blank lines keep parse_pd's line numbers those of the file
            chunk = [""] * ln
        else:
            chunk.append(raw)
    flush()
    return entries


@lru_cache(maxsize=1)
def corpus() -> dict[str, LinkDiagram]:
    try:
        text = (
            importlib.resources.files("tanglekit") / "data" / "corpus.txt"
        ).read_text()
    except (FileNotFoundError, ModuleNotFoundError) as exc:
        raise CorpusError("embedded corpus file is missing") from exc
    entries = parse_corpus(text)
    missing = set(CORPUS_EXPECTED) - set(entries)
    if missing:
        raise CorpusError(f"corpus entries missing: {sorted(missing)}")
    return entries


def corpus_entry(name: str) -> LinkDiagram:
    entries = corpus()
    if name not in entries:
        raise CorpusError(f"no corpus entry named {name!r}")
    return entries[name]


def corpus_names() -> list[str]:
    return sorted(corpus())
