"""The checked-in `_enumcore.c` must be generated from the current
`_enumcore.pyx`.

Cython quotes the source around every line it compiles, in blocks

    /* "tanglekit/_enumcore.pyx":N
     * <line N-2>
     * <line N-1>
     * <line N>             # <<<<<<<<<<<<<<
     * <line N+1>
     * <line N+2>
    */

so an edit to the `.pyx` that was not followed by regenerating the `.c`
shows up as a block that no longer quotes the `.pyx`.  No Cython needed.
"""

import re
from pathlib import Path

import pytest

import tanglekit

PKG = Path(tanglekit.__file__).resolve().parent
PYX, C = PKG / "_enumcore.pyx", PKG / "_enumcore.c"
MARK = "             # <<<<<<<<<<<<<<"
HEADER = re.compile(r'\s*/\* "tanglekit/_enumcore\.pyx":(\d+)')


def quoted(line: str) -> str:
    return " * " + line.rstrip().replace("*/", "*[/]").replace("/*", "[/]*")


@pytest.mark.skipif(not (PYX.is_file() and C.is_file()), reason="no kernel sources")
def test_c_quotes_current_pyx():
    pyx = PYX.read_text().splitlines()
    c = C.read_text().splitlines()
    blocks, stale = 0, []
    for i, line in enumerate(c):
        m = HEADER.fullmatch(line)
        if not m:
            continue
        blocks += 1
        n = int(m.group(1))
        end = c.index("*/", i)
        want = [quoted(s) for s in pyx[max(0, n - 3):n]]
        want[-1] += MARK
        want += [quoted(s) for s in pyx[n:n + 2]]
        if c[i + 1:end] != want:
            stale.append(n)
    assert blocks > 500
    assert not stale, f"_enumcore.c quotes stale .pyx lines {stale[:10]}"
