"""Pure-Python kernel for finitely presented Kei enumeration.

Completion procedure over a partial operation table.  Relation
instances are scanned HLT-style by one routine, `trace_relation`, for
the presentation's relations and for the universal relation alike:
every product needed along a trace is defined on the spot and the
final step is closed as a deduction, which feeds the union-find
congruence machinery (every table write schedules an event, and the
events propagate involution and distributivity).  Once the queue is
drained and the table is total, it satisfies the axioms, so no final
checking pass is made; `presentation.enumerate_kei` certifies every
completed table outside the kernel.

As in HLT coset enumeration, which traces each coset under each
relator once (Sims, *Computation with Finitely Presented Groups*,
1994, ch. 5), each relation instance is traced once: a traced instance
stays closed.  The relations are traced on the first pass only, and a
universal pass traces only the pairs that include an element created
since the previous pass began.  Totalize takes the first undefined
product from bitsets of the roots and the rows.  So a growth step
costs what it changes, not a rescan of the table.

The defined entries are also indexed by row and by column (Python ints
used as bitsets), so that, as in Felsch-style coset enumeration (Holt,
Eick, O'Brien, *Handbook of Computational Group Theory*, 2005, ch. 5),
a deduction is processed only where it can act: an event visits only
the elements that complete a distributivity instance, and a merge
walks only the dead element's defined entries.  This matters on the
sparse tables of runs that stop at their cap.  The table keeps one
dict per element and stores each value as given, root or not: every
read goes through `find`.  See `run_enumeration` for why this is exact.

The compiled kernel in `_enumcore.c` is a C translation of
`run_enumeration`, with this docstring as its specification; it holds
the table densely and renumbers its live elements between traces.
The golden pins (`tests/test_enum_golden.py`) and `perfbench/parity.py`
check that both kernels give equal tables, generator images and
deduction counts.  The Kauffman bracket contraction here is the only
one the library calls; the 2^c state sum in `_enumcore` serves as a
brute-force reference.

Status codes: 0 = completed, 1 = cap exceeded; the compiled kernel
also returns 2 when its table would outgrow its memory budget.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque

from .errors import TooLarge

COMPLETED = 0
CAP_EXCEEDED = 1
BRACKET_WIDTH_CAP = 16


def contraction_order(crossings):
    """Greedy crossing order for `bracket_statesum`, with the frontier
    left after each step.

    Starts at crossing 0, then repeatedly takes the unprocessed crossing
    sharing the most arcs with the frontier (lowest index on ties).  The
    frontier is the set of arcs with exactly one end among the processed
    crossings; its largest size along the order is the width.
    """
    where: dict[int, list[int]] = {}
    for k, quad in enumerate(crossings):
        for a in quad:
            where.setdefault(a, []).append(k)
    score = [0] * len(crossings)
    todo = set(range(len(crossings)))
    frontier: dict[int, None] = {}
    order, frontiers = [], []
    while todo:
        k = max(todo, key=lambda i: (score[i], -i))
        todo.remove(k)
        for a in dict.fromkeys(crossings[k]):
            if a in frontier:
                del frontier[a]
            elif where[a] != [k, k]:
                frontier[a] = None
                first, second = where[a]
                score[second if first == k else first] += 1
        order.append(k)
        frontiers.append(tuple(frontier))
    return order, frontiers


def bracket_statesum(crossings, arc_count):
    """Kauffman bracket state sum, exact counts per smoothing outcome.

    Returns {(exponent, circles): multiplicity} over all 2**c states,
    where exponent is (#A-smoothings - #B-smoothings) and circles the
    number of closed loops the state produces.

    Planar contraction (Bar-Natan, arXiv:math/0606318): crossings are
    added in `contraction_order`, and the running state maps each
    pairing of the open frontier arcs (which arc the smoothed strand
    entering at an arc leaves by) to a counter of (#A, closed loops).
    The cost grows with the frontier width, not with the crossing count;
    a width over `BRACKET_WIDTH_CAP` raises TooLarge before any work.
    """
    order, frontiers = contraction_order(crossings)
    width = max(map(len, frontiers), default=0)
    if width > BRACKET_WIDTH_CAP:
        raise TooLarge(
            f"frontier width {width} exceeds the bracket cap {BRACKET_WIDTH_CAP}"
        )
    states: dict[tuple, dict[tuple[int, int], int]] = {(): {(0, 0): 1}}
    frontier: tuple[int, ...] = ()
    for k, after in zip(order, frontiers):
        a, b, c, d = crossings[k]
        smoothings = ((1, ((a, b), (c, d))), (0, ((a, d), (b, c))))
        nxt: dict[tuple, dict[tuple[int, int], int]] = {}
        for key, counts in states.items():
            for is_a, pairs in smoothings:
                # glue the strand ends meeting at this crossing
                mate = dict(zip(frontier, key))
                closed = 0
                for x, y in pairs:
                    px, py = mate.pop(x, x), mate.pop(y, y)
                    if px == y:
                        closed += 1
                    else:
                        mate[px], mate[py] = py, px
                target = nxt.setdefault(tuple(mate[x] for x in after), {})
                for (n_a, loops), mult in counts.items():
                    out_key = (n_a + is_a, loops + closed)
                    target[out_key] = target.get(out_key, 0) + mult
        frontier, states = after, nxt
    c = len(crossings)
    return {(2 * n_a - c, loops): mult
            for (n_a, loops), mult in states[()].items()}


def run_enumeration(m, relations, rn_pattern, cap):
    """Enumerate the Kei presented by m generators and the given relations.

    relations: sequence of (lhs, rhs) pairs, each a tuple of generator
      indices naming a left-normed word.
    rn_pattern: tuple over {0, 1} giving the right side of the universal
      relation as a left-normed word in (u, w) = (0, 1); the left side is
      always u.  Empty tuple disables the universal relation; otherwise
      it is imposed on every pair of elements.

    Returns (status, table_rows, generator_images, merge_count).

    `trace_relation(lhs, rhs, env)` traces each relation under the
    current roots of the generators, and each universal instance
    r_n(u, w) as the relation ((0,), rn_pattern) under env (u, w).

    `put` and `take` are the only calls that define or undefine an entry
    of `rows`, where rows[x][z] holds x*z, and they keep the bitsets
    `row` and `col` in step with it; `put` also schedules the entry's
    event, so (ii) below holds by construction.  An event on an entry
    a*b visits z in ascending order, but only the z where one of its
    three distributivity patterns has both inputs defined: row[a] &
    (row[b] | col[b]) | col[a] & col[b].  At any other z a visit would
    only call `find`, so the deduction order, the tables and the merge
    count are exactly those of visiting every z.  The mask is rebuilt
    after every visit, so entries defined and merges made during the
    scan are still seen.  A merge likewise walks only the z with an
    entry in the dead element's row or column; at every other z there
    is nothing to move.

    Keys of the table are always roots, because a merge moves the dead
    element's row and column.  Values need not be: a merge leaves an
    entry that holds the dead element as it is, and `settle(a, b, v)`,
    the one step by which `set_entry` and a merge write, stores v as
    given.  It puts a*b = v if a*b is undefined, and else queues the
    pair in `clashes` for `merge` when find(v) differs.  So every value
    is read through `get`, which calls `find` on it and stores the root
    back, as path compression does; neither is observable.  The event
    loop calls `find` on its roots ra, rb and c only after a merge has
    happened, since until then they stay roots.  It calls `confront`
    only when its two sides differ: with both missing or both equal it
    writes nothing and merges nothing.  After a `confront`, the entries
    the next pattern reads are read again, since it may have written
    or merged them.  So the order of table writes is that of calling
    `find` on every read and `confront` on every instance.

    Each relation and each universal instance is traced once.  A traced
    instance stays closed: every entry a*b = c on its path stays in the
    table as find(a)*find(b) = find(c), because a merge moves or merges
    each entry of the dead element and drops none, and merges only
    coarsen the congruence.  Tracing it again, under the roots its
    elements have now, would define nothing and merge nothing, so it is
    skipped without changing any write.  Hence the relations are traced
    on the first pass only, never after a totalize fill.  A universal
    pass runs over the roots that exist when it starts; `traced_below`
    is the element count when the previous pass started.  Two roots
    below it were roots all through that pass, which traced their pair
    as it stands now, so the pass traces only the pairs that include a
    root at or above it.  Its pair tested, w is a root, so the pair is
    traced under (find(u), w), or skipped if find(u) = w.

    Totalize defines the first undefined product (a, b) of roots,
    ascending in a and then in b.  The bitset `live` holds the roots
    (`new_element` sets a bit, `merge` clears one), so row a misses
    exactly the roots in live & ~row[a], and the first a with a nonzero
    mask and that mask's lowest bit are the pair a scan of the table
    finds.

    Completion stops once the events are drained, neither the relations
    nor r_n deduce anything and the table is total.  As in Felsch-style
    coset enumeration, that table already satisfies the axioms, so no
    final sweep checks them:
    (i)   x*x = x is put when x is created and stays in the table
          while x is a root; a merge folding y into x drops y*y, which
          then merges nothing;
    (ii)  every entry a*b = c has an event, which applies the
          involution c*b = a;
    (iii) an instance (p*q)*r = (p*r)*(q*r) is seen by the event of
          whichever of its inputs p*q, p*r, q*r is defined last, which
          closes it if either side is defined.  If both sides were
          still undefined then, take e = p*r and f = q*r: by (ii) the
          companion instance (e*f)*r = (e*r)*(f*r) has the right side
          p*q, which is defined.  Once e*f is defined (at the latest by
          totalizing), the companion is seen and closes (e*f)*r = p*q,
          whose involution gives (p*q)*r = e*f.
    """
    parent: list[int] = []
    # rows[x][z] holds x*z up to `find`; `get` reads it as a root
    rows: list[dict[int, int]] = []
    # bit z of row[x], and bit x of col[z], is set iff x*z is defined
    row: list[int] = []
    col: list[int] = []
    # bit x is set iff x is a root
    live = 0
    events: deque[tuple[int, int]] = deque()
    # pairs for `merge` to unite
    clashes: list[tuple[int, int]] = []
    merges = 0
    puts = 0

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def get(a: int, b: int) -> int | None:
        """a*b as a root, or None."""
        v = rows[a].get(b)
        if v is None or parent[v] == v:
            return v
        rows[a][b] = v = find(v)
        return v

    def put(a: int, b: int, v: int) -> None:
        """Define a*b = v and schedule the entry's event."""
        nonlocal puts
        rows[a][b] = v
        row[a] |= 1 << b
        col[b] |= 1 << a
        puts += 1
        events.append((a, b))

    def take(a: int, b: int) -> int | None:
        v = rows[a].pop(b, None)
        if v is not None:
            row[a] ^= 1 << b
            col[b] ^= 1 << a
        return v

    def settle(a: int, b: int, v: int | None) -> None:
        """Define a*b = v, or queue a clash with its value; v may be None."""
        if v is None:
            return
        cur = get(a, b)
        if cur is None:
            put(a, b, v)
        elif cur != find(v):
            clashes.append((cur, v))

    def new_element() -> int:
        nonlocal live
        e = len(parent)
        parent.append(e)
        rows.append({})
        row.append(0)
        col.append(0)
        live |= 1 << e
        put(e, e, e)
        return e

    def live_elements() -> list[int]:
        return [x for x in range(len(parent)) if parent[x] == x]

    def live_count() -> int:
        return len(parent) - merges

    def merge(x: int, y: int) -> None:
        nonlocal merges, live
        clashes.append((x, y))
        while clashes:
            x, y = clashes.pop()
            rx, ry = find(x), find(y)
            if rx == ry:
                continue
            if rx > ry:
                rx, ry = ry, rx
            parent[ry] = rx
            live ^= 1 << ry
            merges += 1
            # fold the dead row/column into the survivor; ry*ry has
            # nothing to merge
            take(ry, ry)
            zs = row[ry] | col[ry]
            while zs:
                low = zs & -zs
                zs ^= low
                z = low.bit_length() - 1
                settle(rx, z, take(ry, z))
                settle(z, rx, take(z, ry))

    def set_entry(a: int, b: int, c: int) -> None:
        settle(find(a), find(b), c)
        if clashes:
            merge(*clashes.pop())

    def confront(gkey, g, hkey, h) -> None:
        """Two differing sides of one distributivity instance: g or h
        may be None."""
        if g is None:
            set_entry(gkey[0], gkey[1], h)
        elif h is None:
            set_entry(hkey[0], hkey[1], g)
        else:
            merge(g, h)

    def process_events() -> None:
        while events:
            a, b = events.popleft()
            ra, rb = find(a), find(b)
            c = get(ra, rb)
            seen = merges
            # involution: (a*b)*b = a
            set_entry(c, rb, ra)
            # visit, in ascending order, only the z where one of the
            # patterns below has both inputs defined
            z = -1
            while True:
                if merges != seen:
                    seen = merges
                    ra, rb, c = find(ra), find(rb), find(c)
                zs = (row[ra] & (row[rb] | col[rb]) | col[ra] & col[rb]) >> (z + 1)
                if not zs:
                    break
                z += (zs & -zs).bit_length()
                d = get(ra, z)
                if d is not None:
                    # entry as p*q in (p*q)*z = (p*z)*(q*z)
                    f = get(rb, z)
                    if f is not None:
                        g, h = get(c, z), get(d, f)
                        if g != h:
                            confront((c, z), g, (d, f), h)
                            d = get(ra, z)
                    # entry as p*r in (p*q)*b = (p*b)*(q*b), q = z
                    if d is not None:
                        f = get(z, rb)
                        if f is not None:
                            g, h = get(d, rb), get(c, f)
                            if g != h:
                                confront((d, rb), g, (c, f), h)
                # entry as q*r in (z*a)*b = (z*b)*(a*b)
                d = get(z, ra)
                if d is not None:
                    e = get(z, rb)
                    if e is not None:
                        g, h = get(d, rb), get(e, c)
                        if g != h:
                            confront((d, rb), g, (e, c), h)

    def fill_product(x: int, y: int) -> int:
        """x*y for roots x and y, defining a fresh element if the product
        is missing."""
        v = get(x, y)
        if v is not None:
            return v
        e = new_element()
        put(x, y, e)
        return e

    def trace_relation(lhs, rhs, env) -> None:
        """Trace lhs = rhs under `env`, a sequence of roots: fill every
        product along both words, except that the last product of rhs is
        closed as a deduction against the value of lhs.  Filling never
        merges, so the roots in `env` and the values found stay roots
        until that deduction."""
        x = env[lhs[0]]
        for sym in lhs[1:]:
            x = fill_product(x, env[sym])
        y = env[rhs[0]]
        if len(rhs) == 1:
            if y != x:
                merge(y, x)
            return
        for sym in rhs[1:-1]:
            y = fill_product(y, env[sym])
        set_entry(y, env[rhs[-1]], x)

    # the element count when the last universal pass began
    traced_below = 0

    def trace_universal() -> bool:
        nonlocal traced_below
        before = puts + merges
        domain = live_elements()
        old = bisect_left(domain, traced_below)
        traced_below = len(parent)
        fresh = domain[old:]
        for i, u in enumerate(domain):
            if parent[u] != u:
                continue
            # pairs of two older elements were traced by an earlier pass
            for w in fresh if i < old else domain:
                if parent[w] != w:
                    continue
                ru = find(u)
                if ru == w:
                    continue
                trace_relation((0,), rn_pattern, (ru, w))
                process_events()
                if live_count() > cap:
                    return True
        return puts + merges != before

    def missing_product() -> tuple[int, int] | None:
        """The first undefined product (a, b) of roots in scan order."""
        rest = live
        while rest:
            low = rest & -rest
            a = low.bit_length() - 1
            gap = live & ~row[a]
            if gap:
                return a, (gap & -gap).bit_length() - 1
            rest ^= low
        return None

    gen_slots = [new_element() for _ in range(m)]
    process_events()
    for lhs, rhs in relations:
        if live_count() > cap:
            break
        trace_relation(lhs, rhs, [find(g) for g in gen_slots])
        process_events()

    while True:
        if live_count() > cap:
            return CAP_EXCEEDED, None, None, merges
        if rn_pattern and trace_universal():
            continue
        missing = missing_product()
        if missing is None:
            break
        fill_product(*missing)
        process_events()

    # compact to a dense table in discovery order
    zs = live_elements()
    relabel = {x: i for i, x in enumerate(zs)}
    table = [tuple(relabel[get(a, b)] for b in zs) for a in zs]
    images = [relabel[find(g)] for g in gen_slots]
    return COMPLETED, table, images, merges
