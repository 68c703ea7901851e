"""Pure-Python kernel for finitely presented Kei enumeration.

Completion procedure over a partial operation table.  Relation
instances are scanned HLT-style: every product needed along a trace is
defined on the spot and the final step is closed as a deduction, which
feeds the union-find congruence machinery (involution and
distributivity propagate through an event queue).  Once the queue is
drained and the table is total, it satisfies the axioms, so no final
checking pass is made; `presentation.enumerate_kei` certifies every
completed table outside the kernel.

The defined entries are also indexed by row and by column (Python ints
used as bitsets), so that, as in Felsch-style coset enumeration (Holt,
Eick, O'Brien, *Handbook of Computational Group Theory*, 2005, ch. 5),
a deduction is processed only where it can act: an event visits only
the elements that complete a distributivity instance, and a merge
walks only the dead element's defined entries.  This matters on the
sparse tables of runs that stop at their cap; see `run_enumeration`
for why the skipping is exact.

The compiled kernel in `_enumcore` is a translation of the enumerator
onto flat C arrays; both produce identical tables (fixed deduction
order, merges always keep the smaller element id).  The Kauffman
bracket contraction here is the only one the library calls; the
2^c state sum left in `_enumcore` serves as a brute-force reference.

Status codes: 0 = completed, 1 = cap exceeded.
"""

from __future__ import annotations

from collections import deque

COMPLETED = 0
CAP_EXCEEDED = 1


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
    The cost grows with the frontier width, not with the crossing count.
    """
    states: dict[tuple, dict[tuple[int, int], int]] = {(): {(0, 0): 1}}
    frontier: tuple[int, ...] = ()
    for k, after in zip(*contraction_order(crossings)):
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


def run_enumeration(m, relations, rn_pattern, rn_on_all_pairs, cap):
    """Enumerate the Kei presented by m generators and the given relations.

    relations: sequence of (lhs, rhs) pairs, each a tuple of generator
      indices naming a left-normed word.
    rn_pattern: tuple over {0, 1} giving the right side of the universal
      relation as a left-normed word in (u, w) = (0, 1); the left side is
      always u.  Empty tuple disables the universal relation.
    rn_on_all_pairs: instantiate the universal relation on all element
      pairs (True) or on generator pairs only (False).

    Returns (status, table_rows, generator_images, merge_count).

    `put` and `take` are the only writes to `tab`, which maps (x, z) to
    x*z, and keep the bitsets `row` and `col` in step with it.  An event
    on an entry a*b visits z in ascending order, but only the z where
    one of its three distributivity patterns has both inputs defined:
    row[a] & (row[b] | col[b]) | col[a] & col[b].  At any other z a
    visit would only call `find`, so the deduction order, the tables
    and the merge count are exactly those of visiting every z.  The
    mask is rebuilt from the current roots after every visit, so
    entries defined and merges made during the scan are still seen.  A
    merge likewise walks only the z with an entry in the dead element's
    row or column; at every other z there is nothing to move.

    Completion stops once the events are drained, neither the relations
    nor r_n deduce anything and the table is total.  As in Felsch-style
    coset enumeration, that table already satisfies the axioms, so no
    final sweep checks them:
    (i)   x*x = x is defined when x is created, and a merge folding y
          into x merges y*y with x;
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
    tab: dict[tuple[int, int], int] = {}
    # bit z of row[x], and bit x of col[z], is set iff (x, z) is in tab
    row: list[int] = []
    col: list[int] = []
    events: deque[tuple[int, int]] = deque()
    merges = 0

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def put(a: int, b: int, v: int) -> None:
        tab[(a, b)] = v
        row[a] |= 1 << b
        col[b] |= 1 << a

    def take(a: int, b: int) -> int | None:
        v = tab.pop((a, b), None)
        if v is not None:
            row[a] ^= 1 << b
            col[b] ^= 1 << a
        return v

    def new_element() -> int:
        e = len(parent)
        parent.append(e)
        row.append(0)
        col.append(0)
        put(e, e, e)
        events.append((e, e))
        return e

    def live_elements() -> list[int]:
        return [x for x in range(len(parent)) if parent[x] == x]

    def live_count() -> int:
        return len(parent) - merges

    def merge(x: int, y: int) -> None:
        nonlocal merges
        queue = [(x, y)]
        while queue:
            x, y = queue.pop()
            rx, ry = find(x), find(y)
            if rx == ry:
                continue
            if rx > ry:
                rx, ry = ry, rx
            parent[ry] = rx
            merges += 1
            # fold the dead row/column into the survivor
            val = take(ry, ry)
            if val is not None:
                queue.append((val, rx))
            zs = row[ry] | col[ry]
            while zs:
                low = zs & -zs
                zs ^= low
                z = low.bit_length() - 1
                val = take(ry, z)
                if val is not None:
                    cur = tab.get((rx, z))
                    if cur is None:
                        put(rx, z, val)
                        events.append((rx, z))
                    elif cur != val:
                        queue.append((cur, val))
                val = take(z, ry)
                if val is not None:
                    cur = tab.get((z, rx))
                    if cur is None:
                        put(z, rx, val)
                        events.append((z, rx))
                    elif cur != val:
                        queue.append((cur, val))

    def set_entry(a: int, b: int, c: int) -> None:
        a, b, c = find(a), find(b), find(c)
        cur = tab.get((a, b))
        if cur is None:
            put(a, b, c)
            events.append((a, b))
        elif find(cur) != c:
            merge(cur, c)

    def lookup(a: int, b: int) -> int | None:
        v = tab.get((a, b))
        return None if v is None else find(v)

    def confront(gkey, g, hkey, h) -> None:
        """Two sides of one distributivity instance: g and h may be None."""
        if g is None and h is None:
            return
        if g is None:
            set_entry(gkey[0], gkey[1], h)
        elif h is None:
            set_entry(hkey[0], hkey[1], g)
        elif g != h:
            merge(g, h)

    def process_events() -> None:
        while events:
            a, b = events.popleft()
            ra, rb = find(a), find(b)
            c = tab.get((ra, rb))
            if c is None:
                continue
            c = find(c)
            # involution: (a*b)*b = a
            set_entry(c, rb, ra)
            # visit, in ascending order, only the z where one of the
            # patterns below has both inputs defined
            z = -1
            while True:
                ra, rb = find(ra), find(rb)
                zs = (row[ra] & (row[rb] | col[rb]) | col[ra] & col[rb]) >> (z + 1)
                if not zs:
                    break
                z += (zs & -zs).bit_length()
                c = find(c)
                # entry as p*q in (p*q)*z = (p*z)*(q*z)
                e, f = lookup(ra, z), lookup(rb, z)
                if e is not None and f is not None:
                    confront((c, z), lookup(c, z), (e, f), lookup(e, f))
                # entry as p*r in (p*q)*b = (p*b)*(q*b), q = z
                d, f = lookup(ra, z), lookup(z, rb)
                if d is not None and f is not None:
                    confront((d, rb), lookup(d, rb), (c, f), lookup(c, f))
                # entry as q*r in (z*a)*b = (z*b)*(a*b)
                d, e = lookup(z, ra), lookup(z, rb)
                if d is not None and e is not None:
                    confront((d, rb), lookup(d, rb), (e, c), lookup(e, c))

    def fill_product(x: int, y: int) -> int:
        """x*y, defining a fresh element if the product is missing."""
        x, y = find(x), find(y)
        v = tab.get((x, y))
        if v is not None:
            return find(v)
        e = new_element()
        put(x, y, e)
        events.append((x, y))
        return e

    def scan_word_fill(letters, env) -> int:
        x = find(env[letters[0]])
        for sym in letters[1:]:
            x = fill_product(x, find(env[sym]))
        return find(x)

    def scan_close(letters, env, target: int) -> None:
        """Trace a word, filling all products but closing the last one
        as a deduction against `target`."""
        if len(letters) == 1:
            v = find(env[letters[0]])
            if v != find(target):
                merge(v, target)
            return
        x = find(env[letters[0]])
        for sym in letters[1:-1]:
            x = fill_product(x, find(env[sym]))
            x = find(x)
        set_entry(x, find(env[letters[-1]]), find(target))

    def progress_marker():
        return (len(parent), merges, len(tab))

    def trace_concrete() -> bool:
        before = progress_marker()
        for lhs, rhs in relations:
            gens_now = [find(g) for g in gen_slots]
            target = scan_word_fill(lhs, gens_now)
            gens_now = [find(g) for g in gen_slots]
            scan_close(rhs, gens_now, target)
            process_events()
            if live_count() > cap:
                return True
        return progress_marker() != before

    def trace_universal() -> bool:
        before = progress_marker()
        if rn_on_all_pairs:
            domain = live_elements()
        else:
            domain = sorted({find(g) for g in gen_slots})
        for u in domain:
            if parent[u] != u:
                continue
            for w in domain:
                if parent[w] != w or u == w:
                    continue
                ru, rw = find(u), find(w)
                if ru == rw:
                    continue
                scan_close(rn_pattern, (ru, rw), ru)
                process_events()
                if live_count() > cap:
                    return True
        return progress_marker() != before

    gen_slots = [new_element() for _ in range(m)]

    while True:
        process_events()
        if live_count() > cap:
            return CAP_EXCEEDED, None, None, merges

        if trace_concrete():
            continue
        if rn_pattern and trace_universal():
            continue

        # totalize: define the first undefined product in scan order
        zs = live_elements()
        missing = next(((a, b) for a in zs for b in zs if (a, b) not in tab), None)
        if missing is None:
            break
        fill_product(*missing)

    # compact to a dense table in discovery order
    zs = live_elements()
    relabel = {x: i for i, x in enumerate(zs)}
    size = len(zs)
    rows = [[0] * size for _ in range(size)]
    for a in zs:
        for b in zs:
            rows[relabel[a]][relabel[b]] = relabel[find(tab[(a, b)])]
    images = [relabel[find(g)] for g in gen_slots]
    return COMPLETED, [tuple(r) for r in rows], images, merges
