"""Pure-Python kernel for finitely presented Kei enumeration.

Completion procedure over a partial operation table.  Relation
instances are scanned HLT-style: every product needed along a trace is
defined on the spot and the final step is closed as a deduction, which
feeds the union-find congruence machinery (involution and
distributivity propagate through an event queue, with a full
triple-loop sweep certifying the axioms before completion is
reported).

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
    """
    parent: list[int] = []
    tab: dict[tuple[int, int], int] = {}
    events: deque[tuple[int, int]] = deque()
    merges = 0

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def new_element() -> int:
        e = len(parent)
        parent.append(e)
        tab[(e, e)] = e
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
            val = tab.pop((ry, ry), None)
            if val is not None:
                queue.append((val, rx))
            for z in range(len(parent)):
                if parent[z] != z:
                    continue
                val = tab.pop((ry, z), None)
                if val is not None:
                    cur = tab.get((rx, z))
                    if cur is None:
                        tab[(rx, z)] = val
                        events.append((rx, z))
                    elif cur != val:
                        queue.append((cur, val))
                val = tab.pop((z, ry), None)
                if val is not None:
                    cur = tab.get((z, rx))
                    if cur is None:
                        tab[(z, rx)] = val
                        events.append((z, rx))
                    elif cur != val:
                        queue.append((cur, val))

    def set_entry(a: int, b: int, c: int) -> None:
        a, b, c = find(a), find(b), find(c)
        cur = tab.get((a, b))
        if cur is None:
            tab[(a, b)] = c
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
            zs = live_elements()
            for z in zs:
                if parent[z] != z:
                    continue
                ra, rb = find(ra), find(rb)
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
        tab[(x, y)] = e
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

    def full_sweep() -> bool:
        """Certify all three axioms on the current table; returns True
        if anything new was deduced."""
        before = progress_marker()
        zs = live_elements()
        for p in zs:
            if parent[p] != p:
                continue
            v = lookup(p, p)
            if v is not None and v != p:
                merge(v, p)
            for q in zs:
                if parent[p] != p or parent[q] != q:
                    continue
                c = lookup(p, q)
                if c is not None:
                    set_entry(c, q, p)
        for p in zs:
            for q in zs:
                if parent[p] != p or parent[q] != q:
                    continue
                d = lookup(p, q)
                if d is None:
                    continue
                for r in zs:
                    if parent[r] != r:
                        continue
                    e, f = lookup(p, r), lookup(q, r)
                    if e is None or f is None:
                        continue
                    d = lookup(p, q)
                    if d is None:
                        break
                    confront((d, r), lookup(d, r), (e, f), lookup(e, f))
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
        missing = None
        for a in zs:
            if parent[a] != a:
                continue
            for b in zs:
                if parent[b] != b:
                    continue
                if (a, b) not in tab:
                    missing = (a, b)
                    break
            if missing:
                break
        if missing is not None:
            fill_product(missing[0], missing[1])
            continue

        if full_sweep():
            continue
        break

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
