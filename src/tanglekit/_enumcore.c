/* Compiled kernel for finitely presented Kei enumeration.

   `run_enumeration` is a C translation of `_enumpy.run_enumeration`,
   whose docstring is the specification: it makes the same table writes
   in the same order (up to the renumbering below), so it returns the
   same tables, generator images and deduction counts.  As there, `get`
   reads every value through `find`, and `settle` is the one step that
   defines an entry or queues a clash, for deductions and merges alike.
   Only the layout differs:

   - The table is dense: tab[a * pitch + b] holds a*b, or -1 where it is
     undefined, where `_enumpy` keeps a dict per element.  The bitsets
     `row`, `col` and `live` are arrays of 64-bit words, `words` of them
     per element.
   - Element ids are slots of the table.  Before each step that can
     create elements, `reserve` renumbers the live slots 0.. in
     discovery order when the dead ones outnumber them, or when the
     table must grow and the dead ones fill an eighth of it or the
     budget leaves no room for them.  The enumeration reads nothing of
     an id but its order (a merge keeps the smaller id; `z` and the
     totalize pair are scanned ascending), and the renumbering keeps
     that order, so it changes no write.
   - The table and its bitsets may not outgrow TANGLEKIT_MAX_TABLE_BYTES
     (default 1.2e9).  The budget counts live slots only: a step whose
     live elements, with those it may create, do not fit stops the run
     with status 2, which `presentation.enumerate_kei` raises as
     TooLarge.

   Every allocation is checked, and a failed one raises MemoryError.
   Status codes: 0 = completed, 1 = cap exceeded, 2 = over the table
   budget.

   `bracket_statesum` is the 2^c brute-force state sum.  No library
   code calls it: it is the reference that `perfbench/parity.py` and
   the tests check the contraction in `_enumpy` against. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

enum { COMPLETED, CAP_EXCEEDED, TOO_LARGE };

#define DEFAULT_BUDGET 1200000000LL
/* bytes of a table `words` wide, per words^2: 64 x 64 ints and the
   row and column bits of 64 elements */
#define BYTES_PER_WORD2 (64LL * 64 * 4 + 2 * 64 * 8)
/* keeps every slot id, up to 64 * MAX_WORDS, an int */
#define MAX_WORDS ((Py_ssize_t)1 << 24)
#define BIT(x) ((uint64_t)1 << ((x) & 63))
#define TRY(expr) do { if ((expr) < 0) return -1; } while (0)

/* Reallocate the block at lvalue p to `bytes`, or raise MemoryError
   and return -1, leaving p as it was. */
#define RESIZE(p, bytes) do { \
        void *q_ = PyMem_Realloc(p, bytes); \
        if (q_ == NULL) { \
            PyErr_NoMemory(); \
            return -1; \
        } \
        p = q_; \
    } while (0)

/* a growable array of ints */
typedef struct {
    int *v;
    Py_ssize_t len, cap;
} Ints;

static int push(Ints *b, int x)
{
    if (b->len == b->cap) {
        Py_ssize_t cap = b->cap ? 2 * b->cap : 1024;
        RESIZE(b->v, (size_t)cap * sizeof(int));
        b->cap = cap;
    }
    b->v[b->len++] = x;
    return 0;
}

typedef struct {
    int *tab;              /* pitch x pitch, row-major, -1 = undefined */
    uint64_t *row, *col;   /* bit z of row x, and bit x of col z: x*z is defined */
    uint64_t *live;        /* bit x: x is a root */
    int *parent;
    Py_ssize_t words, pitch, max_words;  /* pitch = 64 * words */
    Py_ssize_t n_slots, n_live;
    Ints ev;               /* event queue of (a, b) pairs, from ev_head */
    Py_ssize_t ev_head;
    Ints stack;            /* merge work stack of (x, y) pairs */
    long long merges;
    long long writes;      /* puts + merges: a pass made progress iff it grew */
    int too_large;
    /* ids held across a renumbering */
    int *gens;
    Py_ssize_t m, traced_below;
    int *domain;           /* the running universal pass's elements, or NULL */
    Py_ssize_t n_domain;
} Table;

static inline int root(int *parent, int x)
{
    while (parent[x] != x) {
        parent[x] = parent[parent[x]];
        x = parent[x];
    }
    return x;
}

static inline int find(Table *t, int x)
{
    return root(t->parent, x);
}

static inline int *cell(Table *t, int a, int b)
{
    return t->tab + (size_t)a * t->pitch + b;
}

/* a*b as a root, or -1 */
static inline int get(Table *t, int a, int b)
{
    int v = *cell(t, a, b);
    return v < 0 ? -1 : find(t, v);
}

static inline uint64_t *bits(Table *t, uint64_t *set, int x)
{
    return set + (size_t)x * t->words;
}

/* Define a*b = v and append the entry's event to the queue, a FIFO as
   `_enumpy`'s deque is; a drained queue restarts at the front. */
static int put(Table *t, int a, int b, int v)
{
    *cell(t, a, b) = v;
    bits(t, t->row, a)[b >> 6] |= BIT(b);
    bits(t, t->col, b)[a >> 6] |= BIT(a);
    t->writes++;
    if (t->ev_head == t->ev.len)
        t->ev_head = t->ev.len = 0;
    TRY(push(&t->ev, a));
    return push(&t->ev, b);
}

/* Undefine a*b and return its value, or -1. */
static int take(Table *t, int a, int b)
{
    int v = *cell(t, a, b);
    if (v < 0)
        return -1;
    *cell(t, a, b) = -1;
    bits(t, t->row, a)[b >> 6] &= ~BIT(b);
    bits(t, t->col, b)[a >> 6] &= ~BIT(a);
    return v;
}

/* A fresh root in a slot that `reserve` has made room for. */
static int new_element(Table *t)
{
    int e = (int)t->n_slots++;
    t->parent[e] = e;
    t->live[e >> 6] |= BIT(e);
    t->n_live++;
    return put(t, e, e, e) < 0 ? -1 : e;
}

/* Define a*b = v for roots a and b, or push a clash; nothing if v < 0. */
static int settle(Table *t, int a, int b, int v)
{
    int cur;
    if (v < 0)
        return 0;
    cur = get(t, a, b);
    if (cur < 0)
        return put(t, a, b, v);
    if (cur != find(t, v)) {
        TRY(push(&t->stack, cur));
        return push(&t->stack, v);
    }
    return 0;
}

static int merge(Table *t, int x, int y)
{
    TRY(push(&t->stack, x));
    TRY(push(&t->stack, y));
    while (t->stack.len) {
        Py_ssize_t k, nw = (t->n_slots + 63) >> 6;
        int y0 = find(t, t->stack.v[--t->stack.len]), x0 = find(t, t->stack.v[--t->stack.len]);
        int rx = Py_MIN(x0, y0), ry = Py_MAX(x0, y0);
        if (rx == ry)
            continue;
        t->parent[ry] = rx;
        t->live[ry >> 6] &= ~BIT(ry);
        t->n_live--;
        t->merges++;
        t->writes++;
        /* fold the dead row and column into the survivor's; ry*ry has
           nothing to merge */
        take(t, ry, ry);
        for (k = 0; k < nw; k++) {
            uint64_t zs = bits(t, t->row, ry)[k] | bits(t, t->col, ry)[k];
            for (; zs; zs &= zs - 1) {
                int z = (int)(64 * k) + __builtin_ctzll(zs);
                TRY(settle(t, rx, z, take(t, ry, z)));
                TRY(settle(t, z, rx, take(t, z, ry)));
            }
        }
    }
    return 0;
}

static int set_entry(Table *t, int a, int b, int c)
{
    TRY(settle(t, find(t, a), find(t, b), c));
    if (!t->stack.len)
        return 0;
    t->stack.len -= 2;
    return merge(t, t->stack.v[t->stack.len], t->stack.v[t->stack.len + 1]);
}

/* Two differing sides g = g0*g1 and h = h0*h1 of one distributivity
   instance; g or h may be -1. */
static int confront(Table *t, int g0, int g1, int g, int h0, int h1, int h)
{
    if (g < 0)
        return set_entry(t, g0, g1, h);
    if (h < 0)
        return set_entry(t, h0, h1, g);
    return merge(t, g, h);
}

/* The first z >= from in row[a] & (row[b] | col[b]) | col[a] & col[b],
   or -1. */
static int next_z(Table *t, int a, int b, int from)
{
    const uint64_t *ra = bits(t, t->row, a), *ca = bits(t, t->col, a);
    const uint64_t *rb = bits(t, t->row, b), *cb = bits(t, t->col, b);
    Py_ssize_t k, nw = (t->n_slots + 63) >> 6;
    for (k = from >> 6; k < nw; k++) {
        uint64_t zs = (ra[k] & (rb[k] | cb[k])) | (ca[k] & cb[k]);
        if (k == from >> 6)
            zs &= ~(uint64_t)0 << (from & 63);
        if (zs)
            return (int)(64 * k) + __builtin_ctzll(zs);
    }
    return -1;
}

static int process_events(Table *t)
{
    while (t->ev_head < t->ev.len) {
        int a = t->ev.v[t->ev_head], b = t->ev.v[t->ev_head + 1];
        int ra = find(t, a), rb = find(t, b), c = get(t, ra, rb);
        int z = -1, d, e, f, g, h;
        long long seen = t->merges;
        t->ev_head += 2;
        /* involution: (a*b)*b = a */
        TRY(set_entry(t, c, rb, ra));
        for (;;) {
            if (t->merges != seen) {
                seen = t->merges;
                ra = find(t, ra);
                rb = find(t, rb);
                c = find(t, c);
            }
            if ((z = next_z(t, ra, rb, z + 1)) < 0)
                break;
            d = get(t, ra, z);
            if (d >= 0) {
                /* entry as p*q in (p*q)*z = (p*z)*(q*z) */
                f = get(t, rb, z);
                if (f >= 0) {
                    g = get(t, c, z);
                    h = get(t, d, f);
                    if (g != h) {
                        TRY(confront(t, c, z, g, d, f, h));
                        d = get(t, ra, z);
                    }
                }
                /* entry as p*r in (p*q)*b = (p*b)*(q*b), q = z */
                if (d >= 0 && (f = get(t, z, rb)) >= 0) {
                    g = get(t, d, rb);
                    h = get(t, c, f);
                    if (g != h)
                        TRY(confront(t, d, rb, g, c, f, h));
                }
            }
            /* entry as q*r in (z*a)*b = (z*b)*(a*b) */
            d = get(t, z, ra);
            if (d >= 0 && (e = get(t, z, rb)) >= 0) {
                g = get(t, d, rb);
                h = get(t, e, c);
                if (g != h)
                    TRY(confront(t, d, rb, g, e, c, h));
            }
        }
    }
    return 0;
}

/* x*y for roots x and y, defining a fresh element if it is missing. */
static int fill_product(Table *t, int x, int y)
{
    int v = get(t, x, y);
    if (v >= 0)
        return v;
    if ((v = new_element(t)) < 0 || put(t, x, y, v) < 0)
        return -1;
    return v;
}

/* The most elements tracing lhs = rhs can create. */
static Py_ssize_t trace_need(Py_ssize_t nl, Py_ssize_t nr)
{
    return nl - 1 + (nr > 1 ? nr - 2 : 0);
}

/* Trace lhs = rhs under env, a sequence of roots: fill every product
   along both words, except that the last product of rhs is closed as a
   deduction.  Filling never merges, so env and the values stay roots. */
static int trace(Table *t, const int *lhs, Py_ssize_t nl, const int *rhs,
                 Py_ssize_t nr, const int *env)
{
    int x = env[lhs[0]], y = env[rhs[0]];
    Py_ssize_t i;
    for (i = 1; i < nl; i++)
        TRY(x = fill_product(t, x, env[lhs[i]]));
    if (nr == 1)
        return y != x ? merge(t, y, x) : 0;
    for (i = 1; i < nr - 1; i++)
        TRY(y = fill_product(t, y, env[rhs[i]]));
    return set_entry(t, y, env[rhs[nr - 1]], x);
}

/* Renumber the live slots 0.. in discovery order.  Called between
   traces, with no event queued; `held` (ids the caller keeps), the
   generator slots, `traced_below` and the running pass's domain (where
   a dead element becomes -1) are remapped. */
static int compact(Table *t, int *held, int nheld)
{
    Py_ssize_t n = t->n_slots, live = 0, below = 0, i, j;
    int *map = NULL;
    RESIZE(map, (size_t)Py_MAX(n, 1) * sizeof(int));
    for (i = 0; i < n; i++) {
        map[i] = t->parent[i] == i ? (int)live++ : -1;
        below += i < t->traced_below && map[i] >= 0;
    }
    for (i = 0; i < nheld; i++)
        held[i] = map[find(t, held[i])];
    for (i = 0; i < t->m; i++)
        t->gens[i] = map[find(t, t->gens[i])];
    for (i = 0; t->domain && i < t->n_domain; i++)
        if (t->domain[i] >= 0)
            t->domain[i] = map[t->domain[i]];
    t->traced_below = below;
    /* ids only move down, so each write lands at or before its read */
    for (i = 0; i < n; i++) {
        int *src = t->tab + (size_t)i * t->pitch, *dst;
        if (map[i] < 0)
            continue;
        dst = t->tab + (size_t)map[i] * t->pitch;
        for (j = 0; j < n; j++)
            if (map[j] >= 0)
                dst[map[j]] = src[j] < 0 ? -1 : map[find(t, src[j])];
        for (j = live; j < n; j++)
            dst[j] = -1;
    }
    for (i = live; i < n; i++)
        memset(t->tab + (size_t)i * t->pitch, 0xff, (size_t)n * sizeof(int));
    memset(t->row, 0, (size_t)n * t->words * sizeof(uint64_t));
    memset(t->col, 0, (size_t)n * t->words * sizeof(uint64_t));
    memset(t->live, 0, (size_t)t->words * sizeof(uint64_t));
    for (i = 0; i < live; i++) {
        const int *r = t->tab + (size_t)i * t->pitch;
        t->parent[i] = (int)i;
        t->live[i >> 6] |= BIT(i);
        for (j = 0; j < live; j++)
            if (r[j] >= 0) {
                bits(t, t->row, (int)i)[j >> 6] |= BIT(j);
                bits(t, t->col, (int)j)[i >> 6] |= BIT(i);
            }
    }
    t->n_slots = live;
    PyMem_Free(map);
    return 0;
}

/* Widen the first n of `rows` rows in place, after a realloc, from w0
   to w1 bytes each, `used` of them kept; every other byte is `fill`.
   Row a moves up from a * w0 to a * w1, so the last row goes first. */
static void widen(char *m, Py_ssize_t n, Py_ssize_t rows, size_t used, size_t w0,
                  size_t w1, int fill)
{
    Py_ssize_t a;
    for (a = n - 1; a >= 0; a--) {
        memmove(m + a * w1, m + a * w0, used);
        memset(m + a * w1 + used, fill, w1 - used);
    }
    memset(m + n * w1, fill, (size_t)(rows - n) * w1);
}

/* Grow to `words` words per row in place, so that a realloc need not
   hold the old and the new table at once.  A failure ends the run. */
static int grow(Table *t, Py_ssize_t words)
{
    Py_ssize_t pitch = 64 * words, n = t->n_slots;
    size_t old_row = (size_t)t->words * sizeof(uint64_t), new_row = (size_t)words * sizeof(uint64_t);
    RESIZE(t->tab, (size_t)pitch * pitch * sizeof(int));
    RESIZE(t->row, pitch * new_row);
    RESIZE(t->col, pitch * new_row);
    RESIZE(t->live, new_row);
    RESIZE(t->parent, (size_t)pitch * sizeof(int));
    widen((char *)t->tab, n, pitch, (size_t)n * sizeof(int), (size_t)t->pitch * sizeof(int),
          (size_t)pitch * sizeof(int), 0xff);
    widen((char *)t->row, n, pitch, old_row, old_row, new_row, 0);
    widen((char *)t->col, n, pitch, old_row, old_row, new_row, 0);
    memset((char *)t->live + old_row, 0, new_row - old_row);
    t->words = words;
    t->pitch = pitch;
    return 0;
}

/* Make room for `need` new elements: renumber or grow, or set
   `too_large` and fail when the live elements and the new ones do not
   fit the budget.  Called with no event queued. */
static int reserve(Table *t, Py_ssize_t need, int *held, int nheld)
{
    Py_ssize_t dead = t->n_slots - t->n_live;
    Py_ssize_t words = Py_MAX(t->words + t->words / 2 + 1, (t->n_slots + need + 63) / 64);
    int grows = t->n_slots + need > t->pitch;
    if (words > t->max_words)
        words = t->max_words;
    if (dead > t->n_live
        || (dead && grows && (8 * dead >= t->n_slots || 64 * words < t->n_slots + need)))
        TRY(compact(t, held, nheld));
    if (t->n_slots + need <= t->pitch)
        return 0;
    if (64 * words < t->n_slots + need) {
        t->too_large = 1;
        return -1;
    }
    return grow(t, words);
}

/* Store in ab the first undefined product (a, b) of roots in scan
   order; 0 if the table is total. */
static int missing_product(Table *t, int ab[2])
{
    Py_ssize_t k, j, nw = (t->n_slots + 63) >> 6;
    uint64_t rest, gap;
    for (k = 0; k < nw; k++)
        for (rest = t->live[k]; rest; rest &= rest - 1) {
            int a = (int)(64 * k) + __builtin_ctzll(rest);
            for (j = 0; j < nw; j++)
                if ((gap = t->live[j] & ~bits(t, t->row, a)[j])) {
                    ab[0] = a;
                    ab[1] = (int)(64 * j) + __builtin_ctzll(gap);
                    return 1;
                }
        }
    return 0;
}

/* One universal pass over the roots that exist when it starts, tracing
   only the pairs with a root at or above `traced_below`: 1 if it wrote
   anything or passed the cap, 0 if not. */
static int trace_universal(Table *t, const int *pattern, Py_ssize_t np, long long cap)
{
    static const int u_word[1] = {0};
    long long before = t->writes;
    Py_ssize_t i, j, n = 0, old = 0;
    int *dom;
    RESIZE(t->domain, (size_t)Py_MAX(t->n_live, 1) * sizeof(int));
    dom = t->domain;
    for (i = 0; i < t->n_slots; i++)
        if (t->parent[i] == i)
            dom[n++] = (int)i;
    t->n_domain = n;
    while (old < n && dom[old] < t->traced_below)
        old++;
    t->traced_below = t->n_slots;
    for (i = 0; i < n && t->n_live <= cap; i++) {
        int u = dom[i];
        if (u < 0 || t->parent[u] != u)
            continue;
        /* pairs of two older elements were traced by an earlier pass */
        for (j = i < old ? old : 0; j < n && t->n_live <= cap; j++) {
            int w = dom[j], env[2];
            if (w < 0 || t->parent[w] != w || find(t, u) == w)
                continue;
            TRY(reserve(t, trace_need(1, np), &u, 1));
            env[0] = find(t, u);
            env[1] = dom[j];
            TRY(trace(t, u_word, 1, pattern, np, env));
            TRY(process_events(t));
        }
    }
    PyMem_Free(dom);
    t->domain = NULL;
    return t->n_live > cap || t->writes != before;
}

/* The completion loop of `_enumpy.run_enumeration`: a status, or -1. */
static int enumerate(Table *t, const Ints *letters, const Ints *starts,
                     const Ints *pattern, long long cap)
{
    Py_ssize_t g, r, n_rel = (starts->len - 1) / 2;
    int *env, ab[2];
    TRY(reserve(t, t->m, NULL, 0));
    RESIZE(t->gens, (size_t)Py_MAX(2 * t->m, 1) * sizeof(int));
    env = t->gens + t->m;
    for (g = 0; g < t->m; g++)
        TRY(t->gens[g] = new_element(t));
    TRY(process_events(t));
    for (r = 0; r < n_rel && t->n_live <= cap; r++) {
        const int *lhs = letters->v + starts->v[2 * r], *rhs = letters->v + starts->v[2 * r + 1];
        Py_ssize_t nl = rhs - lhs, nr = starts->v[2 * r + 2] - starts->v[2 * r + 1];
        TRY(reserve(t, trace_need(nl, nr), NULL, 0));
        for (g = 0; g < t->m; g++)
            env[g] = find(t, t->gens[g]);
        TRY(trace(t, lhs, nl, rhs, nr, env));
        TRY(process_events(t));
    }
    for (;;) {
        if (t->n_live > cap)
            return CAP_EXCEEDED;
        if (pattern->len) {
            int progress = trace_universal(t, pattern->v, pattern->len, cap);
            TRY(progress);
            if (progress)
                continue;
        }
        if (!missing_product(t, ab))
            return COMPLETED;
        TRY(reserve(t, 1, ab, 2));
        TRY(fill_product(t, ab[0], ab[1]));
        TRY(process_events(t));
    }
}

/* (rows, images) of a completed table, renumbered in discovery order. */
static PyObject *completed_table(Table *t)
{
    PyObject *rows, *images, *item;
    Py_ssize_t i, j;
    if (t->n_slots > t->n_live && compact(t, NULL, 0) < 0)
        return NULL;
    if ((rows = PyList_New(t->n_slots)) == NULL)
        return NULL;
    for (i = 0; i < t->n_slots; i++) {
        if ((item = PyTuple_New(t->n_slots)) == NULL)
            goto fail;
        PyList_SET_ITEM(rows, i, item);
        for (j = 0; j < t->n_slots; j++) {
            PyObject *v = PyLong_FromLong(get(t, (int)i, (int)j));
            if (v == NULL)
                goto fail;
            PyTuple_SET_ITEM(item, j, v);
        }
    }
    if ((images = PyList_New(t->m)) == NULL)
        goto fail;
    for (i = 0; i < t->m; i++) {
        if ((item = PyLong_FromLong(find(t, t->gens[i]))) == NULL) {
            Py_DECREF(images);
            goto fail;
        }
        PyList_SET_ITEM(images, i, item);
    }
    return Py_BuildValue("(iNNL)", COMPLETED, rows, images, t->merges);
fail:
    Py_DECREF(rows);
    return NULL;
}

/* Append the letters of `word`, each in [0, bound), to out. */
static int read_word(PyObject *word, Py_ssize_t bound, Ints *out)
{
    PyObject *seq = PySequence_Fast(word, "a word must be a sequence of letters");
    Py_ssize_t i;
    if (seq == NULL)
        return -1;
    for (i = 0; i < PySequence_Fast_GET_SIZE(seq); i++) {
        Py_ssize_t x = PyNumber_AsSsize_t(PySequence_Fast_GET_ITEM(seq, i), PyExc_OverflowError);
        if (x == -1 && PyErr_Occurred())
            break;
        if (x < 0 || x >= bound) {
            PyErr_SetString(PyExc_ValueError, "a word has a letter out of range");
            break;
        }
        if (push(out, (int)x) < 0)
            break;
    }
    Py_DECREF(seq);
    return PyErr_Occurred() ? -1 : 0;
}

/* The most words a table may have under TANGLEKIT_MAX_TABLE_BYTES. */
static int read_budget(Table *t)
{
    const char *text = getenv("TANGLEKIT_MAX_TABLE_BYTES");
    long long budget = DEFAULT_BUDGET;
    Py_ssize_t lo = 0, hi = MAX_WORDS;
    if (text != NULL) {
        char *end;
        budget = strtoll(text, &end, 10);
        if (end == text || *end != '\0') {
            PyErr_SetString(PyExc_ValueError, "TANGLEKIT_MAX_TABLE_BYTES must be an integer");
            return -1;
        }
    }
    while (lo < hi) {
        Py_ssize_t mid = (lo + hi + 1) / 2;
        if (BYTES_PER_WORD2 * mid * mid <= budget)
            lo = mid;
        else
            hi = mid - 1;
    }
    t->max_words = lo;
    return 0;
}

PyDoc_STRVAR(run_enumeration_doc,
"run_enumeration(m, relations, rn_pattern, cap)\n--\n\n"
"Enumerate the Kei presented by m generators and the given relations,\n"
"as `_enumpy.run_enumeration` does.  Returns (status, table_rows,\n"
"generator_images, merge_count); status 2 means the table would\n"
"outgrow TANGLEKIT_MAX_TABLE_BYTES.");

#define NOT_A_PAIR "a relation must be a pair of words"

static PyObject *run_enumeration(PyObject *self, PyObject *args)
{
    Py_ssize_t m, r;
    PyObject *relations, *pattern_obj, *cap_obj, *rels, *pair = NULL, *out = NULL;
    int overflow, status;
    long long cap;
    Ints letters = {0}, starts = {0}, pattern = {0};
    Table t;
    (void)self;
    memset(&t, 0, sizeof t);
    if (!PyArg_ParseTuple(args, "nOOO:run_enumeration", &m, &relations, &pattern_obj, &cap_obj))
        return NULL;
    cap = PyLong_AsLongLongAndOverflow(cap_obj, &overflow);
    if (cap == -1 && PyErr_Occurred())
        return NULL;
    if (overflow)
        cap = overflow > 0 ? LLONG_MAX : -1;
    if (m < 0) {
        PyErr_SetString(PyExc_ValueError, "generator count must be non-negative");
        return NULL;
    }
    if ((rels = PySequence_Fast(relations, "relations must be a sequence")) == NULL)
        return NULL;
    t.m = m;
    if (read_budget(&t) < 0 || push(&starts, 0) < 0)
        goto done;
    for (r = 0; r < PySequence_Fast_GET_SIZE(rels); r++) {
        Py_XSETREF(pair, PySequence_Fast(PySequence_Fast_GET_ITEM(rels, r), NOT_A_PAIR));
        if (pair != NULL && PySequence_Fast_GET_SIZE(pair) != 2)
            PyErr_SetString(PyExc_TypeError, NOT_A_PAIR);
        if (PyErr_Occurred()
            || read_word(PySequence_Fast_GET_ITEM(pair, 0), m, &letters) < 0
            || push(&starts, (int)letters.len) < 0
            || read_word(PySequence_Fast_GET_ITEM(pair, 1), m, &letters) < 0
            || push(&starts, (int)letters.len) < 0)
            goto done;
        if (starts.v[starts.len - 1] == starts.v[starts.len - 2]
            || starts.v[starts.len - 2] == starts.v[starts.len - 3]) {
            PyErr_SetString(PyExc_ValueError, "empty word in relation");
            goto done;
        }
    }
    if (read_word(pattern_obj, 2, &pattern) < 0)
        goto done;
    status = enumerate(&t, &letters, &starts, &pattern, cap);
    if (status == COMPLETED)
        out = completed_table(&t);
    else if (status > 0 || t.too_large)
        out = Py_BuildValue("(iOOL)", status > 0 ? status : TOO_LARGE, Py_None, Py_None, t.merges);
done:
    Py_DECREF(rels);
    Py_XDECREF(pair);
    PyMem_Free(letters.v);
    PyMem_Free(starts.v);
    PyMem_Free(pattern.v);
    PyMem_Free(t.tab);
    PyMem_Free(t.row);
    PyMem_Free(t.col);
    PyMem_Free(t.live);
    PyMem_Free(t.parent);
    PyMem_Free(t.ev.v);
    PyMem_Free(t.stack.v);
    PyMem_Free(t.gens);
    PyMem_Free(t.domain);
    return out;
}

static void join(int *parent, int x, int y)
{
    x = root(parent, x);
    y = root(parent, y);
    parent[Py_MAX(x, y)] = Py_MIN(x, y);
}

PyDoc_STRVAR(bracket_statesum_doc,
"bracket_statesum(crossings, arc_count)\n--\n\n"
"Kauffman bracket state sum by brute force over all 2**c states: the\n"
"same {(exponent, circles): multiplicity} as `_enumpy.bracket_statesum`.");

static PyObject *bracket_statesum(PyObject *self, PyObject *args)
{
    PyObject *crossings, *seq, *out = NULL;
    Py_ssize_t arcs, c, i, k, x;
    int *quad = NULL, *parent = NULL;
    long long *count = NULL, state;
    (void)self;
    if (!PyArg_ParseTuple(args, "On:bracket_statesum", &crossings, &arcs))
        return NULL;
    if ((seq = PySequence_Fast(crossings, "crossings must be a sequence")) == NULL)
        return NULL;
    c = PySequence_Fast_GET_SIZE(seq);
    if (c > 62 || arcs < 0 || arcs > INT_MAX) {
        PyErr_SetString(PyExc_ValueError, c > 62 ? "the state sum takes at most 62 crossings"
                                                 : "arc count out of range");
        goto done;
    }
    quad = PyMem_Malloc((size_t)(4 * c + 1) * sizeof(int));
    parent = PyMem_Malloc((size_t)(arcs + 1) * sizeof(int));
    count = PyMem_Calloc((size_t)(c + 1) * (arcs + 1), sizeof(long long));
    if (quad == NULL || parent == NULL || count == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (i = 0; i < c; i++) {
        int *q = quad + 4 * i;
        if (!PyArg_ParseTuple(PySequence_Fast_GET_ITEM(seq, i), "iiii:crossing",
                              q, q + 1, q + 2, q + 3))
            goto done;
        for (k = 0; k < 4; k++)
            if (q[k] < 0 || q[k] >= arcs) {
                PyErr_SetString(PyExc_ValueError, "arc label out of range");
                goto done;
            }
    }
    for (state = 0; state < (1LL << c); state++) {
        Py_ssize_t n_a = 0, circles = 0;
        for (x = 0; x < arcs; x++)
            parent[x] = (int)x;
        for (i = 0; i < c; i++) {
            const int *q = quad + 4 * i;
            /* an A-smoothing joins (a, b) and (c, d), a B one (a, d) and (b, c) */
            int a_side = !((state >> i) & 1);
            n_a += a_side;
            join(parent, q[0], a_side ? q[1] : q[3]);
            join(parent, a_side ? q[3] : q[1], q[2]);
        }
        for (x = 0; x < arcs; x++)
            circles += parent[x] == x;
        count[n_a * (arcs + 1) + circles]++;
    }
    if ((out = PyDict_New()) == NULL)
        goto done;
    for (i = 0; i <= c; i++)
        for (x = 0; x <= arcs; x++) {
            PyObject *key, *val;
            int bad;
            if (!count[i * (arcs + 1) + x])
                continue;
            key = Py_BuildValue("(nn)", 2 * i - c, x);
            val = PyLong_FromLongLong(count[i * (arcs + 1) + x]);
            bad = key == NULL || val == NULL || PyDict_SetItem(out, key, val) < 0;
            Py_XDECREF(key);
            Py_XDECREF(val);
            if (bad) {
                Py_CLEAR(out);
                goto done;
            }
        }
done:
    Py_DECREF(seq);
    PyMem_Free(quad);
    PyMem_Free(parent);
    PyMem_Free(count);
    return out;
}

static PyMethodDef methods[] = {
    {"run_enumeration", run_enumeration, METH_VARARGS, run_enumeration_doc},
    {"bracket_statesum", bracket_statesum, METH_VARARGS, bracket_statesum_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "tanglekit._enumcore",
    "Compiled kernel for finitely presented Kei enumeration; see _enumcore.c.",
    -1, methods, NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC PyInit__enumcore(void)
{
    return PyModule_Create(&module);
}
