"""Shared fixtures and independent oracles for the test suite.

Oracles here deliberately avoid the code paths they check: the nested-loop
reference search uses matrix commutation instead of the color-table engine,
subspace questions are answered by generic rational elimination, and group
facts are recomputed by brute force over all pairs or from the full
multiplication table.
"""

from collections import Counter
from fractions import Fraction
from math import gcd

from permsym import (
    ExactMatrix,
    GaussRational,
    GroupError,
    ParseError,
    Perm,
    PolyScalar,
    kron,
    param,
    parse,
    sigma,
    sigma_at,
)
from permsym.scalars import Monomial
from permsym.search import _Plan, _refine


# -- random generators (seeded by the caller) ------------------------------

PARAM_NAMES = ("a", "b", "t", "u")


def rand_gauss(rng, span=3):
    re = Fraction(rng.randint(-span, span), rng.randint(1, 3))
    im = Fraction(rng.randint(-span, span), rng.randint(1, 3))
    return GaussRational(re, im if rng.random() < 0.4 else 0)


def rand_monomial(rng, names=PARAM_NAMES, max_degree=3):
    degree = rng.randint(0, max_degree)
    factors = {}
    for _ in range(degree):
        name = rng.choice(names)
        factors[name] = factors.get(name, 0) + 1
    return Monomial(sorted(factors.items()))


def rand_scalar(rng, names=PARAM_NAMES, max_terms=4, max_degree=3):
    n_terms = rng.randint(0, max_terms)
    return PolyScalar(
        [(rand_monomial(rng, names, max_degree), rand_gauss(rng)) for _ in range(n_terms)]
    )


def rand_matrix(rng, n, pool):
    return ExactMatrix(n, n, [rng.choice(pool) for _ in range(n * n)])


def rand_symmetric(rng, n, pool):
    entries = [[None] * n for _ in range(n)]
    for r in range(n):
        for c in range(r, n):
            x = rng.choice(pool)
            entries[r][c] = x
            entries[c][r] = x
    return ExactMatrix.from_rows(entries)


def small_entry_pool():
    """Entry values drawn from a deliberately small set so collisions happen."""
    return [parse(s) for s in ("0", "0", "1", "t", "t", "u", "-t")]


# -- reference search: direct transcription of the nested-loop algorithm ----


def reference_search(h):
    """All permutation symmetries of h, found by the plain nested-loop scan.

    Tests the full matrix commutation P @ H == H @ P at every complete
    permutation.  Returns (list of image tuples in visit order, number of
    candidate values tried).  Exponential; use on small matrices only.
    """
    n = h.rows
    j = [-1] * n
    found = []
    trials = 0
    i = 0
    while i >= 0:
        j[i] += 1
        if j[i] == n:
            j[i] = -1
            i -= 1
            continue
        trials += 1
        if any(j[k] == j[i] for k in range(i)):
            continue
        i += 1
        if i == n:
            p = Perm(j)
            pm = p.to_matrix()
            if pm @ h == h @ pm:
                found.append(tuple(j))
            i -= 1
    return found, trials


# -- dense colour refinement: the reference for the sparse one --------------


def dense_refine(colors):
    """Stable colour refinement over a dense n x n table of colour ints.

    The first partition is by diagonal colour.  Each round splits a cell by
    the multiset of (out-colour, in-colour, cell of v) over every v of each
    member's row, zeros included, and numbers the new cells in order of
    first appearance, until the number of cells stops growing or every cell
    is a single index.  Returns ``cell[u]`` for every ``u``.
    """
    n = len(colors)
    cols = tuple(zip(*colors))
    cell = [row[u] for u, row in enumerate(colors)]
    count = len(set(cell))
    while count < n:
        sigs = {}
        cell = [
            sigs.setdefault(
                (cell[u], frozenset(Counter(zip(colors[u], cols[u], cell)).items())),
                len(sigs),
            )
            for u in range(n)
        ]
        if len(sigs) == count:
            break
        count = len(sigs)
    return cell


# -- the plan's anchor scan over every earlier index: the reference -----------


def dense_plan(pairs):
    """The pruned search's plan (``search._Plan``), with each level's anchor
    found by scanning every ``k < i``: the O(n^2) scan that ``_plan`` replaced.

    Level ``i`` maps each (cell of k, colour of H[k, i]) to its earliest k and
    takes the smallest class, ties to the earliest k; class sizes are counted
    over every ``v`` of a cell's first member's row, zeros included.
    """
    n = len(pairs)
    cell = _refine(pairs)
    members = {}
    for v, c in enumerate(cell):
        members.setdefault(c, []).append(v)
    members = {c: tuple(vs) for c, vs in members.items()}
    sizes = {}

    def class_size(ck, c, ci):
        if ck not in sizes:
            row = pairs[members[ck][0]]
            sizes[ck] = Counter((row.get(v, (0, 0))[0], cv) for v, cv in enumerate(cell))
        return sizes[ck][c, ci]

    levels = []
    wanted = {}
    for i in range(n):
        ci = cell[i]
        level = None
        if len(members[ci]) > 1:
            row = pairs[i]
            first = {(cell[k], row.get(k, (0, 0))[1]): k for k in range(i - 1, -1, -1)}
            size, k = min(
                ((class_size(ck, c, ci), k) for (ck, c), k in first.items()),
                default=(n, None),
            )
            if size < len(members[ci]):
                level = (k, (row.get(k, (0, 0))[1], ci))
                wanted.setdefault(cell[k], set()).add(level[1])
        levels.append(level)
    index = [None] * n
    for ck, keys in wanted.items():
        for u in members[ck]:
            get = pairs[u].get
            index[u] = {
                (c, cv): tuple(v for v in members[cv] if get(v, (0, 0))[0] == c) for c, cv in keys
            }
    return _Plan(
        cells=tuple(members[c] for c in cell),
        levels=tuple(levels),
        index=tuple(index),
        checks=tuple(tuple((k, p) for k, p in pairs[i].items() if k < i) for i in range(n)),
    )


# -- the expression lexer's character loop: the reference -------------------


def reference_tokenize(text):
    """``scalars._tokenize`` as a loop over the characters: the tokenizer that
    the one compiled pattern replaced.  Whitespace is what ``str.isspace()``
    accepts; digits and identifier characters are ASCII only."""
    digits = set("0123456789")
    ident_start = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")
    ident_cont = ident_start | digits | {"_"}
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch in digits:
            start = pos
            while pos < n and text[pos] in digits:
                pos += 1
            tokens.append(("int", text[start:pos], start))
            continue
        if ch in ident_start:
            start = pos
            while pos < n and text[pos] in ident_cont:
                pos += 1
            tokens.append(("ident", text[start:pos], start))
            continue
        if ch in "+-*/^()":
            tokens.append((ch, ch, pos))
            pos += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", pos)
    tokens.append(("end", "", n))
    return tokens


class LookupCountingDict(dict):
    """A dict that counts the key lookups made through ``get``, ``[]`` and
    ``in`` on all its instances, in ``LookupCountingDict.lookups``."""

    lookups = 0

    def get(self, key, default=None):
        LookupCountingDict.lookups += 1
        return dict.get(self, key, default)

    def __getitem__(self, key):
        LookupCountingDict.lookups += 1
        return dict.__getitem__(self, key)

    def __contains__(self, key):
        LookupCountingDict.lookups += 1
        return dict.__contains__(self, key)


# -- naive dense kernels: references for the zero-skipping ones --------------


def reference_matmul(a, b):
    """Matrix product by the textbook triple loop, zeros included."""
    assert a.cols == b.rows
    out = []
    for r in range(a.rows):
        for c in range(b.cols):
            acc = PolyScalar()
            for t in range(a.cols):
                acc = acc + a[r, t] * b[t, c]
            out.append(acc)
    return ExactMatrix(a.rows, b.cols, out)


def reference_kron(a, b):
    """Kronecker product entry by entry: out[(i, k), (j, l)] = a[i, j] * b[k, l]."""
    return ExactMatrix(
        a.rows * b.rows,
        a.cols * b.cols,
        [
            a[i, j] * b[k, l]
            for i in range(a.rows)
            for k in range(b.rows)
            for j in range(a.cols)
            for l in range(b.cols)
        ],
    )


def reference_similarity(h, vectors):
    """S^-1 H S for the integer columns ``vectors``, summed entry by entry
    with Fraction coefficients; S^-1 comes from Gauss-Jordan on [S | I]."""
    n = len(vectors)
    aug = [
        [Fraction(vectors[c][r]) for c in range(n)] + [Fraction(int(c == r)) for c in range(n)]
        for r in range(n)
    ]
    assert _rref(aug) == list(range(n)), "singular basis"
    s_inv = [row[n:] for row in aug]
    out = []
    for r in range(n):
        for c in range(n):
            acc = PolyScalar()
            for i in range(n):
                for j in range(n):
                    q = s_inv[r][i] * vectors[c][j]
                    if q:
                        acc = acc + h[i, j] * q
            out.append(acc)
    return ExactMatrix(n, n, out)


# -- exact kernel of a parametric matrix on constant vectors ----------------


def _rref(rows, pivot_cols=None):
    """Dense Gauss-Jordan in place; returns the pivot columns.  The pivot for
    column c is the first row at or past the next pivot position with a
    non-zero there; pivots come from the first ``pivot_cols`` columns (all
    by default), and the other columns ride along."""
    if not rows:
        return []
    ncols = len(rows[0]) if pivot_cols is None else pivot_cols
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((k for k in range(r, len(rows)) if rows[k][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for k in range(len(rows)):
            if k != r and rows[k][c] != 0:
                f = rows[k][c]
                rows[k] = [x - f * y for x, y in zip(rows[k], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def constant_kernel_basis(m):
    """Basis of {constant rational v : M v = 0} for a parametric matrix M.

    M v = 0 for a constant vector iff the coefficient matrix of every
    monomial annihilates v, so the kernel is computed by stacking those
    rational matrices and eliminating exactly.
    """
    stacked = []
    for r in range(m.rows):
        per_mono = {}
        for c in range(m.cols):
            for mono, coeff in m[r, c].terms():
                key_re, key_im = per_mono.setdefault(
                    mono, ([Fraction(0)] * m.cols, [Fraction(0)] * m.cols)
                )
                key_re[c] = Fraction(coeff.re)
                key_im[c] = Fraction(coeff.im)
        for re, im in per_mono.values():
            if any(re):
                stacked.append(re)
            if any(im):
                stacked.append(im)
    if not stacked:
        return [
            tuple(1 if k == c else 0 for k in range(m.cols)) for c in range(m.cols)
        ]
    pivots = _rref(stacked)
    rank = len(pivots)
    stacked = stacked[:rank]
    free = [c for c in range(m.cols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * m.cols
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -stacked[r][f]
        denom = 1
        for x in v:
            denom = denom * x.denominator // gcd(denom, x.denominator)
        basis.append(tuple(int(x * denom) for x in v))
    return basis


# -- brute-force group oracles ----------------------------------------------


def conjugacy_classes_bruteforce(perms):
    """Partition a list of Perms into conjugacy classes by trying all pairs."""
    perms = list(perms)
    remaining = set(perms)
    classes = []
    for g in perms:
        if g not in remaining:
            continue
        cls = {x * g * x.inverse() for x in perms}
        remaining -= cls
        classes.append(frozenset(cls))
    return classes


def closure_bruteforce(perms):
    """Closure under composition via repeated all-pairs products."""
    current = set(perms)
    while True:
        nxt = set(current)
        nxt.update(p.inverse() for p in current)
        nxt.update(p * q for p in current for q in current)
        if nxt == current:
            return current
        current = nxt


# -- table-based group oracles: every one of the |G|^2 products -------------


def table_closure(perms):
    """The group axioms checked on the full multiplication table.

    Returns ``(elements, table)``: the input order with the identity moved to
    the front, and ``table[a][b]``, the index of ``elements[a] * elements[b]``.
    Raises GroupError with the first row-major product outside the set.
    """
    elements = list(perms)
    if not elements:
        raise GroupError("empty set has no identity")
    n = len(elements[0])
    if any(len(p) != n for p in elements):
        raise GroupError("elements act on different index sets")
    if len(set(elements)) != len(elements):
        raise GroupError("duplicate elements")
    ident = Perm.identity(n)
    if ident not in set(elements):
        raise GroupError("missing identity", witness=ident)
    elements.remove(ident)
    elements.insert(0, ident)
    index = {p: k for k, p in enumerate(elements)}
    table = []
    for a, p in enumerate(elements):
        row = []
        for b, q in enumerate(elements):
            prod = p * q
            k = index.get(prod)
            if k is None:
                raise GroupError(
                    f"not closed: element {a} * element {b} = {prod} is outside the set",
                    witness=(p, q),
                )
            row.append(k)
        table.append(row)
    for p in elements:
        if p.inverse() not in index:
            raise GroupError(f"missing inverse of {p}", witness=p)
    return elements, table


def table_generating_set(table):
    """Indices kept by the greedy scan: each element, in order, that the
    ones kept so far do not generate; closures are searched on the table."""
    gens = []
    generated = {0}
    for a in range(1, len(table)):
        if a in generated:
            continue
        gens.append(a)
        generated = {0}
        queue = [0]
        for x in queue:
            for g in gens:
                y = table[x][g]
                if y not in generated:
                    generated.add(y)
                    queue.append(y)
        if len(generated) == len(table):
            break
    return gens


def table_is_commutative(table):
    m = len(table)
    return all(table[a][b] == table[b][a] for a in range(m) for b in range(a + 1, m))


def table_conjugacy_classes(table):
    """Classes of element indices, each the set of x g x^-1 over all x."""
    m = len(table)
    inv = [row.index(0) for row in table]
    unassigned = set(range(m))
    classes = []
    for g in range(m):
        if g not in unassigned:
            continue
        cls = {table[table[x][g]][inv[x]] for x in range(m)}
        unassigned -= cls
        classes.append(tuple(sorted(cls)))
    return classes


# -- independent term-merge addition oracle ---------------------------------


def oracle_add(a, b):
    """Polynomial addition recomputed by sorting and grouping term lists."""
    merged = sorted(
        list(a.terms()) + list(b.terms()), key=lambda item: item[0].factors
    )
    out = []
    k = 0
    while k < len(merged):
        mono = merged[k][0]
        coeff = merged[k][1]
        k += 1
        while k < len(merged) and merged[k][0] == mono:
            coeff = coeff + merged[k][1]
            k += 1
        if coeff:
            out.append((mono, coeff))
    return PolyScalar(out)


# -- fixtures shared with the acceptance suite -------------------------------

# 16x16 transverse-field Ising chain on a 4-site ring, entries as printed
ISING4_ROWS = [
    "4*a b b 0 b 0 0 0 b 0 0 0 0 0 0 0",
    "b 0 0 b 0 b 0 0 0 b 0 0 0 0 0 0",
    "b 0 0 b 0 0 b 0 0 0 b 0 0 0 0 0",
    "0 b b 0 0 0 0 b 0 0 0 b 0 0 0 0",
    "b 0 0 0 0 b b 0 0 0 0 0 b 0 0 0",
    "0 b 0 0 b -4*a 0 b 0 0 0 0 0 b 0 0",
    "0 0 b 0 b 0 0 b 0 0 0 0 0 0 b 0",
    "0 0 0 b 0 b b 0 0 0 0 0 0 0 0 b",
    "b 0 0 0 0 0 0 0 0 b b 0 b 0 0 0",
    "0 b 0 0 0 0 0 0 b 0 0 b 0 b 0 0",
    "0 0 b 0 0 0 0 0 b 0 -4*a b 0 0 b 0",
    "0 0 0 b 0 0 0 0 0 b b 0 0 0 0 b",
    "0 0 0 0 b 0 0 0 b 0 0 0 0 b b 0",
    "0 0 0 0 0 b 0 0 0 b 0 0 b 0 0 b",
    "0 0 0 0 0 0 b 0 0 0 b 0 b 0 0 b",
    "0 0 0 0 0 0 0 b 0 0 0 b 0 b b 4*a",
]


def kron_sigma_at(k, j, n):
    """Pauli sigma_k on site j (1-based) of n sites, as ``kron(kron(I, sigma_k), I)``."""
    left, right = ExactMatrix.identity(2 ** (j - 1)), ExactMatrix.identity(2 ** (n - j))
    return kron(kron(left, sigma(k)), right)


def ising_chain(L):
    """The cyclic L-site transverse Ising chain, built as the catalog's ising4."""
    z = [sigma_at(3, j, L) for j in range(1, L + 1)]
    x = [sigma_at(1, j, L) for j in range(1, L + 1)]
    coupling = ExactMatrix.zeros(1 << L)
    field = ExactMatrix.zeros(1 << L)
    for j in range(L):
        coupling = coupling + z[j] @ z[(j + 1) % L]
        field = field + x[j]
    return coupling * param("a") + field * param("b")


def ising4_printed():
    return ExactMatrix.from_rows([row.split() for row in ISING4_ROWS])


# the eight site maps of the 4-site ring's square symmetry, 0-based images
SITE_MAPS = {
    "E": (0, 1, 2, 3),
    "C2": (2, 3, 0, 1),
    "C4": (1, 2, 3, 0),
    "C4^3": (3, 0, 1, 2),
    "sigma_v": (1, 0, 3, 2),
    "sigma_v'": (3, 2, 1, 0),
    "sigma_d": (0, 3, 2, 1),
    "sigma_d'": (2, 1, 0, 3),
}
