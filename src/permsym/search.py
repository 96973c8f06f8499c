"""Backtracking enumeration of all permutation matrices P with P^T H P = H.

Two modes return the same set, in the same lexicographic order:

* ``leaf-check`` realizes the classic nested-loop search: every unused index
  is tried at every level, and ``is_symmetry`` runs on H itself at complete
  permutations.  It shares no code with ``pruned``, so it stays the serial
  oracle that ``pruned`` is checked against.
* ``pruned`` rejects a partial assignment ``pi(i) = j_i`` unless
  ``H[j_k, j_i] == H[k, i]`` and ``H[j_i, j_k] == H[i, k]`` for all ``k <= i``
  (diagonal included).  Any violated pair stays violated in every completion,
  so pruning never loses a symmetry; conversely a complete assignment that
  passed every partial check satisfies the full predicate, so no leaf test is
  needed.

``pruned`` draws each level's candidates from ascending lists computed once
per matrix, not from all n indices:

* Root refinement.  H is an edge-coloured complete digraph and its symmetries
  are that graph's automorphisms.  The stable colour refinement of its indices
  (Weisfeiler & Leman 1968; McKay & Piperno 2014) starts from the diagonal
  colours and splits each cell by the multiset of (colour pair, cell of v)
  over each member's non-zero pairs, until the number of cells stops growing.
  Every symmetry maps each index into its own cell.
* Anchored candidates.  Each row is indexed by (colour, cell) -> ascending v.
  Level ``i`` has a static anchor: the earliest ``k < i`` whose class
  ``(H[k, i], cell of i)`` is smallest, if one is smaller than the cell of
  ``i``.  The level then draws from that class of row ``j_k``; any other ``v``
  fails the pairwise test against ``k``.  A level without an anchor draws from
  the members of its cell.  Because the partition is stable, the size of a
  row's classes depends only on the row's cell, so the anchor is fixed before
  the search starts.  It is found in O(deg i): the non-zero classes from the
  non-zeros ``H[k, i]``, then the zero classes, each its cell less the
  non-zeros of one member's row, ranked once per cell of ``i``.

Every drawn candidate still passes the full pairwise test against all
``k < i``.  The lists only skip candidates that the test or the cells would
reject, so the search emits the same permutations in the same order.

An unbudgeted ``pruned`` run does not walk the whole tree.  It builds a
stabiliser chain with base 0, 1, ..., n-1 by orbit pruning (Sims 1970; McKay
& Piperno 2014): level ``i`` holds one symmetry for each point of the orbit of
``i`` under the symmetries that fix ``0..i-1``, and each candidate of level
``i`` outside the orbit found so far gets one pruned search under the prefix
``(0..i-1, v)`` that stops at its first hit.  The count is the product of the
orbit sizes; the listing is every product of one symmetry per level, sorted,
so it is the list the full tree gives.  Budgeted runs (``node_budget`` or
``max_results``) walk the tree in lexicographic order, so a partial result is
a prefix of the full list.

``nodes_visited`` counts candidates tried.  In ``leaf-check`` that is every
index tried at every level; in a budgeted ``pruned`` run it is every candidate
drawn from the filtered lists, each counted once, and a node budget stops the
search after that many.  In an unbudgeted ``pruned`` run it is the candidates
drawn by the chain's searches, which are disjoint parts of the tree, so it is
never more than the whole tree's count.

``pruned`` reads H as sparse colour pairs: ``pairs[u][v]`` holds the integer
colours of ``H[u, v]`` and ``H[v, u]`` where either is non-zero, so refinement
and search skip zeros (as in saucy, Darga et al. 2004) and do no polynomial
arithmetic.  Only ``pruned`` builds the pairs and the plan.  ``find_symmetries``
depends on H and its ``SearchConfig`` only, and runs serially in the calling process.

``is_symmetry`` tests one permutation against H itself: it is the oracle,
and it checks leaf-check's leaves and the chain's generators.  The CLI
re-verifies every listed symmetry with ``first_non_symmetry``, the same
predicate group-major: the outer loop runs over the non-zeros of H and the
inner one, at C level, over a block of elements.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from math import prod
from operator import itemgetter

from .perms import Perm, _trusted
from .scalars import _Record

MODE_LEAF_CHECK = "leaf-check"
MODE_PRUNED = "pruned"

# The most image entries (symmetries times dimension) one listing may hold:
# K9's 9! symmetries of dimension 9 and Q6's 46,080 of dimension 64 fit.
_LIST_MAX = 1 << 22


class SearchConfig(_Record):
    __slots__ = ("mode", "max_results", "node_budget", "count_only")

    def __init__(self, mode=MODE_PRUNED, max_results=None, node_budget=None, count_only=False):
        if mode not in (MODE_LEAF_CHECK, MODE_PRUNED):
            raise ValueError(f"unknown mode {mode!r}")
        for name, value in (("max_results", max_results), ("node_budget", node_budget)):
            if value is not None and (not isinstance(value, int) or isinstance(value, bool)):
                raise ValueError(f"{name} must be an integer")
            if value is not None and value < 1:
                raise ValueError(f"{name} must be positive")
        if not isinstance(count_only, bool):
            raise ValueError("count_only must be a bool")
        self._fill(mode=mode, max_results=max_results, node_budget=node_budget,
                   count_only=count_only)


class SearchResult(_Record):
    __slots__ = ("perms", "count", "nodes_visited", "exhausted")

    def __init__(self, perms, count, nodes_visited, exhausted):
        self._fill(perms=perms, count=count, nodes_visited=nodes_visited, exhausted=exhausted)


def is_symmetry(h, p):
    """True iff H[p(u), p(v)] == H[u, v] for all u, v.

    Equivalent to P^T H P == H and to P H == H P for the matrix realization.
    """
    if not h.is_square():
        raise ValueError("symmetry is defined for square matrices only")
    n = h.rows
    if len(p) != n:
        raise ValueError(f"permutation length {len(p)} does not match matrix size {n}")
    img = p.image
    rows = h._r
    # each non-zero (v, x) of row u against entry p(v) of row p(u).  Once all
    # match, p maps the finite set of non-zero positions into itself, hence
    # onto it, so no zero needs a check; unequal row lengths reject early.
    for u, row in enumerate(rows):
        target = rows[img[u]]
        if len(target) != len(row):
            return False
        for v, x in row.items():
            y = target.get(img[v])
            if y is not x and y != x:
                return False
    return True


# Elements per pass of ``first_non_symmetry``.  A pass holds its elements'
# images as n columns, one reference per element and index on top of the
# images themselves.  Re-verifying Q6's 46,080 elements in one block raised
# the peak RSS of a find from 45 to 70 MiB; in blocks of 4,096, to 46 MiB.
# Each block costs one more walk over the non-zeros of H.
VERIFY_BLOCK = 4096


def first_non_symmetry(h, perms):
    """The first of ``perms``, in order, that ``is_symmetry`` rejects, or None.

    The same predicate with the loops swapped: for each checked entry ``(v, x)``
    of row ``u``, one pass over a block of elements reads entry ``p(v)`` of row
    ``p(u)`` for each ``p`` and counts those that equal ``x`` (``list.count``
    tests ``is`` first, then ``==``; a missing entry is None).  Diagonal rule:
    of the classes of indices by diagonal entry, zero included, all but a
    largest one are checked; p sends each into, hence onto, itself, and so,
    being a bijection, the largest too.  Triangle rule, if H is hermitian
    (``h.is_hermitian()`` runs once per call): off the diagonal only the
    non-zeros with u < v are checked, as H[p(u), p(v)] = conj(H[p(v), p(u)])
    = conj(H[v, u]) = H[u, v].  Then p maps the off-diagonal non-zeros into,
    hence onto, themselves, so no zero needs a check.  A block that fails, or
    that ``is_symmetry`` would refuse (a non-square ``h``, a length other
    than n), is walked again with ``is_symmetry``, which names its first
    rejected element or raises its ``ValueError``.
    """
    n = h.rows
    square = h.is_square()
    hermitian = square and bool(perms) and h.is_hermitian()
    for start in range(0, len(perms), VERIFY_BLOCK):
        block = perms[start:start + VERIFY_BLOCK]
        if square and set(map(len, block)) == {n} and _all_symmetries(h._r, block, hermitian):
            continue
        for p in block:
            if not is_symmetry(h, p):
                return p
    return None


def _all_symmetries(rows, block, hermitian=False):
    """True iff every element of ``block`` sends each entry of the rows
    ``rows`` to an equal entry, checked under ``first_non_symmetry``'s
    diagonal rule and, if ``hermitian``, its triangle rule."""
    m = len(block)
    cols = list(zip(*[p.image for p in block]))
    diag = [row.get(u) for u, row in enumerate(rows)]
    classes = {}
    for u, x in enumerate(diag):
        classes.setdefault(x, []).append(u)
    for members in sorted(classes.values(), key=len)[:-1]:
        for u in members:
            if list(map(diag.__getitem__, cols[u])).count(diag[u]) != m:
                return False
    for u, row in enumerate(rows):
        checks = [(v, x) for v, x in row.items() if v > u or v < u and not hermitian]
        if checks:
            # row p(u) of every element p, gathered once per row u
            targets = list(map(rows.__getitem__, cols[u]))
            for v, x in checks:
                if list(map(dict.get, targets, cols[v])).count(x) != m:
                    return False
    return True


def _color_table(h):
    """Per index ``u``, a dict from each ``v`` with ``H[u, v]`` or ``H[v, u]`` non-zero
    to their colours, one small int per distinct entry; every other pair is (0, 0)."""
    ids = {}
    pairs = [{} for _ in h._r]
    for u, row in enumerate(h._r):
        for v, x in row.items():
            c = ids.setdefault(x, len(ids) + 1)
            pairs[u][v] = (c, pairs[u].get(v, (0, 0))[1])
            pairs[v][u] = (pairs[v].get(u, (0, 0))[0], c)
    return pairs


def _refine(pairs):
    """Stable colour refinement of the indices: ``cell[u]`` for every ``u``.

    The first partition is by diagonal colour.  Each round splits a cell by
    the multiset of (pair, cell of v) over each member's non-zero pairs, until
    the number of cells stops growing or every cell is a single index.  Every
    symmetry maps each index into its own cell.
    """
    cell = [row.get(u, (0, 0))[0] for u, row in enumerate(pairs)]
    count = len(set(cell))
    while count < len(pairs):
        sigs = {}
        cell = [
            sigs.setdefault(
                (cell[u], tuple(sorted(zip(row.values(), map(cell.__getitem__, row))))),
                len(sigs),
            )
            for u, row in enumerate(pairs)
        ]
        if len(sigs) == count:
            break
        count = len(sigs)
    return cell


# What the pruned search precomputes once per matrix.  ``levels[i]`` is
# ``None`` when level ``i`` draws from ``cells[i]``, the ascending members of
# its cell, and ``(anchor, key)`` when it draws from ``index[j[anchor]][key]``:
# the ascending ``v`` with ``key`` = (colour of ``H[j[anchor], v]``,
# ``cell[v]``).  ``checks[i]``: ``i``'s pairs at ``k < i``.
_Plan = namedtuple("_Plan", "cells levels index checks")


def _plan(pairs):
    n = len(pairs)
    cell = _refine(pairs)
    members = {}
    for v, c in enumerate(cell):
        members.setdefault(c, []).append(v)
    members = {c: tuple(vs) for c, vs in members.items()}
    # count the non-zero classes (cell of k, colour, cell of v) in the first
    # member's row of each cell; per cell ci, rank the zero classes below it
    sizes = Counter(
        (ck, p[0], cell[v]) for ck, ks in members.items() for v, p in pairs[ks[0]].items() if p[0]
    )
    nonzero = Counter((ck, cv) for ck, _, cv in sizes.elements())
    ranked = {}
    for (ck, cv), m in nonzero.items():
        if m < len(members[cv]):
            ranked.setdefault(cv, []).append((len(members[cv]) - m, ck))
    ranked = {cv: sorted(zeros) for cv, zeros in ranked.items()}

    levels = []
    wanted = {}
    for i in range(n):
        ci = cell[i]
        level = None
        if len(members[ci]) > 1:
            # (size, k, colour of H[k, i]) of the smallest class, if below the
            # cell's size: the non-zero classes, then the ranked zero ones up
            # to that size; a cell's first k with H[k, i] zero is past at most
            # deg(i) others.  Ties go to the earliest k
            row = pairs[i]
            best = min([(len(members[ci]), -1, 0)] + [
                (sizes[cell[k], c, ci], k, c) for k, (_, c) in row.items() if c and k < i
            ])
            for size, ck in ranked.get(ci, ()):
                if size > best[0]:
                    break
                for k in members[ck]:
                    if k >= i:
                        break
                    p = row.get(k)
                    if p is None or not p[1]:
                        best = min(best, (size, k, 0))
                        break
            if best[1] >= 0:
                level = (best[1], (best[2], ci))
                wanted.setdefault(cell[best[1]], set()).add(level[1])
        levels.append(level)
    index = [None] * n
    for ck, keys in wanted.items():
        for u in members[ck]:
            # a zero class from its cell, a non-zero one from the row's non-zeros
            row = pairs[u]
            index[u] = {
                (c, cv): tuple(sorted(v for v, p in row.items() if p[0] == c and cell[v] == cv))
                if c
                else tuple(v for v in members[cv] if row.get(v, (0, 0))[0] == c)
                for c, cv in keys
            }
    return _Plan(
        cells=tuple(members[c] for c in cell),
        levels=tuple(levels),
        index=tuple(index),
        checks=tuple(tuple((k, p) for k, p in pairs[i].items() if k < i) for i in range(n)),
    )


def _search_pruned(pairs, plan, prefix, roots, max_results, node_budget, collect):
    """The pruned search over the candidate lists of ``plan``, under a fixed prefix.

    Indices ``0..len(prefix)-1`` map to ``prefix``, which must pass the
    pairwise test, and level ``len(prefix)`` draws from ``roots``.  Returns
    (perms, count, nodes, exhausted) as ``_search_leaf`` does.
    """
    last = len(pairs) - 1
    cells, levels, index, checks = plan.cells, plan.levels, plan.index, plan.checks
    start = len(prefix)
    # the images assigned so far: j[k] for k < i at level i
    j = list(prefix)
    used = set(prefix)
    its = [None] * len(pairs)
    its[start] = iter(roots)
    nodes = 0
    count = 0
    found = []
    i = start
    while i >= start:
        check = checks[i]
        for v in its[i]:
            nodes += 1
            if node_budget is not None and nodes > node_budget:
                return found, count, nodes - 1, False
            if v in used:
                continue
            # v shares the cell of i, so H[v, v] == H[i, i] already holds.  It
            # needs i's pairs at j[k] for each k in check, and no other key among
            # the i images assigned so far (none is left when check has all i)
            rv = pairs[v]
            for k, p in check:
                if rv.get(j[k]) != p:
                    break
            else:
                if len(check) < i and len(used & rv.keys()) != len(check):
                    continue
                if i == last:
                    count += 1
                    if collect:
                        found.append((*j, v))
                    if max_results is not None and count >= max_results:
                        return found, count, nodes, False
                    continue
                j.append(v)
                used.add(v)
                i += 1
                level = levels[i]
                its[i] = iter(
                    cells[i] if level is None else index[j[level[0]]][level[1]]
                )
                break
        else:
            i -= 1
            if i >= start:
                used.remove(j.pop())
    return found, count, nodes, True


def _stabiliser_chain(h, pairs, plan):
    """The symmetry group as a stabiliser chain with base 0, 1, ..., n-1.

    Returns (chain, nodes).  ``chain[i]`` maps each point ``v`` of the orbit
    of ``i`` under G_(0..i-1), the symmetries that fix ``0..i-1``, to one of
    them that sends ``i`` to ``v``: a coset representative of G_(0..i) in it.
    The levels are done from ``n-1`` down to 0, so every generator found so
    far fixes ``0..i-1``.  A candidate ``v`` of level ``i`` that is not yet in
    the orbit gets one pruned search under the prefix ``(0..i-1, v)`` for a
    single symmetry: a hit is a new generator and grows the orbit, a miss
    proves that ``v`` is outside it.  Each hit joins two orbits of the group
    generated so far, so there are at most n-1 generators, and each is checked
    against H itself.
    """
    n = len(pairs)
    levels, cells, index = plan.levels, plan.cells, plan.index
    identity = tuple(range(n))
    gens = []
    chain = [None] * n
    nodes = 0
    for i in range(n - 1, -1, -1):
        reps = chain[i] = {i: identity}
        # j[anchor] = anchor under the identity prefix
        level = levels[i]
        for v in cells[i] if level is None else index[level[0]][level[1]]:
            if v <= i or v in reps:
                continue
            found, _, seen, _ = _search_pruned(pairs, plan, identity[:i], (v,), 1, None, True)
            nodes += seen
            if found:
                gens.append(found[0])
                # close the orbit under every generator: r, then g, sends i to g(p)
                queue = list(reps)
                for p in queue:
                    r = reps[p]
                    for g in gens:
                        if g[p] not in reps:
                            reps[g[p]] = tuple(map(g.__getitem__, r))
                            queue.append(g[p])
    for g in gens:
        if not is_symmetry(h, Perm(g)):
            raise AssertionError(f"internal error: the search found a non-symmetry {Perm(g)}")
    return chain, nodes


def _chain_elements(chain):
    """Every product of one representative per level of ``chain``, as image
    tuples: each element of the group exactly once.  ``itemgetter(*g)`` reads
    ``u`` at ``g``: a tuple, as a level of two points or more has n >= 2."""
    found = [tuple(range(len(chain)))]
    for reps in reversed(chain):
        if len(reps) > 1:
            getters = [itemgetter(*g) for g in found]
            found = [get(u) for u in reps.values() for get in getters]
    return found


def _search_leaf(h, max_results, node_budget, collect):
    """The paper's nested-loop search, and the oracle for ``pruned``.

    Every index is drawn at every level and used ones are skipped;
    ``is_symmetry`` is tested at complete permutations.  Returns (perms,
    count, nodes, exhausted), where perms is a list of image tuples in visit
    (= lexicographic) order.
    """
    n = h.rows
    last = n - 1
    j = [-1] * n
    used = [False] * n
    its = [None] * n
    its[0] = iter(range(n))
    nodes = 0
    count = 0
    found = []
    i = 0
    while i >= 0:
        for v in its[i]:
            nodes += 1
            if node_budget is not None and nodes > node_budget:
                return found, count, nodes - 1, False
            if used[v]:
                continue
            j[i] = v
            if i < last:
                used[v] = True
                i += 1
                its[i] = iter(range(n))
                break
            if is_symmetry(h, Perm(j)):
                count += 1
                if collect:
                    found.append(tuple(j))
                if max_results is not None and count >= max_results:
                    return found, count, nodes, False
        else:
            i -= 1
            if i >= 0:
                used[j[i]] = False
    return found, count, nodes, True


def find_symmetries(h, cfg=None):
    """Enumerate all permutation symmetries of the square matrix ``h``.

    Results are ordered lexicographically by image array; the identity comes
    first whenever the search ran to completion.  Budgets (``node_budget``,
    ``max_results``) stop the search early and are reported through
    ``exhausted=False`` rather than by silent truncation.  An unbudgeted
    ``pruned`` run builds a stabiliser chain; a budgeted one walks the tree in
    lexicographic order, so its partial result is a prefix of the full list.
    ``h`` need not be hermitian; the CLI reports one that is not.  A listing
    of more than ``_LIST_MAX`` image entries raises ValueError: the chain
    knows the count before it lists, and a tree walk stops one result past.
    """
    cfg = cfg or SearchConfig()
    if not h.is_square():
        raise ValueError("symmetry search needs a square matrix")
    collect = not cfg.count_only
    most = _LIST_MAX // max(h.rows, 1)
    limit = min(cfg.max_results or most + 1, most + 1) if collect else cfg.max_results
    if cfg.mode == MODE_LEAF_CHECK:
        found, count, nodes, exhausted = _search_leaf(h, limit, cfg.node_budget, collect)
    else:
        pairs = _color_table(h)
        plan = _plan(pairs)
        if cfg.node_budget is None and cfg.max_results is None:
            chain, nodes = _stabiliser_chain(h, pairs, plan)
            count = prod(map(len, chain))
            found = _chain_elements(chain) if collect and count <= most else []
            exhausted = True
        else:
            found, count, nodes, exhausted = _search_pruned(
                pairs, plan, (), plan.cells[0], limit, cfg.node_budget, collect
            )
    if collect and count > most:
        raise ValueError(f"over {most} symmetries of dimension {h.rows}: too many to list")

    # every image is a permutation by construction, so none is re-validated
    perms = tuple(map(_trusted, sorted(found)))
    return SearchResult(perms=perms, count=count, nodes_visited=nodes, exhausted=exhausted)
