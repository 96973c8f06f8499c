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
  colours and splits each cell by the multiset of (out-colour, in-colour, cell
  of v) over each member's row, until the number of cells stops growing.
  Every symmetry maps each index into its own cell.
* Anchored candidates.  Each row is indexed by (colour, cell) -> ascending v.
  Level ``i`` has a static anchor: the earliest ``k < i`` whose class
  ``(H[k, i], cell of i)`` is smallest, if one is smaller than the cell of
  ``i``.  The level then draws from that class of row ``j_k``; any other ``v``
  fails the pairwise test against ``k``.  A level without an anchor draws from
  the members of its cell.  Because the partition is stable, the size of a
  row's classes depends only on the row's cell, so the anchor is fixed before
  the search starts.

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

``pruned`` works on a small integer "color" table (one id per distinct
entry of H), so no polynomial arithmetic happens inside its loop.  Only
``pruned`` builds the table and the plan.  ``find_symmetries`` depends on H
and its ``SearchConfig`` only, and runs serially in the calling process.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import prod
from operator import itemgetter
from typing import Optional

from .perms import Perm

MODE_LEAF_CHECK = "leaf-check"
MODE_PRUNED = "pruned"


@dataclass(frozen=True)
class SearchConfig:
    mode: str = MODE_PRUNED
    max_results: Optional[int] = None
    node_budget: Optional[int] = None
    count_only: bool = False

    def __post_init__(self):
        if self.mode not in (MODE_LEAF_CHECK, MODE_PRUNED):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.max_results is not None and self.max_results < 1:
            raise ValueError("max_results must be positive")
        if self.node_budget is not None and self.node_budget < 1:
            raise ValueError("node_budget must be positive")


@dataclass(frozen=True)
class SearchResult:
    perms: tuple
    count: int
    nodes_visited: int
    exhausted: bool


def is_symmetry(h, p):
    """True iff H[p(u), p(v)] == H[u, v] for all u, v.

    Equivalent to P^T H P == H and to P H == H P for the matrix realization.
    """
    if not h.is_square():
        raise ValueError("symmetry is defined for square matrices only")
    n = h.rows
    if len(p) != n:
        raise ValueError(f"permutation length {len(p)} does not match matrix size {n}")
    if n == 1:
        return True  # the only permutation of one index is the identity
    img = p.image
    e = h.entries()
    # row p(u) permuted by p against row u; tuple comparison tests ``x is y``
    # before ``x == y``, entry by entry
    permuted = itemgetter(*img)
    for u in range(n):
        pu = img[u] * n
        if permuted(e[pu:pu + n]) != e[u * n:(u + 1) * n]:
            return False
    return True


def _color_table(h):
    ids = {}
    n = h.rows
    flat = [ids.setdefault(x, len(ids)) for x in h.entries()]
    return tuple(tuple(flat[u * n:(u + 1) * n]) for u in range(n))


def _refine(colors, cols):
    """Stable colour refinement of the indices: ``cell[u]`` for every ``u``.

    The first partition is by diagonal colour.  Each round splits a cell by
    the multiset of (out-colour, in-colour, cell of v) over the row of each
    member, until the number of cells stops growing or every cell is a single
    index.  Every symmetry maps each index into its own cell.
    """
    n = len(colors)
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


@dataclass(frozen=True)
class _Plan:
    """What the pruned search precomputes once per matrix.

    ``levels[i]`` is ``None`` when level ``i`` draws from ``cells[i]``, the
    ascending members of its cell, and ``(anchor, key)`` when it draws from
    ``index[j[anchor]][key]``: the ascending ``v`` with
    ``colors[j[anchor]][v], cell[v] == key``.  ``rows_in[i]`` and
    ``cols_in[i]`` hold H[i, k] and H[k, i] for k < i, which H[v, j_k] and
    H[j_k, v] must match.
    """

    cols: tuple
    cells: tuple
    levels: tuple
    index: tuple
    rows_in: tuple
    cols_in: tuple


def _plan(colors):
    n = len(colors)
    cols = tuple(zip(*colors))
    cell = _refine(colors, cols)
    members = {}
    for v, c in enumerate(cell):
        members.setdefault(c, []).append(v)
    members = {c: tuple(vs) for c, vs in members.items()}
    # a row's class sizes depend only on its cell, because the partition is
    # stable: count them, once per cell, in the first member's row
    sizes = {}

    def class_size(ck, c, ci):
        if ck not in sizes:
            sizes[ck] = Counter(zip(colors[members[ck][0]], cell))
        return sizes[ck][c, ci]

    levels = []
    wanted = {}
    for i in range(n):
        ci = cell[i]
        level = None
        if len(members[ci]) > 1:
            # the anchor is the earliest k < i whose class is smallest;
            # ``first`` maps each (cell of k, H[k, i]) to its earliest k
            col = cols[i]
            first = {(cell[k], col[k]): k for k in range(i - 1, -1, -1)}
            size, k = min(
                ((class_size(ck, c, ci), k) for (ck, c), k in first.items()),
                default=(n, None),
            )
            if size < len(members[ci]):
                level = (k, (col[k], ci))
                wanted.setdefault(cell[k], set()).add(level[1])
        levels.append(level)
    index = [None] * n
    for c, keys in wanted.items():
        for u in members[c]:
            row = colors[u]
            index[u] = {
                key: tuple(v for v in members[key[1]] if row[v] == key[0]) for key in keys
            }
    return _Plan(
        cols=cols,
        cells=tuple(members[c] for c in cell),
        levels=tuple(levels),
        index=tuple(index),
        rows_in=tuple(colors[i][:i] for i in range(n)),
        cols_in=tuple(cols[i][:i] for i in range(n)),
    )


def _search_pruned(colors, plan, prefix, roots, max_results, node_budget, collect):
    """The pruned search over the candidate lists of ``plan``, under a fixed prefix.

    Indices ``0..len(prefix)-1`` map to ``prefix``, which must pass the
    pairwise test, and level ``len(prefix)`` draws from ``roots``.  Returns
    (perms, count, nodes, exhausted) as ``_search_leaf`` does.
    """
    n = len(colors)
    last = n - 1
    cols, cells, levels, index = plan.cols, plan.cells, plan.levels, plan.index
    rows_in, cols_in = plan.rows_in, plan.cols_in
    start = len(prefix)
    j = list(prefix) + [-1] * (n - start)
    used = [False] * n
    for v in prefix:
        used[v] = True
    its = [None] * n
    its[start] = iter(roots)
    nodes = 0
    count = 0
    found = []
    i = start
    while i >= start:
        ri, ci = rows_in[i], cols_in[i]
        for v in its[i]:
            nodes += 1
            if node_budget is not None and nodes > node_budget:
                return found, count, nodes - 1, False
            if used[v]:
                continue
            # v shares the cell of i, so H[v, v] == H[i, i] already holds
            rv, cv = colors[v], cols[v]
            for jk, a, b in zip(j, ri, ci):
                if rv[jk] != a or cv[jk] != b:
                    break
            else:
                j[i] = v
                if i == last:
                    count += 1
                    if collect:
                        found.append(tuple(j))
                    if max_results is not None and count >= max_results:
                        return found, count, nodes, False
                    continue
                used[v] = True
                i += 1
                level = levels[i]
                its[i] = iter(
                    cells[i] if level is None else index[j[level[0]]][level[1]]
                )
                break
        else:
            i -= 1
            if i >= start:
                used[j[i]] = False
    return found, count, nodes, True


def _stabiliser_chain(h, colors, plan):
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
    n = len(colors)
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
            found, _, seen, _ = _search_pruned(colors, plan, identity[:i], (v,), 1, None, True)
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
    tuples: each element of the group exactly once."""
    found = [tuple(range(len(chain)))]
    for reps in reversed(chain):
        if len(reps) > 1:
            found = [tuple(map(u.__getitem__, g)) for u in reps.values() for g in found]
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
    ``h`` need not be hermitian; the CLI reports one that is not.
    """
    cfg = cfg or SearchConfig()
    if not h.is_square():
        raise ValueError("symmetry search needs a square matrix")
    collect = not cfg.count_only
    if cfg.mode == MODE_LEAF_CHECK:
        found, count, nodes, exhausted = _search_leaf(
            h, cfg.max_results, cfg.node_budget, collect
        )
    else:
        colors = _color_table(h)
        plan = _plan(colors)
        if cfg.node_budget is None and cfg.max_results is None:
            chain, nodes = _stabiliser_chain(h, colors, plan)
            count = prod(map(len, chain))
            found = _chain_elements(chain) if collect else []
            exhausted = True
        else:
            found, count, nodes, exhausted = _search_pruned(
                colors, plan, (), plan.cells[0], cfg.max_results, cfg.node_budget, collect
            )

    perms = tuple(Perm(img) for img in sorted(found))
    return SearchResult(perms=perms, count=count, nodes_visited=nodes, exhausted=exhausted)
