"""Backtracking enumeration of all permutation matrices P with P^T H P = H.

Two modes return the same set, in the same lexicographic order:

* ``leaf-check`` realizes the classic nested-loop search: every unused index
  is tried at every level, and the full symmetry predicate runs at complete
  permutations.
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

``nodes_visited`` counts candidates tried.  In ``leaf-check`` that is every
index tried at every level; in ``pruned`` it is every candidate drawn from the
filtered lists, each counted once.  A node budget stops the search after that
many candidates, so a budgeted run returns a prefix of the full list.

The engine works on a small integer "color" table (one id per distinct
entry of H), so no polynomial arithmetic happens inside the search loop.
"""

from __future__ import annotations

import os
import warnings
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
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
    img = p.image
    e = h.entries()
    for u in range(n):
        pu = img[u] * n
        un = u * n
        for v in range(n):
            x, y = e[pu + img[v]], e[un + v]
            if x is not y and x != y:
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
    ``colors[j[anchor]][v], cell[v] == key``.
    """

    cols: tuple
    cells: tuple
    levels: tuple
    index: tuple


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
    )


def _search_pruned(colors, plan, roots, max_results, node_budget, collect):
    """The pruned search over the candidate lists of ``plan``.

    Level 0 draws from ``roots``.  Returns (perms, count, nodes, exhausted)
    as ``_search_leaf`` does.
    """
    n = len(colors)
    last = n - 1
    cols, cells, levels, index = plan.cols, plan.cells, plan.levels, plan.index
    # H[i, k] and H[k, i] for k < i, which H[v, j_k] and H[j_k, v] must match
    rows_in = [colors[i][:i] for i in range(n)]
    cols_in = [cols[i][:i] for i in range(n)]
    j = [-1] * n
    used = [False] * n
    its = [None] * n
    its[0] = iter(roots)
    nodes = 0
    count = 0
    found = []
    i = 0
    while i >= 0:
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
            if i >= 0:
                used[j[i]] = False
    return found, count, nodes, True


def _search_leaf(colors, fixed_j0, max_results, node_budget, collect):
    """Run the paper's nested-loop search over an integer color matrix.

    Every unused index is tried at every level, and the full predicate is
    tested at complete permutations.  ``fixed_j0`` restricts the top-level
    loop to a single value (used for parallel partitioning).  Returns
    (perms, count, nodes, exhausted) where perms is a list of image tuples in
    visit (= lexicographic) order.
    """
    n = len(colors)
    j = [-1] * n
    used = [False] * n
    marked = [False] * n
    nodes = 0
    count = 0
    found = []
    i = 0
    lo0, hi0 = (0, n) if fixed_j0 is None else (fixed_j0, fixed_j0 + 1)

    while i >= 0:
        v = j[i]
        if v >= 0 and marked[i]:
            used[v] = False
            marked[i] = False
        v = v + 1 if v >= 0 else (lo0 if i == 0 else 0)
        limit = hi0 if i == 0 else n
        advanced = False
        while v < limit:
            nodes += 1
            if node_budget is not None and nodes > node_budget:
                return found, count, nodes - 1, False
            if not used[v]:
                advanced = True
                break
            v += 1
        if not advanced:
            j[i] = -1
            i -= 1
            continue
        j[i] = v
        if i == n - 1:
            if _leaf_ok(colors, j):
                count += 1
                if collect:
                    found.append(tuple(j))
                if max_results is not None and count >= max_results:
                    return found, count, nodes, False
            # stay on this level and keep advancing
        else:
            used[v] = True
            marked[i] = True
            i += 1
    return found, count, nodes, True


def _leaf_ok(colors, j):
    n = len(colors)
    for u in range(n):
        cu = colors[u]
        cju = colors[j[u]]
        for v in range(n):
            if cju[j[v]] != cu[v]:
                return False
    return True


def _worker(args):
    colors, plan, roots, collect = args
    if plan is None:
        return [_search_leaf(colors, v0, None, None, collect) for v0 in roots]
    return [_search_pruned(colors, plan, roots, None, None, collect)]


def find_symmetries(h, cfg=None, jobs=1):
    """Enumerate all permutation symmetries of the square matrix ``h``.

    Results are ordered lexicographically by image array; the identity comes
    first whenever the search ran to completion.  Budgets (``node_budget``,
    ``max_results``) stop the search early and are reported through
    ``exhausted=False`` rather than by silent truncation.  ``jobs > 1``
    partitions the level-0 candidates (in ``pruned`` mode, the cell of
    index 0) across at most ``os.cpu_count()`` processes; node counts and
    output are those of the serial run.  Budgeted searches always run
    serially so that partial results are deterministic.
    """
    cfg = cfg or SearchConfig()
    if jobs < 1:
        raise ValueError("jobs must be positive")
    if not h.is_square():
        raise ValueError("symmetry search needs a square matrix")
    if not h.is_hermitian():
        warnings.warn("input matrix is not hermitian", stacklevel=2)
    colors = _color_table(h)
    n = h.rows
    collect = not cfg.count_only
    plan = _plan(colors) if cfg.mode == MODE_PRUNED else None
    roots = range(n) if plan is None else plan.cells[0]

    budgeted = cfg.node_budget is not None or cfg.max_results is not None
    if jobs > 1 and not budgeted and len(roots) > 1:
        workers = min(jobs, n, os.cpu_count() or 1)
        # one task per worker, each an interleaved share of the roots
        tasks = [
            (colors, plan, roots[w::workers], collect)
            for w in range(min(workers, len(roots)))
        ]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = [part for chunk in pool.map(_worker, tasks) for part in chunk]
        found = [img for part in parts for img in part[0]]
        count = sum(part[1] for part in parts)
        nodes = sum(part[2] for part in parts)
        exhausted = True
    elif plan is None:
        found, count, nodes, exhausted = _search_leaf(
            colors, None, cfg.max_results, cfg.node_budget, collect
        )
    else:
        found, count, nodes, exhausted = _search_pruned(
            colors, plan, roots, cfg.max_results, cfg.node_budget, collect
        )

    perms = tuple(Perm(img) for img in sorted(found))
    return SearchResult(perms=perms, count=count, nodes_visited=nodes, exhausted=exhausted)


def count_symmetries(h, cfg=None, jobs=1):
    """Number of permutation symmetries, honoring the same config as find."""
    cfg = cfg or SearchConfig()
    if not cfg.count_only:
        cfg = SearchConfig(
            mode=cfg.mode,
            max_results=cfg.max_results,
            node_budget=cfg.node_budget,
            count_only=True,
        )
    return find_symmetries(h, cfg, jobs=jobs).count
