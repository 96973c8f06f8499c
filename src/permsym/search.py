"""Backtracking enumeration of all permutation matrices P with P^T H P = H.

Two modes share one engine:

* ``leaf-check`` realizes the classic nested-loop search: partial assignments
  are only tested for duplicate indices, and the full symmetry predicate runs
  at complete permutations.
* ``pruned`` additionally rejects a partial assignment ``pi(i) = j_i`` unless
  ``H[j_k, j_i] == H[k, i]`` and ``H[j_i, j_k] == H[i, k]`` for all ``k <= i``
  (diagonal included).  Any violated pair stays violated in every completion,
  so pruning never loses a symmetry; conversely a complete assignment that
  passed every partial check satisfies the full predicate, so no leaf test is
  needed.  Both modes return the same set, in the same lexicographic order.

The engine works on a small integer "color" table (one id per distinct
entry of H), so no polynomial arithmetic happens inside the search loop.
"""

from __future__ import annotations

import os
import warnings
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
    colors = []
    n = h.rows
    e = h.entries()
    for u in range(n):
        row = []
        for v in range(n):
            x = e[u * n + v]
            c = ids.get(x)
            if c is None:
                c = len(ids)
                ids[x] = c
            row.append(c)
        colors.append(tuple(row))
    return tuple(colors)


def _search_colors(colors, mode, fixed_j0, max_results, node_budget, collect):
    """Run the nested-loop search over an integer color matrix.

    ``fixed_j0`` restricts the top-level loop to a single value (used for
    parallel partitioning).  Returns (perms, count, nodes, exhausted) where
    perms is a list of image tuples in visit (= lexicographic) order.
    """
    n = len(colors)
    pruned = mode == MODE_PRUNED
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
            ok = not used[v]
            if ok and pruned:
                ci = colors[i]
                cv = colors[v]
                if cv[v] != ci[i]:
                    ok = False
                else:
                    for k in range(i):
                        jk = j[k]
                        if colors[jk][v] != colors[k][i] or cv[jk] != ci[k]:
                            ok = False
                            break
            if ok:
                advanced = True
                break
            v += 1
        if not advanced:
            j[i] = -1
            i -= 1
            continue
        j[i] = v
        if i == n - 1:
            if pruned or _leaf_ok(colors, j):
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
    colors, mode, v0 = args
    return v0, _search_colors(colors, mode, v0, None, None, True)


def find_symmetries(h, cfg=None, jobs=1):
    """Enumerate all permutation symmetries of the square matrix ``h``.

    Results are ordered lexicographically by image array; the identity comes
    first whenever the search ran to completion.  Budgets (``node_budget``,
    ``max_results``) stop the search early and are reported through
    ``exhausted=False`` rather than by silent truncation.  ``jobs > 1``
    partitions the top-level branch across at most ``os.cpu_count()``
    processes; budgeted searches always run serially so that partial results
    are deterministic.
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

    budgeted = cfg.node_budget is not None or cfg.max_results is not None
    if jobs > 1 and not budgeted and n > 1:
        workers = min(jobs, n, os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = dict()
            for v0, part in pool.map(_worker, [(colors, cfg.mode, v0) for v0 in range(n)]):
                parts[v0] = part
        found = []
        nodes = 0
        for v0 in range(n):
            sub_found, _, sub_nodes, _ = parts[v0]
            found.extend(sub_found)
            nodes += sub_nodes
        count = len(found)
        exhausted = True
        if cfg.count_only:
            found = []
    else:
        found, count, nodes, exhausted = _search_colors(
            colors, cfg.mode, None, cfg.max_results, cfg.node_budget, collect
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
