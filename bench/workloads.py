"""Seeded inputs and the request lists of the three benchmark workloads.

Every input is a square table of entry expressions made by an entry function
of this module.  The same table is what the matrix files contain and what the
checker compares permuted entries against, so the checks never ask permsym
whether an image is a symmetry.  Each request carries its known answer and a
one-line reason for being in the workload.
"""

from __future__ import annotations

import itertools
import json
import operator
import os
import random
from dataclasses import dataclass, field
from types import SimpleNamespace

import permsym.decompose
import permsym.search
from permsym import ExactMatrix, Perm, induced_site_perm, param, sigma_at

# Parameter names drawn by seed; all one letter so that file sizes and parse
# work do not depend on the seed.  "i" is the imaginary unit and is excluded.
_NAMES = "abcdghJKtUVwxy"

# search-files lists ising5 under a fixed panel of random relabellings.  The
# node count of the pruned search varies 350-fold between relabellings (102k
# to 36M nodes over draws 0-15), so drawing them from --seed would make the
# run's cost depend on the seed; draws 0-3 span 102k to 1.29M nodes.
ISING5_PANEL = (0, 1, 2, 3)


@dataclass
class Table:
    """A generated square input: entry expressions plus an optional file."""

    name: str
    rows: list
    path: str = None

    @property
    def n(self):
        return len(self.rows)


@dataclass
class Request:
    """One user request of a workload, with its known answer.

    ``known`` holds what the checker compares against: ``order`` (|G|, or the
    symmetry count for find), ``classes`` (group only), ``blocks`` and
    ``basis`` (decompose only), ``count_only`` and ``same_count_as`` (the id
    of another request whose count must match).
    """

    rid: str
    kind: str
    table: Table
    reason: str
    known: dict
    argv: list = None
    api: object = None
    params: dict = field(default_factory=dict)


# -- entry functions ----------------------------------------------------


def _coeff(k, name):
    if k == 0:
        return "0"
    if k == 1:
        return name
    if k == -1:
        return "-" + name
    return f"{k}*{name}"


def ising_rows(L, a, b):
    """Cyclic transverse Ising chain, sum z_j z_{j+1} * a + sum x_j * b.

    Site 1 is the most significant bit, as in ``permsym.sigma_at``; a set bit
    is spin down.
    """
    n = 1 << L
    rows = []
    for u in range(n):
        s = [1 - 2 * ((u >> (L - 1 - k)) & 1) for k in range(L)]
        diag = _coeff(sum(s[k] * s[(k + 1) % L] for k in range(L)), a)
        row = ["0"] * n
        row[u] = diag
        for k in range(L):
            row[u ^ (1 << k)] = b
        rows.append(row)
    return rows


def graph_rows(n, adjacent, diag, weight):
    """Weighted adjacency matrix: ``diag`` on the diagonal, ``weight`` on edges."""
    return [
        [diag if u == v else (weight if adjacent(u, v) else "0") for v in range(n)]
        for u in range(n)
    ]


def complete_rows(n, diag, weight):
    return graph_rows(n, lambda u, v: True, diag, weight)


def cube_rows(d, diag, weight):
    return graph_rows(1 << d, lambda u, v: bin(u ^ v).count("1") == 1, diag, weight)


def petersen_rows(diag, weight):
    verts = list(itertools.combinations(range(5), 2))
    return graph_rows(10, lambda u, v: not set(verts[u]) & set(verts[v]), diag, weight)


def relabel(rows, perm):
    """The table with index u renamed perm[u]: out[perm[u]][perm[v]] = rows[u][v]."""
    n = len(rows)
    inv = [0] * n
    for u, p in enumerate(perm):
        inv[p] = u
    return [[rows[inv[u]][inv[v]] for v in range(n)] for u in range(n)]


def random_perm(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def _weights(rng):
    """A seeded diagonal parameter and a seeded non-zero rational edge weight."""
    return rng.choice(_NAMES), f"{rng.randint(1, 9)}/{rng.randint(2, 9)}"


# -- the spin-chain builder ---------------------------------------------


def build_chain(L, a, b, ops):
    """The L-site cyclic transverse Ising chain, built as ``models._ising4`` is.

    It makes the same calls in the same order (``sigma_at``, ``@``, ``+`` and
    scalar ``*``), so that its cost is the catalog builder's cost at size L.
    ``ops`` supplies those calls, which lets the traced run time each one.
    """
    z = [ops.sigma_at(3, j, L) for j in range(1, L + 1)]
    x = [ops.sigma_at(1, j, L) for j in range(1, L + 1)]
    coupling = ExactMatrix.zeros(1 << L)
    field_ = ExactMatrix.zeros(1 << L)
    for j in range(L):
        coupling = ops.add(coupling, ops.matmul(z[j], z[(j + 1) % L]))
        field_ = ops.add(field_, x[j])
    return ops.add(ops.scale(coupling, param(a)), ops.scale(field_, param(b)))


# The builder's calls, untraced; spans.Tracer.chain_ops wraps each one.
CHAIN_OPS = SimpleNamespace(
    build=build_chain, sigma_at=sigma_at,
    matmul=operator.matmul, add=operator.add, scale=operator.mul,
)


def _perm_record(p):
    return {"image": list(p.image), "cycles": p.cycle_string(), "order": p.order()}


def api_find(req, ops):
    """``permsym find --model`` for a chain, through the Python API."""
    p = req.params
    h = ops.build(p["L"], p["a"], p["b"], ops)
    result = permsym.search.find_symmetries(h)
    for perm in result.perms:
        if not permsym.search.is_symmetry(h, perm):
            raise AssertionError(f"emitted non-symmetry {perm}")
    return 0, {
        "search": {
            "count": result.count,
            "exhausted": result.exhausted,
            "nodes_visited": result.nodes_visited,
        },
        "symmetries": [_perm_record(perm) for perm in result.perms],
    }


def api_decompose(req, ops):
    """``permsym decompose --model --perm`` for a chain, through the Python API."""
    p = req.params
    h = ops.build(p["L"], p["a"], p["b"], ops)
    perm = Perm(p["involution"])
    if not permsym.search.is_symmetry(h, perm) or perm.order() > 2:
        raise AssertionError(f"{perm} is not an involutive symmetry")
    dec = permsym.decompose
    pair = dec.projectors_from_involution(perm)
    basis1 = dec.column_space_basis(pair.pi1)
    basis2 = dec.column_space_basis(pair.pi2)
    blocks = dec.block_form(h, basis1, basis2)
    k, n = len(basis1), h.rows
    return 0, {
        "decomposition": {
            "involution": list(perm.image),
            "basis1": [list(v) for v in basis1],
            "basis2": [list(v) for v in basis2],
            "block1": [[str(blocks[r, c]) for c in range(k)] for r in range(k)],
            "block2": [[str(blocks[r, c]) for c in range(k, n)] for r in range(k, n)],
        }
    }


def chain_involutions(L):
    """Labelled reflections of the ring, the global spin flip, and their products."""
    n = 1 << L
    flip = Perm([n - 1 - u for u in range(n)])
    refl = [induced_site_perm(Perm([(r - k) % L for k in range(L)])) for r in range(L)]
    return (
        [(f"reflection {r}", g) for r, g in enumerate(refl)]
        + [("spin flip", flip)]
        + [(f"reflection {r} x spin flip", g * flip) for r, g in enumerate(refl)]
    )


def involution_blocks(image):
    """Block sizes (#2-cycles + #fixed points, #2-cycles) and the closed-form bases."""
    n = len(image)
    basis1, basis2 = [], []
    for a in range(n):
        b = image[a]
        if b < a:
            continue
        plus = [0] * n
        plus[a] = 1
        if b != a:
            plus[b] = 1
            minus = [0] * n
            minus[a], minus[b] = 1, -1
            basis2.append(minus)
        basis1.append(plus)
    return (len(basis1), len(basis2)), basis1, basis2


# -- workloads ------------------------------------------------------------


def spin_chain(rng, directory):
    a, b = rng.sample(_NAMES, 2)
    tables = {L: Table(f"ising{L}", ising_rows(L, a, b)) for L in (6, 7, 8)}
    reqs = []
    for L in (6, 7, 8):
        reqs.append(Request(
            rid=f"find ising{L}",
            kind="find",
            table=tables[L],
            reason=f"dense build of dim {1 << L} dominates; search has 4L = {4 * L} symmetries",
            known={"order": 4 * L},
            api=api_find,
            params={"L": L, "a": a, "b": b},
        ))
    for L in (6, 7):
        label, inv = rng.choice(chain_involutions(L))
        blocks, basis1, basis2 = involution_blocks(inv.image)
        reqs.append(Request(
            rid=f"decompose ising{L}",
            kind="decompose",
            table=tables[L],
            reason=f"dense block_form at dim {1 << L}; involution drawn by seed: {label}",
            known={"blocks": blocks, "basis": [basis1, basis2]},
            api=api_decompose,
            params={"L": L, "a": a, "b": b, "involution": list(inv.image)},
        ))
    return reqs


def _file(directory, name, rows):
    """A table written as a matrix file: ``rows cols``, then one line per row."""
    table = Table(name, rows, os.path.join(directory, name + ".txt"))
    with open(table.path, "w", encoding="utf-8") as fh:
        fh.write(f"{table.n} {table.n}\n")
        for row in rows:
            fh.write(" ".join(row) + "\n")
    return table


def _file_request(rid, kind, table, reason, known, extra=()):
    argv = [kind, "--input", table.path, "--format", "json", *extra]
    return Request(rid=rid, kind=kind, table=table, reason=reason, known=known, argv=argv)


def search_files(rng, directory):
    d, w = _weights(rng)
    k9 = _file(directory, "k9", complete_rows(9, d, w))
    d, w = _weights(rng)
    q5 = _file(directory, "q5", cube_rows(5, d, w))
    a, b = rng.sample(_NAMES, 2)
    ising5 = ising_rows(5, a, b)
    panel = [
        _file(directory, f"ising5-relabel{k}", relabel(ising5, random_perm(random.Random(k), 32)))
        for k in ISING5_PANEL
    ]
    a, b = rng.sample(_NAMES, 2)
    ising7 = _file(directory, "ising7", ising_rows(7, a, b))
    reqs = [
        _file_request("find k9 count-only", "find", k9,
                      "pure search: 5.6M nodes, 362,880 symmetries counted, none listed",
                      {"order": 362880, "count_only": True}, ["--count-only"]),
        _file_request("find k9 count-only jobs2", "find", k9,
                      "the process-pool path; its workers pickle every image",
                      {"order": 362880, "count_only": True,
                       "same_count_as": "find k9 count-only"},
                      ["--count-only", "--jobs", "2"]),
        _file_request("find q5", "find", q5,
                      "3,840 listed symmetries: re-verification and report rendering "
                      "outweigh the search (natural order; relabellings take 15-52 s)",
                      {"order": 3840}),
    ]
    for t in panel:
        reqs.append(_file_request(f"find {t.name}", "find", t,
                                  "relabelled ising5: the pruned search's order sensitivity",
                                  {"order": 20}))
    reqs.append(_file_request("find ising7", "find", ising7,
                              "16,384 entries, the most parsing of any request",
                              {"order": 28}))
    return reqs


def group_analysis(rng, directory):
    d, w = _weights(rng)
    k6 = _file(directory, "k6", complete_rows(6, d, w))
    d, w = _weights(rng)
    q4 = _file(directory, "q4", relabel(cube_rows(4, d, w), random_perm(rng, 16)))
    d, w = _weights(rng)
    pet = _file(directory, "petersen", relabel(petersen_rows(d, w), random_perm(rng, 10)))
    a, b = rng.sample(_NAMES, 2)
    ising5 = _file(directory, "ising5", ising_rows(5, a, b))
    return [
        _file_request("group k6", "group", k6,
                      "S6: the O(|G|^2) closure and generating set dwarf the search",
                      {"order": 720, "classes": 11}),
        _file_request("group q4", "group", q4,
                      "relabelled hyperoctahedral group B4", {"order": 384, "classes": 20}),
        _file_request("group petersen", "group", pet,
                      "relabelled Petersen graph, S5", {"order": 120, "classes": 7}),
        _file_request("group ising5", "group", ising5,
                      "D5 x Z2: search and parsing outweigh the group layer",
                      {"order": 20, "classes": 8}),
    ]


_BUILDERS = {
    "spin-chain": spin_chain,
    "search-files": search_files,
    "group-analysis": group_analysis,
}
WORKLOADS = tuple(_BUILDERS)


def make_requests(workload, seed, directory):
    """The workload's requests for ``seed``; matrix files and a manifest go to
    ``directory``.  The manifest lists each request, with input files named
    relative to it, its known answer and the reason it is in the workload.
    """
    os.makedirs(directory, exist_ok=True)
    reqs = _BUILDERS[workload](random.Random(f"{workload}/{seed}"), directory)
    def described(r):
        if r.argv is None:
            return {"api": f"{r.table.name} with parameters {r.params['a']}, {r.params['b']}"}
        name = os.path.basename(r.table.path)
        return {"argv": [name if a == r.table.path else a for a in r.argv]}

    manifest = {
        "workload": workload,
        "seed": seed,
        "requests": [
            {
                "id": r.rid,
                "kind": r.kind,
                **described(r),
                "known": {k: v for k, v in r.known.items() if k != "basis"},
                "reason": r.reason,
            }
            for r in reqs
        ],
    }
    with open(os.path.join(directory, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1)
    return reqs
