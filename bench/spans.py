"""Spans recorded from outside the program, and the per-layer metrics they give.

The traced run replaces public names with timing wrappers: the names that
``permsym.cli``, ``permsym.groups``, ``permsym.search`` and
``permsym.decompose`` look up at call time, plus the spin-chain builder's own
calls.  Each span records its name, start, end, parent and request id, and
stays in memory until the run ends.  A span counts toward its layer's metric
unless one of its ancestors belongs to the same layer, so nested calls such
as generating_set -> generate_from -> verify_closure count under their caller.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from types import SimpleNamespace

import permsym.cli
import permsym.decompose
import permsym.groups
import permsym.search


def _find_attrs(args, kwargs, result):
    jobs = kwargs.get("jobs", args[2] if len(args) > 2 else 1)
    return {"jobs": jobs, "nodes": result.nodes_visited, "count": result.count}


def _targets():
    """(module, attribute, span name, attribute recorder) for each wrapped name."""
    cli, search, groups, dec = permsym.cli, permsym.search, permsym.groups, permsym.decompose
    entries = lambda a, k, r: {"entries": r.rows * r.cols}
    entries_checked = lambda a, k, r: {"entries": len(a[1]) ** 2}
    order = lambda a, k, r: {"order": r.order, "products": r.order ** 2}
    dim = lambda a, k, r: {"dim": len(a[0])}
    out = [(cli, "read_matrix_file", "scalars.parse", entries)]
    for module in (cli, search):
        out += [
            (module, "find_symmetries", "search.find", _find_attrs),
            (module, "is_symmetry", "search.verify", entries_checked),
        ]
    out += [
        (groups, "verify_closure", "groups.closure", order),
        (groups, "generating_set", "groups.generators", None),
        (groups, "generate_from", "groups.generate_from", None),
        (groups, "conjugacy_classes", "groups.classes", None),
        (groups, "is_commutative", "groups.summary", None),
        (groups, "element_orders", "groups.summary", None),
        (groups, "involutions", "groups.summary", None),
    ]
    # Decompose requests go through the API, so permsym.cli's names are not wrapped.
    out += [
        (dec, "projectors_from_involution", "decompose.projectors", dim),
        (dec, "column_space_basis", "decompose.basis", None),
        (dec, "block_form", "decompose.block_form", None),
    ]
    return out


class Tracer:
    """In-memory span recorder.  Spans are lists
    ``[name, start, end, parent index, request id, pass, attrs]``."""

    def __init__(self):
        self.spans = []
        self.request = None
        self.pass_no = None
        self._stack = []
        self._saved = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        rec = [name, 0.0, 0.0, parent, self.request, self.pass_no, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        return rec

    def _close(self, rec):
        rec[2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def wrap(self, name, fn, attrs=None):
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if attrs is not None:
                rec[6] = attrs(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Replace the public names with wrappers until ``uninstall``."""
        for module, attr, name, attrs in _targets():
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, attrs))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def chain_ops(self, plain):
        """The spin-chain builder's calls, each wrapped in a span."""
        return SimpleNamespace(
            build=self.wrap("models.build", plain.build),
            sigma_at=self.wrap("matrices.kron", plain.sigma_at),
            matmul=self.wrap("matrices.matmul", plain.matmul),
            add=self.wrap("matrices.add", plain.add),
            scale=self.wrap("matrices.scale", plain.scale),
        )

    def dump(self, path):
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, request, pass_no, attrs) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "start": start, "end": end, "parent": parent,
                    "request": request, "pass": pass_no, "attrs": attrs,
                }) + "\n")


def _layer(name):
    return name.split(".", 1)[0]


def _counted(spans, index):
    """True unless an ancestor span belongs to the same layer."""
    layer = _layer(spans[index][0])
    parent = spans[index][3]
    while parent is not None:
        if _layer(spans[parent][0]) == layer:
            return False
        parent = spans[parent][3]
    return True


def pass_metrics(spans, pass_no):
    """Per-layer metrics of one traced pass, and seconds per layer per request."""
    dur = defaultdict(float)
    calls = defaultdict(int)
    attr = defaultdict(int)
    children = defaultdict(float)
    by_request = defaultdict(lambda: defaultdict(float))
    for i, (name, start, end, parent, request, p, attrs) in enumerate(spans):
        if p != pass_no:
            continue
        if parent is not None:
            children[parent] += end - start
        if not _counted(spans, i):
            continue
        if name == "search.find" and attrs["jobs"] > 1:
            name = "search.parallel_find"
        dur[name] += end - start
        calls[name] += 1
        by_request[request][name] += end - start
        for key, value in (attrs or {}).items():
            attr[f"{name}.{key}"] += value
    cli_self = sum(
        (end - start) - children[i]
        for i, (name, start, end, _, _, p, _) in enumerate(spans)
        if p == pass_no and name == "cli.main"
    )
    nodes = attr["search.find.nodes"]
    entries = attr["scalars.parse.entries"]
    m = {
        "scalars.parse_s": dur["scalars.parse"],
        "scalars.entries": entries,
        "scalars.parse_us_per_entry": dur["scalars.parse"] / entries * 1e6 if entries else 0.0,
        "models.build_s": dur["models.build"],
        "matrices.kron_s": dur["matrices.kron"],
        "matrices.matmul_s": dur["matrices.matmul"],
        "matrices.add_s": dur["matrices.add"],
        "matrices.matmul_calls": calls["matrices.matmul"],
        "search.find_s": dur["search.find"],
        "search.nodes": nodes,
        "search.ns_per_node": dur["search.find"] / nodes * 1e9 if nodes else 0.0,
        "search.symmetries": attr["search.find.count"] + attr["search.parallel_find.count"],
        "search.parallel_find_s": dur["search.parallel_find"],
        "search.verify_s": dur["search.verify"],
        "search.verify_calls": calls["search.verify"],
        "search.verify_entries": attr["search.verify.entries"],
        "groups.closure_s": dur["groups.closure"],
        "groups.generators_s": dur["groups.generators"],
        "groups.classes_s": dur["groups.classes"],
        "groups.summary_s": dur["groups.summary"],
        "groups.order": attr["groups.closure.order"],
        "groups.table_products": attr["groups.closure.products"],
        "decompose.projectors_s": dur["decompose.projectors"],
        "decompose.basis_s": dur["decompose.basis"],
        "decompose.block_form_s": dur["decompose.block_form"],
        "decompose.dim": attr["decompose.projectors.dim"],
        "cli.self_s": cli_self,
    }
    requests = {rid: dict(layers) for rid, layers in by_request.items()}
    return m, requests


def median_metrics(samples):
    """Metric-wise median over a list of pass_metrics dicts."""
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


def median_requests(samples):
    """Seconds per layer per request, median over a list of pass_metrics results."""
    return {
        rid: {name: statistics.median(s[rid].get(name, 0.0) for s in samples) for name in layers}
        for rid, layers in samples[0].items()
    }
