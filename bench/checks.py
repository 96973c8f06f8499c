"""Correctness checks that do not ask the layer under test.

A report passes when it gives the known answer of its request: |G|, the
conjugacy-class count, block sizes and bases, and every block entry as worked
out from the entry table.  Every listed image must be a
symmetry by the generator's own entry table, and the listed generators must
regenerate |G| under this module's own closure.  ``corruptions`` makes
deliberately broken copies of a passing report; the run counts the checker
itself as broken if any of them passes.
"""

from __future__ import annotations

import copy
from fractions import Fraction


def _closure_size(generators, n):
    """Order of the group generated, by breadth-first products of image tuples."""
    ident = tuple(range(n))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for g in generators:
                q = tuple(g[j] for j in p)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return len(seen)


def _linear(text):
    """An entry as {parameter: coefficient}, the constant under "".

    Reads sums of rational multiples of single parameters, such as ``-3*a``,
    ``a + 1/2*b`` or ``2``: what the entry functions write and what permsym
    renders for them.  Raises ValueError on anything else.
    """
    form = {}
    for term in text.replace(" - ", " + -").split(" + "):
        coeff, _, name = term.rpartition("*")
        if not name.lstrip("-").isalpha():
            coeff, name = name, ""
        elif not coeff:
            coeff, name = ("-1", name[1:]) if name.startswith("-") else ("1", name)
        form[name] = form.get(name, 0) + Fraction(coeff)
    return {k: v for k, v in form.items() if v}


def _render(form):
    """A {parameter: coefficient} form as text that ``_linear`` reads back."""
    terms = [f"{c}*{k}" if k else str(c) for k, c in sorted(form.items())]
    return " + ".join(terms) or "0"


def _expected_block(rows, basis):
    """Entries v_i . H . v_j / |v_i|^2 over an orthogonal basis: S^-1 H S restricted to it."""
    entry = {}

    def h(u, w):
        if (u, w) not in entry:
            entry[u, w] = _linear(rows[u][w])
        return entry[u, w]

    support = [[(u, x) for u, x in enumerate(v) if x] for v in basis]
    block = []
    for si in support:
        norm = sum(x * x for _, x in si)
        row = []
        for sj in support:
            total = {}
            for u, x in si:
                for w, y in sj:
                    for k, c in h(u, w).items():
                        total[k] = total.get(k, 0) + x * y * c
            row.append({k: Fraction(c, norm) for k, c in total.items() if c})
        block.append(row)
    return block


def _check_block(label, rows, basis, block):
    """Problems with a reported block against the one worked out from ``rows``."""
    for i, (want_row, got_row) in enumerate(zip(_expected_block(rows, basis), block)):
        for j, (want, got) in enumerate(zip(want_row, got_row)):
            try:
                ok = _linear(got) == want
            except (ValueError, ZeroDivisionError):
                ok = False
            if not ok:
                return [f"{label}[{i}][{j}] is {got!r}, expected {_render(want)!r}"]
    return []


def _check_images(rows, records, order):
    """Problems with a list of symmetry records against the entry table."""
    n = len(rows)
    images = [tuple(r["image"]) for r in records]
    if len(images) != order:
        return [f"{len(images)} symmetries listed, expected {order}"]
    if len(set(images)) != order:
        return ["duplicate symmetries listed"]
    full = list(range(n))
    for img in images:
        if sorted(img) != full:
            return [f"not a permutation of 0..{n - 1}: {list(img)}"]
        for u in range(n):
            rpu = rows[img[u]]
            if [rpu[j] for j in img] != rows[u]:
                return [f"not a symmetry: {list(img)}"]
    return []


def check(req, report, reports):
    """Problems with ``report`` as the answer to ``req``; empty when it passes.

    ``reports`` maps request ids to the other reports of the same pass.
    """
    known = req.known
    if req.kind == "decompose":
        d = report["decomposition"]
        k1, k2 = known["blocks"]
        problems = []
        if len(d["block1"]) != k1 or any(len(r) != k1 for r in d["block1"]):
            problems.append(f"first block is not {k1}x{k1}")
        if len(d["block2"]) != k2 or any(len(r) != k2 for r in d["block2"]):
            problems.append(f"second block is not {k2}x{k2}")
        if [d["basis1"], d["basis2"]] != known["basis"]:
            problems.append("bases differ from e_a + e_b, e_a and e_a - e_b")
        if d["involution"] != req.params["involution"]:
            problems.append("report names another involution")
        if problems:
            return problems
        for label, basis in (("block1", d["basis1"]), ("block2", d["basis2"])):
            problems += _check_block(label, req.table.rows, basis, d[label])
        return problems

    search = report["search"]
    order = known["order"]
    if search["count"] != order or not search["exhausted"]:
        return [f"count {search['count']} (exhausted {search['exhausted']}), expected {order}"]
    other = known.get("same_count_as")
    if other is not None and reports[other]["search"]["count"] != search["count"]:
        return [f"count differs from {other!r}"]
    if known.get("count_only"):
        return ["symmetries listed under --count-only"] if "symmetries" in report else []
    problems = _check_images(req.table.rows, report["symmetries"], order)
    if problems or req.kind != "group":
        return problems

    g = report["group"]
    if g["order"] != order:
        return [f"group order {g['order']}, expected {order}"]
    classes = g["conjugacy_classes"]
    if len(classes) != known["classes"]:
        return [f"{len(classes)} conjugacy classes, expected {known['classes']}"]
    if sorted(i for c in classes for i in c) != list(range(order)):
        return ["conjugacy classes do not partition the group"]
    listed = {tuple(r["image"]) for r in report["symmetries"]}
    gens = [tuple(p) for p in g["generators"]]
    if not set(gens) <= listed:
        return ["a generator is not a listed symmetry"]
    if _closure_size(gens, req.table.n) != order:
        return ["generators do not regenerate the group"]
    return []


def corruptions(req, report):
    """(label, broken copy of ``report``) pairs that ``check`` must reject."""
    out = []

    def broken(label, edit):
        r = copy.deepcopy(report)
        edit(r)
        out.append((label, r))

    if req.kind == "decompose":
        def swap(r):
            d = r["decomposition"]
            d["basis1"], d["basis2"] = d["basis2"], d["basis1"]
            d["block1"], d["block2"] = d["block2"], d["block1"]
        broken("swapped blocks", swap)
        broken("dropped block row", lambda r: r["decomposition"]["block1"].pop())

        def negate_entry(r):
            d = r["decomposition"]
            block = d["block2"] or d["block1"]
            i, j = next(((i, j) for i, row in enumerate(block) for j, x in enumerate(row)
                         if x != "0"), (0, 0))
            block[i][j] = _render({k: -c for k, c in _linear(block[i][j]).items()} or {"": 1})
        broken("changed block entry", negate_entry)
        return out

    broken("count off by one", lambda r: r["search"].update(count=r["search"]["count"] - 1))
    if "symmetries" in report:
        broken("dropped symmetry", lambda r: r["symmetries"].pop())
        broken("duplicated symmetry",
               lambda r: r["symmetries"][-1].update(image=r["symmetries"][0]["image"]))
    if req.kind == "group":
        def merge_classes(r):
            classes = r["group"]["conjugacy_classes"]
            classes[-2] = classes[-2] + classes.pop()
        broken("wrong class count", merge_classes)
        broken("dropped generator", lambda r: r["group"]["generators"].pop())
    return out
