"""Command-line front end.

Subcommands: ``find`` (enumerate symmetries), ``group`` (analyze the group
they form), ``decompose`` (projector decomposition by one involution) and
``models`` (catalog listing).  Input is either ``--model NAME`` with optional
``--param name=value`` bindings, or ``--input FILE`` with a matrix file:

    line 1:      ``rows cols``
    lines 2..n:  whitespace-separated entry expressions (no spaces inside an
                 expression), e.g. ``4*a b 0 -1/2``

All indices in input and output are 0-based.  Exit codes: 0 success,
2 parse error, 3 validation error, 4 search budget exhausted.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import groups
from .decompose import block_form, column_space_basis, projectors_from_involution
from .matrices import ExactMatrix
from .models import CATALOG, ModelError, build, list_models
from .perms import Perm, cycles_order, format_cycles
from .scalars import ParseError, parse
from .search import (
    MODE_LEAF_CHECK,
    MODE_PRUNED,
    SearchConfig,
    find_symmetries,
    is_symmetry,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_BUDGET = 4

_NORMALIZATION_NOTE = (
    "basis vectors are primitive integer vectors; unit-norm versions differ "
    "by irrational factors such as 1/sqrt(2) and are not representable exactly"
)


class MatrixFileError(ValueError):
    pass


def _dimension(field):
    """``field`` as an int if it is ASCII decimal digits, else None."""
    if not (field.isascii() and field.isdigit()):
        return None
    try:
        return int(field)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        return None


def read_matrix_file(path):
    """Parse a matrix file into an ExactMatrix."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        raise MatrixFileError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise MatrixFileError(
            f"{path}: not UTF-8 text: byte 0x{exc.object[exc.start]:02x} at offset {exc.start}"
        ) from None
    lines = [(no + 1, line) for no, line in enumerate(raw.splitlines()) if line.strip()]
    if not lines:
        raise MatrixFileError(f"{path}: empty matrix file")
    header_no, header = lines[0]
    dims = [_dimension(f) for f in header.split()]
    if len(dims) != 2 or None in dims:
        raise MatrixFileError(f"{path}:{header_no}: header must be 'rows cols'")
    rows, cols = dims
    if rows < 1 or cols < 1:
        raise MatrixFileError(f"{path}:{header_no}: dimensions must be positive")
    body = lines[1:]
    if len(body) != rows:
        raise MatrixFileError(
            f"{path}: expected {rows} entry rows after the header, found {len(body)}"
        )
    entries = []
    # each distinct token is parsed once, so equal entries share one scalar
    parsed = {}
    for line_no, line in body:
        tokens = line.split()
        if len(tokens) != cols:
            raise MatrixFileError(
                f"{path}:{line_no}: expected {cols} entries, found {len(tokens)}"
            )
        for token in tokens:
            value = parsed.get(token)
            if value is None:
                try:
                    value = parsed[token] = parse(token)
                except ParseError as exc:
                    raise MatrixFileError(f"{path}:{line_no}: {token!r}: {exc}") from None
            entries.append(value)
    return ExactMatrix(rows, cols, entries)


def _load_input(args):
    """Resolve --model/--param/--input into (matrix, input description)."""
    if args.model and args.input:
        raise ModelError("give either --model or --input, not both")
    if not args.model and not args.input:
        raise ModelError("an input is required: --model NAME or --input FILE")
    if args.model:
        bindings = {}
        for item in args.param or []:
            name, sep, value = item.partition("=")
            if not sep or not name:
                raise ModelError(f"--param expects name=value, got {item!r}")
            bindings[name] = parse(value)
        matrix = build(args.model, bindings)
        spec = CATALOG[args.model]
        described = {
            name: str(bindings.get(name, parse(name)))
            for name in spec.parameter_names()
        }
        info = {
            "kind": "model",
            "name": args.model,
            "dimension": spec.dimension,
            "parameters": described,
        }
        return matrix, info
    if args.param:
        raise ModelError("--param applies to --model inputs only")
    matrix = read_matrix_file(args.input)
    info = {"kind": "file", "path": args.input, "dimension": matrix.rows}
    return matrix, info


def _search_config(args):
    mode = MODE_LEAF_CHECK if args.mode == "leaf" else MODE_PRUNED
    return SearchConfig(
        mode=mode,
        max_results=args.max_results,
        node_budget=args.node_budget,
        count_only=getattr(args, "count_only", False),
    )


def _perm_record(p):
    cycles = p.cycles()
    return {"image": list(p.image), "cycles": format_cycles(cycles), "order": cycles_order(cycles)}


def _run_search(matrix, args):
    cfg = _search_config(args)
    if args.jobs < 1:
        raise ValueError("jobs must be positive")
    start = time.perf_counter()
    result = find_symmetries(matrix, cfg)
    wall = time.perf_counter() - start
    if not matrix.is_hermitian():
        print("warning: input matrix is not hermitian", file=sys.stderr)
    for p in result.perms:
        if not is_symmetry(matrix, p):
            raise AssertionError(f"internal error: emitted non-symmetry {p}")
    search_info = {
        "mode": cfg.mode,
        "jobs": 1,  # workers used: every search runs serially
        "count_only": cfg.count_only,
        "max_results": cfg.max_results,
        "node_budget": cfg.node_budget,
        "nodes_visited": result.nodes_visited,
        "exhausted": result.exhausted,
        "count": result.count,
    }
    return result, cfg, search_info, wall


def _budget_exit(result, cfg):
    return (
        not result.exhausted
        and cfg.node_budget is not None
        and result.nodes_visited >= cfg.node_budget
    )


def _emit(report, args, text_renderer):
    if args.format == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for line in text_renderer(report):
            print(line)


# -- find ----------------------------------------------------------------


def _find_text(report):
    yield from _input_text(report["input"])
    yield from _search_text(report["search"])
    if "symmetries" in report:
        yield f"symmetries found: {report['search']['count']}"
        for rec in report["symmetries"]:
            image = ",".join(str(j) for j in rec["image"])
            yield f"  {image}   cycles {rec['cycles']}   order {rec['order']}"
    else:
        yield f"symmetry count: {report['search']['count']}"
    if "note" in report:
        yield f"note: {report['note']}"
    yield from _timing_text(report)


def _input_text(info):
    if info["kind"] == "model":
        yield f"input: model {info['name']} (dimension {info['dimension']})"
        pairs = ", ".join(f"{k}={v}" for k, v in info["parameters"].items())
        if pairs:
            yield f"parameters: {pairs}"
    else:
        yield f"input: file {info['path']} (dimension {info['dimension']})"


def _search_text(search):
    yield f"mode: {search['mode']}  jobs: {search['jobs']}"
    yield f"nodes visited: {search['nodes_visited']}"
    yield f"exhausted: {'yes' if search['exhausted'] else 'no'}"
    if search["max_results"] is not None:
        yield f"max results: {search['max_results']}"
    if search["node_budget"] is not None:
        yield f"node budget: {search['node_budget']}"


def _timing_text(report):
    yield f"wall time: {report['timing']['wall_s']:.6f} s"


def cmd_find(args):
    matrix, info = _load_input(args)
    result, cfg, search_info, wall = _run_search(matrix, args)
    report = {
        "command": "find",
        "input": info,
        "search": search_info,
        "timing": {"wall_s": wall},
    }
    if not args.count_only:
        report["symmetries"] = [_perm_record(p) for p in result.perms]
        if result.exhausted and result.count == 1:
            report["note"] = "only the identity permutation is a symmetry"
    _emit(report, args, _find_text)
    if _budget_exit(result, cfg):
        return EXIT_BUDGET
    return EXIT_OK


# -- group ---------------------------------------------------------------


def _group_text(report):
    yield from _input_text(report["input"])
    yield from _search_text(report["search"])
    g = report["group"]
    yield f"group order: {g['order']}"
    yield f"commutative: {'yes' if g['commutative'] else 'no'}"
    orders = ", ".join(f"{idx}:{order}" for idx, order in g["element_orders"])
    yield f"element orders (index:order): {orders}"
    yield f"non-identity involutions: {g['involution_count']}"
    yield "conjugacy classes:"
    for cls in g["conjugacy_classes"]:
        yield "  {" + ", ".join(str(i) for i in cls) + "}"
    yield f"irreducible representation count (= class count): {len(g['conjugacy_classes'])}"
    yield "generators:"
    for image in g["generators"]:
        yield "  " + ",".join(str(j) for j in image)
    yield "elements:"
    for rec in report["symmetries"]:
        image = ",".join(str(j) for j in rec["image"])
        yield f"  {image}   cycles {rec['cycles']}   order {rec['order']}"
    yield from _timing_text(report)


def cmd_group(args):
    matrix, info = _load_input(args)
    result, _, search_info, wall = _run_search(matrix, args)
    if not result.exhausted:
        print("search stopped before exhausting the tree; group analysis needs "
              "the complete symmetry set", file=sys.stderr)
        return EXIT_BUDGET
    group = groups.verify_closure(result.perms)
    gens = groups.generating_set(group)
    # each element's cycles are walked once, for its record; the element
    # orders and the involution count are read off the records
    records = [_perm_record(p) for p in group.elements]
    report = {
        "command": "group",
        "input": info,
        "search": search_info,
        "symmetries": records,
        "group": {
            "order": group.order,
            "commutative": groups.is_commutative(group),
            "element_orders": [[k, rec["order"]] for k, rec in enumerate(records)],
            "involution_count": sum(rec["order"] == 2 for rec in records),
            "conjugacy_classes": [list(c) for c in groups.conjugacy_classes(group)],
            "generators": [list(p.image) for p in gens],
        },
        "timing": {"wall_s": wall},
    }
    _emit(report, args, _group_text)
    return EXIT_OK


# -- decompose -------------------------------------------------------------


def _decompose_text(report):
    yield from _input_text(report["input"])
    d = report["decomposition"]
    yield f"involution: {','.join(str(j) for j in d['involution'])}"
    yield "basis of the first invariant subspace:"
    for v in d["basis1"]:
        yield "  (" + ", ".join(str(x) for x in v) + ")"
    yield "basis of the second invariant subspace:"
    for v in d["basis2"]:
        yield "  (" + ", ".join(str(x) for x in v) + ")"
    yield "block of the first subspace:"
    for row in d["block1"]:
        yield "  [" + "  ".join(row) + "]"
    yield "block of the second subspace:"
    for row in d["block2"]:
        yield "  [" + "  ".join(row) + "]"
    yield f"note: {d['note']}"
    yield from _timing_text(report)


def cmd_decompose(args):
    matrix, info = _load_input(args)
    perm = Perm.parse(args.perm)
    if len(perm) != matrix.rows:
        raise ModelError(
            f"permutation length {len(perm)} does not match dimension {matrix.rows}"
        )
    if not is_symmetry(matrix, perm):
        raise ModelError(f"{perm} is not a symmetry of the input matrix")
    if perm.order() > 2:
        raise ModelError(f"{perm} is not an involution (order {perm.order()})")
    start = time.perf_counter()
    pair = projectors_from_involution(perm)
    basis1 = column_space_basis(pair.pi1)
    basis2 = column_space_basis(pair.pi2)
    blocks = block_form(matrix, basis1, basis2)
    wall = time.perf_counter() - start
    k = len(basis1)
    n = matrix.rows
    block1 = [[str(blocks[r, c]) for c in range(k)] for r in range(k)]
    block2 = [[str(blocks[k + r, k + c]) for c in range(n - k)] for r in range(n - k)]
    report = {
        "command": "decompose",
        "input": info,
        "decomposition": {
            "involution": list(perm.image),
            "basis1": [list(v) for v in basis1],
            "basis2": [list(v) for v in basis2],
            "block1": block1,
            "block2": block2,
            "note": _NORMALIZATION_NOTE,
        },
        "timing": {"wall_s": wall},
    }
    _emit(report, args, _decompose_text)
    return EXIT_OK


# -- models ----------------------------------------------------------------


def _models_text(report):
    for rec in report["models"]:
        yield f"{rec['name']}  (dimension {rec['dimension']})"
        yield f"  {rec['description']}"
        for name, doc in rec["parameters"]:
            yield f"  parameter {name}: {doc}"


def cmd_models(args):
    report = {
        "command": "models",
        "models": [
            {
                "name": spec.name,
                "dimension": spec.dimension,
                "description": spec.description,
                "parameters": [list(p) for p in spec.parameters],
            }
            for spec in list_models()
        ],
    }
    _emit(report, args, _models_text)
    return EXIT_OK


# -- argument parsing --------------------------------------------------------


def _add_input_flags(sub):
    sub.add_argument("--model", help="catalog model name (see the models command)")
    sub.add_argument(
        "--param",
        action="append",
        metavar="NAME=EXPR",
        help="bind a model parameter (repeatable); values are expressions",
    )
    sub.add_argument("--input", help="matrix file path")
    sub.add_argument("--format", choices=("text", "json"), default="text")


def _add_search_flags(sub):
    sub.add_argument("--mode", choices=("leaf", "pruned"), default="pruned",
                     help="leaf tests full permutations only; pruned rejects "
                          "inconsistent partial assignments early")
    sub.add_argument("--max-results", type=int, metavar="N")
    sub.add_argument("--node-budget", type=int, metavar="N")
    sub.add_argument("--jobs", type=int, default=1, metavar="N",
                     help="accepted for compatibility and must be at least 1; every "
                          "search runs serially, so the report gives jobs 1")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="permsym",
        description="enumerate and analyze permutation symmetries P^T H P = H "
                    "of exact parametric matrices (all indices 0-based)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_find = sub.add_parser("find", help="enumerate all permutation symmetries")
    _add_input_flags(p_find)
    _add_search_flags(p_find)
    p_find.add_argument("--count-only", action="store_true")
    p_find.set_defaults(func=cmd_find)

    p_group = sub.add_parser("group", help="analyze the symmetry group")
    _add_input_flags(p_group)
    _add_search_flags(p_group)
    p_group.set_defaults(func=cmd_group)

    p_dec = sub.add_parser("decompose", help="invariant subspaces of an involution")
    _add_input_flags(p_dec)
    p_dec.add_argument("--perm", required=True, metavar="J0,J1,...",
                       help="involutive symmetry as a 0-based image array")
    p_dec.set_defaults(func=cmd_decompose)

    p_models = sub.add_parser("models", help="list catalog models")
    p_models.add_argument("--format", choices=("text", "json"), default="text")
    p_models.set_defaults(func=cmd_models)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, MatrixFileError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ModelError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
