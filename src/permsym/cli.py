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
import sys
import time
from functools import cache
from itertools import chain
from json.encoder import JSONEncoder, encode_basestring_ascii
from operator import itemgetter

from .matrices import ExactMatrix
from .models import CATALOG, ModelError, build, list_models
from .perms import Perm, _index, cycle_summary
from .scalars import ZERO, ParseError, parse
from .search import (
    MODE_LEAF_CHECK,
    MODE_PRUNED,
    SearchConfig,
    find_symmetries,
    first_non_symmetry,
    is_symmetry,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_BUDGET = 4

# The largest dimension leaf-check runs without --node-budget: 8! = 40,320
# leaves.  Past it the leaves grow as n! (16! for ising4), so a plain call
# would not end.
LEAF_MAX_UNBUDGETED = 8

_NORMALIZATION_NOTE = (
    "basis vectors are primitive integer vectors; unit-norm versions differ "
    "by irrational factors such as 1/sqrt(2) and are not representable exactly"
)


class MatrixFileError(ValueError):
    pass


def _flag_int(text):
    """argparse type of the integer flags: an optional '-', then ASCII digits."""
    try:
        value = _index(text.removeprefix("-"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    return -value if text.startswith("-") else value


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
    try:
        rows, cols = map(_index, header.split())
    except ValueError:
        raise MatrixFileError(f"{path}:{header_no}: header must be 'rows cols'") from None
    if rows < 1 or cols < 1:
        raise MatrixFileError(f"{path}:{header_no}: dimensions must be positive")
    body = lines[1:]
    if len(body) != rows:
        raise MatrixFileError(
            f"{path}: expected {rows} entry rows after the header, found {len(body)}"
        )
    # each distinct token is parsed once and each distinct value kept once,
    # so equal entries share one scalar; a zero-valued token maps to ZERO,
    # which no row dict holds
    parsed, values, row_dicts = {}, {}, []
    for line_no, line in body:
        tokens = line.split()
        if len(tokens) != cols:
            raise MatrixFileError(f"{path}:{line_no}: expected {cols} entries, "
                                  f"found {len(tokens)}")
        for token in dict.fromkeys(tokens):
            if token not in parsed:
                try:
                    value = parse(token)
                except ParseError as exc:
                    raise MatrixFileError(f"{path}:{line_no}: {token!r}: {exc}") from None
                parsed[token] = values.setdefault(value, value) if value else ZERO
        row = map(parsed.__getitem__, tokens)
        row_dicts.append({c: x for c, x in enumerate(row) if x is not ZERO})
    return ExactMatrix._trusted(rows, cols, tuple(row_dicts))


def _load_input(args):
    """Resolve --model/--param/--input into (matrix, input description,
    seconds taken to build the model or read the file)."""
    start = time.perf_counter()
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
        described = {name: str(bindings.get(name, parse(name))) for name in spec.parameter_names()}
        info = {"kind": "model", "name": args.model, "dimension": spec.dimension,
                "parameters": described}
    elif args.param:
        raise ModelError("--param applies to --model inputs only")
    else:
        matrix = read_matrix_file(args.input)
        info = {"kind": "file", "path": args.input, "dimension": matrix.rows}
    return matrix, info, time.perf_counter() - start


def _perm_records(perms):
    """One report record per permutation, holding its image tuple."""
    summaries = map(cycle_summary, (p.image for p in perms))
    return [{"image": p.image, "cycles": c, "order": o} for p, (c, o) in zip(perms, summaries)]


def _searched(args):
    """Load the input, search it and re-verify every listed symmetry against
    it: (result, config, report), the report holding the command, the input,
    the search and the timings so far."""
    matrix, info, load = _load_input(args)
    cfg = SearchConfig(
        mode=MODE_LEAF_CHECK if args.mode == "leaf" else MODE_PRUNED,
        max_results=args.max_results,
        node_budget=args.node_budget,
        count_only=getattr(args, "count_only", False),
    )
    if args.jobs < 1:
        raise ValueError("jobs must be positive")
    if (cfg.mode == MODE_LEAF_CHECK and cfg.node_budget is None
            and matrix.is_square() and matrix.rows > LEAF_MAX_UNBUDGETED):
        raise ValueError(
            f"--mode leaf tries all {matrix.rows}! orderings of dimension {matrix.rows}; "
            f"give --node-budget above dimension {LEAF_MAX_UNBUDGETED}"
        )
    start = time.perf_counter()
    result = find_symmetries(matrix, cfg)
    wall = time.perf_counter() - start
    if not matrix.is_hermitian():
        print("warning: input matrix is not hermitian", file=sys.stderr)
    start = time.perf_counter()
    bad = first_non_symmetry(matrix, result.perms)
    verify = time.perf_counter() - start
    if bad is not None:
        raise AssertionError(f"internal error: emitted non-symmetry {bad}")
    report = {
        "command": args.command,
        "input": info,
        "search": {
            "mode": cfg.mode,
            "jobs": 1,  # workers used: every search runs serially
            "count_only": cfg.count_only,
            "max_results": cfg.max_results,
            "node_budget": cfg.node_budget,
            "nodes_visited": result.nodes_visited,
            "exhausted": result.exhausted,
            "count": result.count,
        },
        "timing": {"wall_s": wall, "load_s": load, "verify_s": verify},
    }
    return result, cfg, report


# -- JSON rendering --------------------------------------------------------
#
# ``render_json`` gives the bytes that the stdlib's ``json.dumps`` gives with
# ``indent=2`` and ``sort_keys=True``.  With an indent the stdlib falls back
# to its pure-Python encoder; here the layout of dicts and lists is done in
# Python, a column of values at a time, and the scalars go to the C encoder.
#
# - A column of dicts that share one key set, such as the symmetry records,
#   is rendered key by key: one column of values per key, then one
#   ``%``-template, built once, fills in every record.
# - A column of strs or of ints maps over it the C function that the C
#   encoder applies to each; any other scalar goes through the encoder.
# - A column of flat lists (a dict's list value is a column of one) takes one
#   of two layouts, and each is the faster one on some reports:
#   - int lists averaging over 4 items, with under a quarter as many distinct
#     values as items (images), join one ``int.__repr__`` text per value;
#   - any other column, such as a group's all-distinct classes and element
#     orders, is one call of a no-indent encoder whose item separator is
#     ``",\n"`` and the items' indent.  In its output ``"],\n" + indent + "["``
#     only occurs between two lists, since an encoded string holds no raw
#     newline, so a split on it gives each list's items.

_SCALAR_TYPES = frozenset((str, int, float, bool, type(None)))
_SCALAR_ENCODERS = {str: encode_basestring_ascii, int: int.__repr__}
_encode = JSONEncoder().encode


def _scalar(x):
    return _SCALAR_ENCODERS.get(type(x), _encode)(x)


def _column(values, depth):
    """Each of ``values`` rendered as it is laid out at ``depth``."""
    types = set(map(type, values))
    if types <= _SCALAR_TYPES:
        encode = _SCALAR_ENCODERS.get(types.pop()) if len(types) == 1 else None
        return list(map(encode or _scalar, values))
    flat = chain.from_iterable
    if types <= {list, tuple} and (kinds := set(map(type, flat(values)))) <= _SCALAR_TYPES:
        nl = "\n" + "  " * depth
        inner = nl + "  "
        size = sum(map(len, values))
        distinct = set(flat(values)) if kinds == {int} and size > 4 * len(values) else ()
        if 0 < 4 * len(distinct) < size:
            rendered = dict(zip(distinct, map(int.__repr__, distinct))).__getitem__
            items = [("," + inner).join(map(rendered, v)) for v in values]
        else:
            encode = JSONEncoder(separators=("," + inner, ": ")).encode
            items = encode(values)[2:-2].split("]," + inner + "[")
        return ["[" + inner + text + nl + "]" if text else "[]" for text in items]
    if types == {dict} and values[0]:
        shape = values[0].keys()
        if all(map(shape.__eq__, map(dict.keys, values))):
            return _records(values, sorted(shape), depth)
    return [_render(v, depth) for v in values]


def _records(dicts, keys, depth):
    """Dicts that all have these sorted keys, rendered at ``depth``."""
    nl = "\n" + "  " * depth
    inner = nl + "  "
    template = "{" + inner + ("," + inner).join(
        encode_basestring_ascii(k).replace("%", "%%") + ": %s" for k in keys
    ) + nl + "}"
    columns = [_column(list(map(itemgetter(k), dicts)), depth + 1) for k in keys]
    return list(map(template.__mod__, zip(*columns)))


def _render(value, depth):
    if isinstance(value, dict):
        return _records([value], sorted(value), depth)[0] if value else "{}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        nl = "\n" + "  " * depth
        inner = nl + "  "
        return "[" + inner + ("," + inner).join(_column(value, depth + 1)) + nl + "]"
    return _scalar(value)


def render_json(value):
    """``value`` as ``json.dumps`` lays it out with ``indent=2`` and
    ``sort_keys=True``, byte for byte; every dict key must be a str."""
    return _render(value, 0)


def _emit(report, args, text_renderer):
    if args.format == "json":
        print(render_json(report))
        return
    for line in text_renderer(report):
        print(line)
    if "timing" in report:
        print(f"wall time: {report['timing']['wall_s']:.6f} s")


# -- find ----------------------------------------------------------------


def _find_text(report):
    yield from _input_text(report["input"])
    yield from _search_text(report["search"])
    if "symmetries" in report:
        yield f"symmetries found: {report['search']['count']}"
        yield from _symmetry_text(report["symmetries"])
    else:
        yield f"symmetry count: {report['search']['count']}"
    if "note" in report:
        yield f"note: {report['note']}"


def _symmetry_text(records):
    for rec in records:
        image = ",".join(map(str, rec["image"]))
        yield f"  {image}   cycles {rec['cycles']}   order {rec['order']}"


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


def cmd_find(args):
    result, cfg, report = _searched(args)
    start = time.perf_counter()
    if not args.count_only:
        report["symmetries"] = _perm_records(result.perms)
        if result.exhausted and result.count == 1:
            report["note"] = "only the identity permutation is a symmetry"
    report["timing"]["records_s"] = time.perf_counter() - start
    _emit(report, args, _find_text)
    stopped = not result.exhausted and cfg.node_budget is not None
    return EXIT_BUDGET if stopped and result.nodes_visited >= cfg.node_budget else EXIT_OK


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
    yield from _symmetry_text(report["symmetries"])


def cmd_group(args):
    from . import groups
    result, _, report = _searched(args)
    if not result.exhausted:
        print("search stopped before exhausting the tree; group analysis needs "
              "the complete symmetry set", file=sys.stderr)
        return EXIT_BUDGET
    group = groups.verify_closure(result.perms)
    gens = groups.generating_set(group)
    # each element's cycles are walked once, for its record; the element
    # orders and the involution count are read off the records
    start = time.perf_counter()
    report["symmetries"] = records = _perm_records(group.elements)
    report["timing"]["records_s"] = time.perf_counter() - start
    report["group"] = {
        "order": group.order,
        "commutative": groups.is_commutative(group),
        "element_orders": [[k, rec["order"]] for k, rec in enumerate(records)],
        "involution_count": sum(rec["order"] == 2 for rec in records),
        "conjugacy_classes": [list(c) for c in groups.conjugacy_classes(group)],
        "generators": [p.image for p in gens],
    }
    _emit(report, args, _group_text)
    return EXIT_OK


# -- decompose -------------------------------------------------------------


def _decompose_text(report):
    yield from _input_text(report["input"])
    d = report["decomposition"]
    yield f"involution: {','.join(str(j) for j in d['involution'])}"
    layouts = (("basis", "basis of the {} invariant subspace:", "  ({})", ", "),
               ("block", "block of the {} subspace:", "  [{}]", "  "))
    for key, title, line, sep in layouts:
        for k, which in ((1, "first"), (2, "second")):
            yield title.format(which)
            yield from (line.format(sep.join(map(str, v))) for v in d[f"{key}{k}"])
    yield f"note: {d['note']}"


def cmd_decompose(args):
    from .decompose import block_form, column_space_basis, projectors_from_involution
    matrix, info, load = _load_input(args)
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
    k, n = len(basis1), matrix.rows
    # block diagonal: row r < k has its non-zeros in columns < k; one shared "0"
    texts = [["0"] * (k if r < k else n - k) for r in range(n)]
    for r, row in enumerate(blocks._r):
        for c, x in row.items():
            texts[r][c if r < k else c - k] = str(x)
    report = {
        "command": "decompose",
        "input": info,
        "decomposition": {
            "involution": list(perm.image),
            "basis1": [list(v) for v in basis1],
            "basis2": [list(v) for v in basis2],
            "block1": texts[:k],
            "block2": texts[k:],
            "note": _NORMALIZATION_NOTE,
        },
        "timing": {"wall_s": wall, "load_s": load},
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
    sub.add_argument("--max-results", type=_flag_int, metavar="N")
    sub.add_argument("--node-budget", type=_flag_int, metavar="N")
    sub.add_argument("--jobs", type=_flag_int, default=1, metavar="N",
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


_main_parser = cache(build_parser)


def main(argv=None):
    args = _main_parser().parse_args(argv)
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
