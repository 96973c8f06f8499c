"""What each metric of the benchmark means, and the units BENCHMARK.json lacks.

``BENCHMARK.json`` gives the name, unit and direction of every metric the
result line carries: end-to-end metrics with a regression bound, and
per-layer metrics from the traced run.  The four in ``EXTRA_UNITS`` are
printed and written to the result file only, all lower is better:
``find_s``, ``group_s`` and ``decompose_s`` are zero on workloads without
such requests, and ``failed_ops`` is zero when the program is correct, so
none of them can carry a bound relative to the parent's median.
"""

import json

EXTRA_UNITS = {"find_s": "s", "group_s": "s", "decompose_s": "s", "failed_ops": "ratio"}

MEANING = {
    # end-to-end: what the user sees
    "setup_s": "cold start of `python -m permsym.cli models --format json`, "
               "median of sequential launches spread over the run",
    "wall_s": "one whole timed pass of the workload, tracing off",
    "find_s": "sum over the pass's find requests",
    "group_s": "sum over the pass's group requests",
    "decompose_s": "sum over the pass's decompose requests",
    "peak_rss_mb": "peak resident set of the workload process",
    "failed_ops": "requests that exited non-zero, raised or failed a check, over attempted",
    # per-layer: the end-to-end metric each should move, and on which workload
    "scalars.parse_s": "find_s on search-files, group_s on group-analysis (little)",
    "scalars.entries": "input size parsed; fixed by the workload",
    "scalars.parse_us_per_entry": "guards parser hardening; find_s on search-files",
    "models.build_s": "find_s, decompose_s and wall_s on spin-chain",
    "matrices.kron_s": "find_s, decompose_s and wall_s on spin-chain",
    "matrices.matmul_s": "find_s, decompose_s and wall_s on spin-chain",
    "matrices.add_s": "find_s, decompose_s and wall_s on spin-chain",
    "matrices.matmul_calls": "spin-chain build work; absent elsewhere",
    "search.find_s": "find_s on search-files most; spin-chain and group-analysis a little",
    "search.nodes": "algorithmic search work; repeats exactly",
    "search.ns_per_node": "constant-factor search cost; find_s on search-files",
    "search.symmetries": "symmetries found; fixed by the workload",
    "search.parallel_find_s": "find_s on search-files (the --jobs 2 request)",
    "search.verify_s": "find_s on search-files (Q5), group_s on group-analysis",
    "search.verify_calls": "re-verification work",
    "search.verify_entries": "re-verification work, calls x n^2",
    "groups.closure_s": "group_s on group-analysis; nothing elsewhere",
    "groups.generators_s": "group_s on group-analysis; nothing elsewhere",
    "groups.classes_s": "group_s on group-analysis; nothing elsewhere",
    "groups.summary_s": "group_s on group-analysis; nothing elsewhere",
    "groups.order": "sum of |G|; fixed by the workload",
    "groups.table_products": "sum of |G|^2, the multiplication-table work",
    "decompose.projectors_s": "decompose_s on spin-chain; nothing elsewhere",
    "decompose.basis_s": "decompose_s on spin-chain; nothing elsewhere",
    "decompose.block_form_s": "decompose_s on spin-chain; nothing elsewhere",
    "decompose.dim": "sum of decomposed dimensions; fixed by the workload",
    "cli.self_s": "find_s on search-files (Q5 renders 3,840 records)",
    "setup.import_s": "setup_s everywhere",
    "trace.overhead_s": "none: traced minus untraced wall_s",
}


def contract(path):
    """The ``end_to_end`` and ``per_layer`` entries of the BENCHMARK.json at ``path``."""
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["end_to_end"], spec["per_layer"]


def units(end_to_end, per_layer):
    """Unit of every metric the benchmark reports, given ``contract``'s lists."""
    return {**EXTRA_UNITS, **{m["name"]: m["unit"] for m in end_to_end + per_layer}}
