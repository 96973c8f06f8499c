"""The benchmark harness in ``bench/`` looks permsym's names up by string and
at call time, so a renamed or deleted function would only show when the
benchmark runs.  These tests import it from the repository root instead."""

import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench import spans, workloads  # noqa: E402
import permsym  # noqa: E402
from permsym import cli  # noqa: E402


def test_every_traced_name_resolves():
    targets = spans._targets()
    assert targets
    for module, attr, _, _ in targets:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def test_api_requests_run_on_a_small_chain():
    params = {"L": 4, "a": "a", "b": "b"}
    code, report = workloads.api_find(SimpleNamespace(params=params), workloads.CHAIN_OPS)
    assert code == 0 and report["search"]["count"] == 16
    flip = dict(workloads.chain_involutions(4))["spin flip"]
    req = SimpleNamespace(params={**params, "involution": list(flip.image)})
    code, report = workloads.api_decompose(req, workloads.CHAIN_OPS)
    _, basis1, basis2 = workloads.involution_blocks(flip.image)
    assert code == 0
    assert report["decomposition"]["basis1"] == basis1
    assert report["decomposition"]["basis2"] == basis2


def test_chain_build_shares_one_scalar_per_value():
    # is_symmetry compares shared entries by identity, so the spin-chain
    # timings rest on the build handing out one object per distinct value
    h = workloads.build_chain(4, "a", "b", workloads.CHAIN_OPS)
    g = permsym.build("ising4")
    assert h == g
    for m in (h, g):
        entries = [x for row in m._r for x in row.values()]
        assert len(set(map(id, entries))) == len(set(entries)) == 3


def test_traced_group_request_fills_the_group_layer():
    tracer = spans.Tracer()
    tracer.install()
    try:
        with tracer.span("cli.main"):
            assert cli.main(["group", "--model", "ising4", "--format", "json"]) == 0
    finally:
        tracer.uninstall()
    metrics, _ = spans.pass_metrics(tracer.spans, None)
    assert metrics["groups.order"] == 16
    assert metrics["groups.closure_s"] > 0
    assert metrics["groups.classes_s"] > 0


def test_traced_decompose_request_fills_the_decompose_layer():
    tracer = spans.Tracer()
    tracer.install()
    try:
        flip = dict(workloads.chain_involutions(4))["spin flip"]
        params = {"L": 4, "a": "a", "b": "b", "involution": list(flip.image)}
        with tracer.span("api.request"):
            code, report = workloads.api_decompose(
                SimpleNamespace(params=params), tracer.chain_ops(workloads.CHAIN_OPS))
    finally:
        tracer.uninstall()
    assert code == 0
    _, basis1, basis2 = workloads.involution_blocks(flip.image)
    assert report["decomposition"]["basis1"] == basis1
    assert report["decomposition"]["basis2"] == basis2
    metrics, _ = spans.pass_metrics(tracer.spans, None)
    assert metrics["decompose.dim"] == 16
    assert metrics["decompose.projectors_s"] > 0
    assert metrics["decompose.basis_s"] > 0
    assert metrics["decompose.block_form_s"] > 0
    # both bases are spans of their own, and block_form is one more
    names = [rec[0] for rec in tracer.spans]
    assert names.count("decompose.basis") == 2 and names.count("decompose.block_form") == 1
