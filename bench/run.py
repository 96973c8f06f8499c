#!/usr/bin/env python3
"""Run one workload of the permsym benchmark and print its metrics.

    python3 bench/run.py --workload search-files --seed 0 --seconds 40 --trace 0

Requests run as a closed loop: one client in this process sends one request
at a time, through ``permsym.cli.main(argv)`` with ``--format json`` or
through the Python API.  The inputs are made from ``--seed`` and written
before timing starts.  Whole passes over the workload's requests repeat until
the next one would take the measured time past ``--seconds``; timings are
medians over passes.  An untraced run also times ``SETUP_LAUNCHES`` cold
starts of the CLI, made between passes and spread over the run.  Each report
is checked outside the timed region, and the first pass's reports are also
corrupted on purpose to check the checker.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics from the spans
of ``spans.Tracer``.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``, holding the
metrics ``BENCHMARK.json`` names for the mode.  Every metric, with its sample
count, also goes to ``bench/out/result-<workload>-seed<seed>-trace<t>.json``
and, in a traced run, every span to ``bench/out/spans-<workload>-seed<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import checks
import metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Cold CLI starts per untraced run, spread over the run in proportion to the
# time measured, so that their median samples the whole run and not one burst.
SETUP_LAUNCHES = 30

# permsym comes from this checkout's src; its first import is timed as
# setup.import_s.  Without it the run ends here, with no result line.
sys.path.insert(0, str(ROOT / "src"))
_start = perf_counter()
try:
    import permsym
except ImportError as exc:
    sys.exit(f"error: cannot import permsym from {ROOT / 'src'}: {exc}")
IMPORT_S = perf_counter() - _start
if Path(permsym.__file__).resolve().parent.parent != ROOT / "src":
    sys.exit(f"error: permsym was imported from {permsym.__file__}, not from {ROOT / 'src'}")

import permsym.cli  # noqa: E402  (this and the rest need permsym on the path)
import spans  # noqa: E402
import workloads  # noqa: E402


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def setup_launch():
    """Wall time of one cold CLI start, and its problem or None."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    argv = [sys.executable, "-m", "permsym.cli", "models", "--format", "json"]
    start = perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    wall = perf_counter() - start
    try:
        listed = {m["name"] for m in json.loads(proc.stdout)["models"]}
    except (ValueError, KeyError, TypeError):
        listed = set()
    if proc.returncode != 0 or "ising4" not in listed:
        return wall, f"setup launch: exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
    return wall, None


def execute(req, ops, tracer):
    """Run one request: (exit code, report or raw JSON text, captured stderr)."""
    if req.api is not None:
        with tracer.span("api.request") if tracer else nullcontext():
            code, report = req.api(req, ops)
        return code, report, ""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        with tracer.span("cli.main") if tracer else nullcontext():
            try:
                code = permsym.cli.main(req.argv)
            except SystemExit as exc:
                code = exc.code
    return code, out.getvalue(), err.getvalue()


def run_pass(reqs, ops, tracer):
    """One timed pass: (wall seconds, seconds per request kind, outcomes)."""
    outcomes = []
    kinds = defaultdict(float)
    gc.collect()
    start = perf_counter()
    for req in reqs:
        if tracer:
            tracer.request = req.rid
        t0 = perf_counter()
        try:
            code, payload, err = execute(req, ops, tracer)
        except Exception:
            code, payload, err = None, None, traceback.format_exc()
        kinds[req.kind] += perf_counter() - t0
        outcomes.append((req, code, payload, err))
    return perf_counter() - start, kinds, outcomes


def judge(outcomes, reference, messages):
    """Count the failed requests of one pass.

    ``reference`` collects the first passing report of each request; a later
    report equal to it passes without being checked again.
    """
    reports = {}
    failed = 0
    for req, code, payload, err in outcomes:
        if code != 0:
            failed += 1
            messages.append(f"{req.rid}: exit {code}: {err.strip()[-500:]}")
            continue
        try:
            report = json.loads(payload) if req.argv else payload
            report.pop("timing", None)
        except (ValueError, AttributeError) as exc:
            failed += 1
            messages.append(f"{req.rid}: report is not a JSON object: {exc}")
            continue
        reports[req.rid] = report
    for req, *_ in outcomes:
        report = reports.get(req.rid)
        if report is None or reference.get(req.rid) == report:
            continue
        try:
            problems = checks.check(req, report, reports)
        except (KeyError, TypeError, IndexError, AttributeError) as exc:
            problems = [f"malformed report: {exc!r}"]
        if problems:
            failed += 1
            messages.extend(f"{req.rid}: {p}" for p in problems)
        else:
            reference.setdefault(req.rid, report)
    return failed


def self_test(reqs, reference, messages):
    """Corrupt every passing report: (corruptions rejected, corruptions accepted)."""
    rejected = accepted = 0
    for req in reqs:
        report = reference.get(req.rid)
        if report is None:
            continue
        for label, bad in checks.corruptions(req, report):
            others = dict(reference)
            others[req.rid] = bad
            try:
                problems = checks.check(req, bad, others)
            except (KeyError, TypeError, IndexError, AttributeError) as exc:
                problems = [repr(exc)]
            if problems:
                rejected += 1
            else:
                accepted += 1
                messages.append(f"self-test: checker accepted {req.rid} with {label}")
    return rejected, accepted


def builder_problems():
    """The spin-chain builder must rebuild the catalog ising4, and the entry
    table must describe the built chain."""
    h = workloads.build_chain(4, "a", "b", workloads.CHAIN_OPS)
    problems = []
    if h != permsym.build("ising4"):
        problems.append("build_chain(4) differs from the catalog ising4")
    rows = workloads.ising_rows(4, "a", "b")
    if any(permsym.parse(rows[u][v]) != h[u, v] for u in range(16) for v in range(16)):
        problems.append("ising_rows(4) differs from build_chain(4)")
    return problems


def measure(reqs, tracer, seconds, launches, messages):
    """Timed passes until the next would take the measured time past ``seconds``.

    With a tracer, untraced and traced passes alternate, at least one of each.
    After each pass, cold CLI starts are made until their count keeps pace
    with the share of ``seconds`` used; the last ones follow the last pass.
    Returns the pass walls by whether the pass was traced, the seconds per
    request kind of each untraced pass, the per-layer metrics of each traced
    pass, the launch walls, and the counts (attempted, failed, corruptions
    rejected, accepted).
    """
    plain = workloads.CHAIN_OPS
    traced_ops = tracer.chain_ops(plain) if tracer else None
    walls = {False: [], True: []}
    kind_samples, layer_samples, launch_walls = [], [], []
    reference = {}
    attempted = failed = rejected = accepted = 0

    def measured():
        return sum(walls[False]) + sum(walls[True]) + sum(launch_walls)

    def launch_until(count):
        nonlocal attempted, failed
        while len(launch_walls) < count:
            wall, problem = setup_launch()
            launch_walls.append(wall)
            attempted += 1
            if problem:
                failed += 1
                messages.append(problem)

    i = 0
    while True:
        traced = tracer is not None and i % 2 == 1
        if traced:
            tracer.pass_no = i
            tracer.install()
        try:
            wall, kinds, outcomes = run_pass(reqs, traced_ops if traced else plain,
                                             tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        attempted += len(outcomes)
        failed += judge(outcomes, reference, messages)
        if i == 0:
            rejected, accepted = self_test(reqs, reference, messages)
        walls[traced].append(wall)
        if traced:
            layer_samples.append(spans.pass_metrics(tracer.spans, i))
        else:
            kind_samples.append(kinds)
        i += 1
        launch_until(min(launches, math.ceil(launches * measured() / seconds)))
        estimate = statistics.median(walls[False] + walls[True])
        if (tracer is None or i >= 2) and measured() + estimate > seconds:
            launch_until(launches)
            return (walls, kind_samples, layer_samples, launch_walls,
                    (attempted, failed, rejected, accepted))


def main(argv=None):
    args = parse_args(argv)
    try:
        end_to_end, per_layer = metrics.contract(ROOT / "BENCHMARK.json")
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    names = [m["name"] for m in (per_layer if args.trace else end_to_end)]
    units = metrics.units(end_to_end, per_layer)
    work = HERE / "work" / f"{args.workload}-seed{args.seed}"
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    reqs = workloads.make_requests(args.workload, args.seed, str(work))
    builder = builder_problems()
    messages = list(builder)

    tracer = spans.Tracer() if args.trace else None
    walls, kind_samples, layer_samples, launch_walls, counts = measure(
        reqs, tracer, args.seconds, 0 if args.trace else SETUP_LAUNCHES, messages)
    attempted, failed, rejected, accepted = counts
    passes = len(walls[False]) + len(walls[True])

    values = {}  # name -> (value, samples)
    per_request = None
    if tracer:
        layers = spans.median_metrics([m for m, _ in layer_samples])
        values = {name: (v, len(layer_samples)) for name, v in layers.items()}
        values["setup.import_s"] = (IMPORT_S, 1)
        values["trace.overhead_s"] = (
            statistics.median(walls[True]) - statistics.median(walls[False]),
            min(len(walls[True]), len(walls[False])),
        )
        per_request = spans.median_requests([r for _, r in layer_samples])
        tracer.dump(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        n = len(kind_samples)
        values["setup_s"] = (statistics.median(launch_walls), len(launch_walls))
        values["wall_s"] = (statistics.median(walls[False]), n)
        for kind in ("find", "group", "decompose"):
            values[f"{kind}_s"] = (statistics.median(k[kind] for k in kind_samples), n)
        values["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
        values["failed_ops"] = (failed / attempted, attempted)

    correct = failed == 0 and not builder and accepted == 0 and rejected > 0
    env = {"python": platform.python_version(), "nproc": os.cpu_count()}
    kinds = {r.kind for r in reqs}
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {passes}  python {env['python']}  nproc {env['nproc']}")
    print(f"inputs, known answers and reasons: {work / 'manifest.json'}")
    for name, (value, samples) in values.items():
        absent = name[:-2] if name[:-2] in ("find", "group", "decompose") else None
        note = f"  (no {absent} requests)" if absent and absent not in kinds else ""
        print(f"  {name:<28} {value:>14.6g} {units[name]:<6} n={samples}{note}")
    print(f"  requests attempted {attempted}, failed {failed}; self-test rejected "
          f"{rejected} of {rejected + accepted} corrupted reports")
    for m in messages:
        print(f"  problem: {m}")

    with open(out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump({
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "passes": passes, "environment": env, "correct": correct,
            "attempted": attempted, "failed": failed,
            "pass_walls_s": {"untraced": walls[False], "traced": walls[True]},
            "metrics": {name: {"value": v, "unit": units[name], "samples": s}
                        for name, (v, s) in values.items()},
            "per_request_s": per_request,
        }, fh, indent=1)

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name][0], "unit": units[name]}
                    for name in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
