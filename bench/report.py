#!/usr/bin/env python3
"""Run every workload, untraced and traced, and print every metric with its unit.

    python3 bench/report.py --seeds 0 --seconds 40
    python3 bench/report.py --seeds 0-9 0-9 --seconds 40 --json bench/baseline.json

Each (workload, seed, trace) run is its own ``bench/run.py`` process.  Each
argument of ``--seeds`` is one set of runs.  With more than one seed in a set
the summary gives, per workload and metric, the median over the set's seeds
and the spread: the distance between the first and third quartile as a share
of the median.  With more than one set it also gives each later set's median
of every bounded end-to-end metric as a share of the first set's, against the
bound in BENCHMARK.json, and whether ``search.nodes`` repeated exactly for a
seed run in more than one set.  ``--json`` writes all of it, together with
the environment, the metric catalogue and the comparison with the single-run
baseline table of ROADMAP.md, which is what ``bench/baseline.json`` holds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

# (row, workload, request id, spans summed, ROADMAP seconds)
ROADMAP_ROWS = [
    ("ising6 build", "spin-chain", "find ising6", ["models.build"], 0.10),
    ("ising6 search", "spin-chain", "find ising6", ["search.find"], 0.016),
    ("ising7 build", "spin-chain", "find ising7", ["models.build"], 0.68),
    ("ising7 search", "spin-chain", "find ising7", ["search.find"], 0.089),
    ("ising8 build", "spin-chain", "find ising8", ["models.build"], 5.6),
    ("ising8 search", "spin-chain", "find ising8", ["search.find"], 0.54),
    ("ising7 decompose", "spin-chain", "decompose ising7",
     ["decompose.projectors", "decompose.basis", "decompose.block_form"], 2.6),
    ("K9 --count-only search", "search-files", "find k9 count-only", ["search.find"], 0.59),
    ("K6 verify_closure", "group-analysis", "group k6", ["groups.closure"], 0.80),
    ("K6 generating_set", "group-analysis", "group k6", ["groups.generators"], 0.78),
]


def seed_list(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run(workload, seed, seconds, trace):
    """One run.py process; its printed table goes to our stdout."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True)
    sys.stdout.write("".join(proc.stdout.splitlines(keepends=True)[:-1]))
    sys.stdout.flush()
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}")
    path = HERE / "out" / f"result-{workload}-seed{seed}-trace{trace}.json"
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _manifest(workload, seed):
    with open(HERE / "work" / f"{workload}-seed{seed}" / "manifest.json", encoding="utf-8") as fh:
        return json.load(fh)["requests"]


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def summarize(results, workloads, units):
    """Per workload and metric: median over seeds, the values, and the spread."""
    summary = {}
    for w in workloads:
        summary[w] = {}
        print(w)
        for t in (0, 1):
            for name in results[w][t][0]["metrics"]:
                values = [r["metrics"][name]["value"] for r in results[w][t]]
                entry = {"unit": units[name], "median": statistics.median(values),
                         "values": values}
                if len(values) >= 2:
                    entry["spread"] = spread(values)
                summary[w][name] = entry
                shown = f"  ({entry['spread']:.3f})" if "spread" in entry else ""
                print(f"  {name:<28} {entry['median']:>14.6g} {entry['unit']:<6}{shown}")
        runs = results[w][0] + results[w][1]
        correct = all(r["correct"] for r in runs)
        print(f"  failed requests {sum(r['failed'] for r in runs)}, all runs correct: {correct}")
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", nargs="+", default=["0"],
                        help="one set of seeds per argument: a seed or a range such as 0-9")
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--json", help="write every result and the summary here")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE))
    import metrics

    spec_path = HERE.parent / "BENCHMARK.json"
    with open(spec_path, encoding="utf-8") as fh:
        workloads = [w["name"] for w in json.load(fh)["workloads"]]
    end_to_end, per_layer = metrics.contract(spec_path)
    units = metrics.units(end_to_end, per_layer)
    sets = []
    for text in args.seeds:
        seeds = seed_list(text)
        results = {w: {t: [run(w, s, args.seconds, t) for s in seeds] for t in (0, 1)}
                   for w in workloads}
        print(f"\nsummary over seeds {text}: median (spread = IQR / median)")
        sets.append({"seeds": seeds, "results": results,
                     "summary": summarize(results, workloads, units)})

    agreement = []
    if len(sets) > 1:
        print("\nagreement: median of each later set over the first set's median")
        for w in workloads:
            for m in end_to_end:
                first = sets[0]["summary"][w][m["name"]]["median"]
                ratios = [s["summary"][w][m["name"]]["median"] / first for s in sets[1:]]
                worse = max(r - 1 if m["better"] == "lower" else 1 - r for r in ratios)
                agreement.append({"workload": w, "metric": m["name"], "ratios": ratios,
                                  "bound": m["bound"], "within_bound": worse <= m["bound"]})
                print(f"  {w:<16} {m['name']:<14} "
                      + " ".join(f"x{r:.3f}" for r in ratios)
                      + f"  bound {m['bound']}  {'ok' if worse <= m['bound'] else 'WORSE'}")
    repeats = {}
    for w in workloads:
        for seed in sets[0]["seeds"]:
            nodes = [st["results"][w][1][st["seeds"].index(seed)]["metrics"]["search.nodes"]
                     ["value"] for st in sets if seed in st["seeds"]]
            if len(nodes) > 1:
                repeats.setdefault(w, []).append(len(set(nodes)) == 1)
    repeats = {w: all(r) for w, r in repeats.items()}
    if repeats:
        print("search.nodes repeated exactly for every seed run again: "
              + ", ".join(f"{w} {r}" for w, r in repeats.items()))

    first = sets[0]["results"]
    print("\nROADMAP baseline rows against the traced runs (median over the first set)")
    roadmap = []
    for label, w, rid, names, then in ROADMAP_ROWS:
        now = statistics.median(
            sum(r["per_request_s"][rid].get(n, 0.0) for n in names) for r in first[w][1]
        )
        roadmap.append({"row": label, "roadmap_s": then, "measured_s": now, "ratio": now / then})
        print(f"  {label:<24} ROADMAP {then:>7.3f} s   measured {now:>7.3f} s   "
              f"x{now / then:.2f}")

    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump({
                "environment": {"python": platform.python_version(), "nproc": os.cpu_count()},
                "seconds": args.seconds,
                "metrics": {
                    "end_to_end": {m["name"]: {**m, "meaning": metrics.MEANING[m["name"]]}
                                   for m in end_to_end},
                    "reported_only": {n: {"unit": u, "better": "lower",
                                          "meaning": metrics.MEANING[n]}
                                      for n, u in metrics.EXTRA_UNITS.items()},
                    "per_layer": {m["name"]: {**m, "moves": metrics.MEANING[m["name"]]}
                                  for m in per_layer},
                },
                "workloads": {w: _manifest(w, sets[0]["seeds"][0]) for w in workloads},
                "sets": [{"seeds": s["seeds"], "summary": s["summary"]} for s in sets],
                "agreement": agreement,
                "search_nodes_repeat": repeats,
                "roadmap": roadmap,
            }, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
