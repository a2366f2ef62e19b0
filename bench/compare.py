"""Repeated benchmark runs: seed spreads, baselines, parent-vs-change pairs.

    python3 bench/compare.py seeds [--seeds 10] [--trace 0|1] [--json FILE]
    python3 bench/compare.py pairs --parent DIR --change DIR

Both run every workload in BENCHMARK.json.  ``seeds`` runs bench/run.py
in this checkout once per seed (1..N) and workload and prints, per
metric, the median, the quartiles and the spread (q3 - q1) / median.
With --json it stores those figures, the per-run values and the
provenance under the key "trace0" or "trace1" of FILE, keeping the
other key; bench/baseline.json was made this way.

``pairs`` compares two checkouts that carry identical bench/ files, in
ten pairs.  Pair i uses seed i and runs the parent first when i is odd
and the change first when i is even.  Per workload and end-to-end
metric it prints both sides' medians and quartiles, the change's wins,
and a verdict by the rules in bench/README.md.  A run whose result line says
correct: false counts as a failed run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
PAIRS = 10


def run_once(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    cmd = [*SPEC["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: {workload} seed {seed} failed:\n"
                         f"{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    prov = next((json.loads(line[len("provenance "):]) for line in lines
                 if line.startswith("provenance ")), None)
    result = json.loads(lines[-1])
    result["provenance"] = prov
    if not result["correct"]:
        print(f"{checkout}: {workload} seed {seed} ran but is not correct:\n"
              f"{proc.stderr}", file=sys.stderr)
    return result


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
        else (values[0], None, values[0])
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else 0.0}


def _bench_digest(checkout: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((checkout / "bench").rglob("*.py")):
        h.update(path.relative_to(checkout).as_posix().encode())
        h.update(path.read_bytes())
    h.update((checkout / "BENCHMARK.json").read_bytes())
    return h.hexdigest()


def cmd_seeds(opts) -> int:
    metrics_spec = SPEC["end_to_end"] if opts.trace == 0 else SPEC["per_layer"]
    out = {"run_seconds": SPEC["run_seconds"], "seeds": opts.seeds,
           "trace": opts.trace, "workloads": {}}
    for workload in WORKLOADS:
        runs = [run_once(ROOT, workload, s, opts.trace)
                for s in range(1, opts.seeds + 1)]
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        entry = {"attempted": attempted, "failed": failed,
                 "error_rate": failed / attempted,
                 "all_correct": all(r["correct"] for r in runs),
                 "provenance": runs[0]["provenance"], "metrics": {}}
        print(f"{workload}: {len(runs)} runs, error_rate "
              f"{failed / attempted:.4g}, all correct {entry['all_correct']}")
        for m in metrics_spec:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            s = summary(values)
            entry["metrics"][m["name"]] = {**s, "unit": m["unit"],
                                           "values": values}
            bound = m.get("bound")
            flag = "" if bound is None or s["spread"] < bound / 3 \
                else "  <-- spread not below a third of the bound"
            print(f"  {m['name']:24s} median {s['median']:<12.6g} "
                  f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} "
                  f"spread {s['spread']:.4f}"
                  + ("" if bound is None else f" (bound {bound})") + flag)
        out["workloads"][workload] = entry
    if opts.trace == 0:
        out["bounds"] = {
            m["name"]: {"bound": m["bound"], "max_spread": max(
                w["metrics"][m["name"]]["spread"]
                for w in out["workloads"].values())}
            for m in metrics_spec}
    if opts.json:
        path = Path(opts.json)
        doc = json.loads(path.read_text(encoding="utf-8")) \
            if path.exists() else {}
        doc[f"trace{opts.trace}"] = out
        path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


def cmd_pairs(opts) -> int:
    parent, change = Path(opts.parent).resolve(), Path(opts.change).resolve()
    if _bench_digest(parent) != _bench_digest(change):
        raise SystemExit("bench/ or BENCHMARK.json differ between the "
                         "checkouts; copy the same benchmark into both")
    for workload in WORKLOADS:
        sides = {"parent": [], "change": []}
        for i in range(1, PAIRS + 1):
            order = ("parent", "change") if i % 2 else ("change", "parent")
            for side in order:
                checkout = parent if side == "parent" else change
                sides[side].append(run_once(checkout, workload, i, 0))
        failed = {s: sum(not r["correct"] for r in runs)
                  for s, runs in sides.items()}
        print(f"{workload}: {PAIRS} pairs; failed runs: parent "
              f"{failed['parent']}, change {failed['change']}")
        for m in SPEC["end_to_end"]:
            name, bound = m["name"], m["bound"]
            sign = 1.0 if m["better"] == "higher" else -1.0
            p = [r["metrics"][name]["value"] for r in sides["parent"]]
            c = [r["metrics"][name]["value"] for r in sides["change"]]
            wins = sum(sign * (cv - pv) > 0 for pv, cv in zip(p, c))
            ps, cs = summary(p), summary(c)
            worse = sign * (ps["median"] - cs["median"]) / ps["median"]
            every = all(sign * (cv - pv) > 0 for cv in c for pv in p)
            apart = sign * (cs["median"] - ps["median"]) > ps["q3"] - ps["q1"]
            if wins >= 0.9 * len(p) and apart \
                    and failed["change"] <= failed["parent"]:
                verdict = "gain"
            elif worse > bound:
                verdict = "regression"
            elif ps["spread"] > bound and not every:
                verdict = "unresolved"
            else:
                verdict = "no regression"
            print(f"  {name:14s} parent {ps['median']:<11.5g} "
                  f"[{ps['q1']:.5g}, {ps['q3']:.5g}]  change "
                  f"{cs['median']:<11.5g} [{cs['q1']:.5g}, {cs['q3']:.5g}]  "
                  f"wins {wins}/{len(p)}  {verdict}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    seeds = sub.add_parser("seeds")
    seeds.add_argument("--seeds", type=int, default=10)
    seeds.add_argument("--trace", type=int, choices=(0, 1), default=0)
    seeds.add_argument("--json", default=None)
    pairs = sub.add_parser("pairs")
    pairs.add_argument("--parent", required=True)
    pairs.add_argument("--change", required=True)
    opts = parser.parse_args(argv)
    return cmd_seeds(opts) if opts.cmd == "seeds" else cmd_pairs(opts)


if __name__ == "__main__":
    sys.exit(main())
