"""mobidelay benchmark: pinned CLI workloads, timed end to end or traced.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Every repetition runs ``cli.run`` once in a fresh interpreter
(bench/rep.py), started from this one parent process.  All
repetitions of one invocation use the same mobidelay seed, derived from
--seed and the workload name, so their output files must agree byte for
byte.

--trace 0 alternates untraced repetitions at the workload's pinned
worker count with set-up-only interpreters (probes) and reports the
end-to-end metrics.  --trace 1 interleaves untraced repetitions at 2
and 1 workers with traced repetitions at 1 worker (spans inside pool
workers are not collected) and reports the per-layer metrics.  A
repetition fails on a non-zero exit, a failed --check, an exception, a
bounds sandwich miss, outputs that differ from the first repetition,
counts that do not repeat, or work that differs from the pinned trials
and horizon.

The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics.  --smoke shrinks every workload to a
second or two and runs one repetition per kind; it checks that the
metrics are all emitted, and its numbers mean nothing.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import multiprocessing
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import zlib
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"

HARD_LIMIT_S = 165.0  # the whole invocation must end within 180 s
MIN_ROUNDS = {0: 3, 1: 2}


@dataclass(frozen=True)
class Workload:
    subcommand: str
    flags: tuple[tuple[str, str], ...]
    horizon: int | None   # horizon every simulated configuration must use
    workers: int
    check: bool
    smoke: tuple[tuple[str, str], ...]  # flag overrides for --smoke

    def flag_values(self, smoke: bool) -> dict[str, str]:
        values = dict(self.flags)
        if smoke:
            values.update(self.smoke)
        return values

    def argv(self, smoke: bool, seed: int, workers: int, out: Path) -> list[str]:
        argv = [self.subcommand]
        for flag, value in self.flag_values(smoke).items():
            argv += [flag, value]
        argv += ["--seed", str(seed), "--workers", str(workers),
                 "--out", str(out), "--format", "both"]
        return argv + (["--check"] if self.check else [])

    def world_trials(self, smoke: bool) -> int:
        """Trials the block runners must return: pinned trials times the
        simulated configurations (population sizes, times tail exponents
        for dominance).  bounds simulates none; its work is MC samples."""
        if self.subcommand == "bounds":
            return 0
        values = self.flag_values(smoke)
        configs = len(values["--n"].split(","))
        if self.subcommand == "dominance":
            configs *= len(values["--alpha"].split(","))
        return configs * int(values["--trials"])


# Why each workload is here: bench/README.md and BENCHMARK.json.
WORKLOADS = {
    # scalar per-slot pair loop, no flight draws, no wraps
    "meet_iid": Workload(
        "meet",
        (("--model", "iid"), ("--n", "400"), ("--r", "4"),
         ("--trials", "40000")),
        horizon=1000, workers=1, check=True,
        smoke=(("--trials", "2000"),)),
    # heavy-flight pair loop (union walk, periodic search) on the pool
    "dominance_levy": Workload(
        "dominance",
        (("--model", "levy"), ("--alpha", "0.5,2.0"), ("--n", "400"),
         ("--r", "4"), ("--horizon", "60"), ("--trials", "6000")),
        horizon=60, workers=2, check=True,
        smoke=(("--trials", "500"),)),
    # vectorised relay engine: O(n) placement, a disc draw every slot
    "sweep_iid": Workload(
        "sweep",
        (("--model", "iid"), ("--n", "250,500,1000,2000,4000"),
         ("--beta", "0"), ("--horizon", "5000"), ("--trials", "1000")),
        horizon=5000, workers=1, check=True,
        smoke=(("--n", "250,500,1000"),)),
    # large-array vector MC in flight, geometry, analytics; world idle
    "bounds_levy": Workload(
        "bounds",
        (("--model", "levy"), ("--alpha", "1"), ("--n", "10000"),
         ("--r", "4"), ("--trials", "2000000")),
        horizon=None, workers=1, check=False,
        smoke=(("--trials", "200000"),)),  # ~12 expected contacts
}

END_TO_END_UNITS = {"wall_s": "s", "trials_per_s": "1/s", "us_per_slot": "us",
                    "setup_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Rep:
    kind: tuple[str, int]   # (mode, workers); mode "probe" only sets up
    round: int
    setup_s: float | None
    record: dict | None
    error: str | None = None


def mobidelay_seed(workload: str, seed: int) -> int:
    return zlib.crc32(f"{workload}:{seed}".encode())


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


# ---------------------------------------------------------------------------
# child processes


def _spawn(mode: str, argv: list[str], deadline: float,
           spans: Path | None = None):
    """Run bench/rep.py once; returns (setup_s, record, error, stdout)."""
    cmd = [sys.executable, str(BENCH / "rep.py"), "--mode", mode]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    cmd += ["--", *argv]
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        out, err = "", ""
        error = "timed out"
    else:
        error = None
    finally:
        # pool workers share the child's process group; none may outlive it
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        if proc.poll() is None:
            proc.communicate()
    if error is None and proc.returncode != 0:
        tail = err.strip().splitlines()[-1:] or ["no stderr"]
        error = f"exit {proc.returncode}: {tail[0]}"
    if error is not None:
        return None, None, error, out
    record = json.loads(out.strip().splitlines()[-1])
    return record["ready"] - spawned, record, None, out


def _hash_outputs(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())}


def _bounds_samples(out: Path, trials: int) -> tuple[int | None, str | None]:
    """MC samples behind the bounds report, or an error when an estimate
    ran short or p_hat_mc misses the sandwich by more than 3 sigma."""
    doc = json.loads((out / "bounds.json").read_text(encoding="utf-8"))
    est = doc["p_hat_mc"]
    estimates = [est, *(doc["h1_mc"] or {}).values()]
    if len(estimates) != 4 or any(e["trials"] != trials for e in estimates):
        return None, f"expected 4 estimates of {trials} samples each"
    slack = 3.0 * est["stderr"]
    if not (doc["p_hat_lower"] - slack <= est["value"]
            <= doc["p_hat_upper"] + slack):
        return None, (f"p_hat_mc {est['value']} outside "
                      f"[{doc['p_hat_lower']}, {doc['p_hat_upper']}] +- 3 se")
    return sum(e["trials"] for e in estimates), None


def _check(wl: Workload, smoke: bool, rec: dict, stdout: str,
           out: Path) -> str | None:
    if rec["exit"] != 0:
        return f"cli.run returned {rec['exit']}"
    if wl.check and "check: pass" not in stdout:
        return "--check did not pass"
    world = rec["world"]
    if world["trials"] != wl.world_trials(smoke):
        return (f"world ran {world['trials']} trials, pinned "
                f"{wl.world_trials(smoke)}")
    if any(h != wl.horizon for h in world["horizons"]):
        return f"horizons {sorted(set(world['horizons']))}, pinned {wl.horizon}"
    if wl.subcommand == "bounds":
        samples, error = _bounds_samples(
            out, int(wl.flag_values(smoke)["--trials"]))
        if error:
            return error
        rec["mc_samples"] = samples
    return None


def run_reps(wl: Workload, name: str, smoke: bool, seed: int,
             kinds: list[tuple[str, int]], min_rounds: int, seconds: float,
             start: float) -> list[Rep]:
    """Round-robin over kinds until at least min_rounds rounds ran and
    another round would end more than half a round past `seconds` after
    `start`; never starts a round that could cross the hard limit."""
    hard = start + HARD_LIMIT_S
    out = OUT / name / "out"
    reps: list[Rep] = []
    reference: dict | None = None
    rounds = 0
    round_s = 0.0
    while (rounds < min_rounds
           or time.monotonic() + round_s / 2 < start + seconds):
        begun = time.monotonic()
        if begun + round_s > hard:
            break
        for kind in kinds:
            mode, workers = kind
            shutil.rmtree(out, ignore_errors=True)
            out.mkdir(parents=True)
            spans = OUT / name / f"spans-{len(reps)}.json" \
                if mode == "traced" else None
            setup, rec, error, stdout = _spawn(
                mode, wl.argv(smoke, seed, workers, out), hard, spans)
            if mode == "probe":
                reps.append(Rep(kind, rounds, setup, None, error))
                continue
            if error is None:
                error = _check(wl, smoke, rec, stdout, out)
            if error is None:
                seen = {"files": _hash_outputs(out), "world": rec["world"]}
                if reference is None:
                    reference = seen
                elif seen["files"] != reference["files"]:
                    error = "output files differ from the first repetition"
                elif seen["world"] != reference["world"]:
                    error = "world counts differ from the first repetition"
            reps.append(Rep(kind, rounds, setup,
                            rec if error is None else None, error))
        rounds += 1
        round_s = time.monotonic() - begun
    shutil.rmtree(out, ignore_errors=True)
    return reps


# ---------------------------------------------------------------------------
# metrics


def _work(rec: dict) -> tuple[int, int]:
    """(trials or MC samples, slots) of one repetition.  An MC sample of
    bounds simulates exactly one pair-slot, so it counts as a slot."""
    if "mc_samples" in rec:
        return rec["mc_samples"], rec["mc_samples"]
    return rec["world"]["trials"], rec["world"]["slots"]


def end_to_end(ok: list[Rep]) -> dict[str, list[float]]:
    """Per-metric samples; the reported value is each list's median.
    Set-up time is taken from every interpreter, probes included."""
    runs = [r for r in ok if r.record is not None]
    walls = [r.record["wall_s"] for r in runs]
    trials, slots = _work(runs[0].record)
    return {
        "wall_s": walls,
        "trials_per_s": [trials / w for w in walls],
        "us_per_slot": [w * 1e6 / slots for w in walls],
        "setup_s": [r.setup_s for r in ok],
        "peak_rss_mb": [r.record["rss_mb"] for r in runs],
    }


def per_layer(ok: list[Rep]) -> tuple[dict[str, tuple[float, str]], str | None]:
    by_kind: dict[tuple[str, int], list[dict]] = {}
    for r in ok:
        by_kind.setdefault(r.kind, []).append(r.record)
    traced = by_kind[("traced", 1)]
    counts = [(t["trace"]["calls"], t["trace"]["emit_bytes"],
               t["trace"]["draws"]) for t in traced]
    error = None if all(c == counts[0] for c in counts) else \
        "traced counts differ between repetitions"

    def wall(kind):
        return statistics.median([t["wall_s"] for t in by_kind[kind]])

    def self_s(layer):
        return statistics.median([t["trace"]["self_s"][layer] for t in traced])

    # tracing cost: traced minus the untraced 1-worker repetition just
    # before it in the same round, so slow drift of the host cancels
    plain1 = {r.round: r.record["wall_s"] for r in ok if r.kind == ("plain", 1)}
    overheads = [r.record["wall_s"] - plain1[r.round] for r in ok
                 if r.kind == ("traced", 1) and r.round in plain1]
    if not overheads:
        overheads, error = [0.0], "no round has both a traced and an " \
            "untraced 1-worker repetition"

    first = traced[0]
    trace, world = first["trace"], first["world"]
    world_self = self_s("world")
    metrics = {
        "cli.self_s": (self_s("cli"), "s"),
        "experiments.self_s": (self_s("experiments"), "s"),
        "experiments.emit_s": (statistics.median([t["trace"]["emit_s"] for t in traced]),
                               "s"),
        "experiments.emit_bytes": (trace["emit_bytes"], "bytes"),
        "world.self_s": (world_self, "s"),
        "world.us_per_slot": (world_self * 1e6 / world["slots"]
                              if world["slots"] else 0.0, "us"),
        "world.calls": (world["calls"], "count"),
        "world.trials": (world["trials"], "count"),
        "world.slots": (world["slots"], "count"),
        "world.censored": (world["censored"], "count"),
        "world.pool_speedup": (wall(("plain", 1)) / wall(("plain", 2)),
                               "ratio"),
        "geometry.self_s": (self_s("geometry"), "s"),
        "geometry.calls": (trace["calls"]["geometry"], "count"),
        "flight.self_s": (self_s("flight"), "s"),
        "flight.draws": (trace["draws"], "count"),
        "analytics.self_s": (self_s("analytics"), "s"),
        "analytics.calls": (trace["calls"]["analytics"], "count"),
        "trace.overhead_s": (statistics.median(overheads), "s"),
    }
    return metrics, error


# ---------------------------------------------------------------------------
# provenance


def _git_sha() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=True,
                              timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance() -> dict:
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return "missing"

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_sha": _git_sha(),
        "mp_start_method": multiprocessing.get_context().get_start_method(),
    }


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="mobidelay benchmark; see bench/README.md")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, one repetition per kind")
    opts = parser.parse_args(argv)

    start = time.monotonic()
    wl = WORKLOADS[opts.workload]
    seed = mobidelay_seed(opts.workload, opts.seed)
    OUT.mkdir(exist_ok=True)

    # a set-up-only interpreter first, which fails fast on a bad checkout
    setup, _, error, _ = _spawn(
        "probe", wl.argv(opts.smoke, seed, wl.workers, OUT / opts.workload),
        start + HARD_LIMIT_S)
    if error is not None:
        print(f"error: cannot set up mobidelay: {error}", file=sys.stderr)
        return 1

    if opts.trace == 0:
        kinds = [("plain", wl.workers), ("probe", wl.workers)]
    else:
        # plain 1 right before traced 1, for the within-round overhead
        kinds = [("plain", 2), ("plain", 1), ("traced", 1)]
    min_rounds = 1 if opts.smoke else MIN_ROUNDS[opts.trace]
    reps = [Rep(("probe", wl.workers), -1, setup, None)]
    reps += run_reps(wl, opts.workload, opts.smoke, seed, kinds, min_rounds,
                     opts.seconds, start)
    ok = [r for r in reps if r.error is None]
    for r in reps:
        if r.error is not None:
            print(f"failed repetition {r.kind}: {r.error}", file=sys.stderr)
    if not set(kinds) <= {r.kind for r in ok}:
        print("error: no successful repetition of some kind", file=sys.stderr)
        return 1

    # error_rate counts runs of cli.run; a probe that fails makes the
    # result incorrect without being an attempted run
    runs = [r for r in reps if r.kind[0] != "probe"]
    failed = sum(r.error is not None for r in runs)
    correct = len(ok) == len(reps)
    if opts.trace == 0:
        samples = end_to_end(ok)
        metrics = {k: (statistics.median(v), END_TO_END_UNITS[k])
                   for k, v in samples.items()}
    else:
        samples = {}
        metrics, error = per_layer(ok)
        if error is not None:
            print(f"error: {error}", file=sys.stderr)
            correct = False

    prov = provenance()
    print(f"workload {opts.workload} seed {opts.seed} (mobidelay --seed "
          f"{seed}) trace {opts.trace}: {len(runs)} repetitions and "
          f"{len(reps) - len(runs)} probes, {failed} failed, "
          f"error_rate {failed / len(runs):.4g}")
    for key, (value, unit) in metrics.items():
        line = f"  {key:24s} {value:>14.6g} {unit}"
        if key in samples and len(samples[key]) > 1:
            q1, q3 = _quartiles(samples[key])
            line += f"   q1 {q1:.6g} q3 {q3:.6g} n {len(samples[key])}"
        print(line)
    print("provenance " + json.dumps(prov, sort_keys=True))
    detail = {"workload": opts.workload, "seed": opts.seed,
              "mobidelay_seed": seed, "trace": opts.trace,
              "smoke": opts.smoke, "provenance": prov,
              "error_rate": failed / len(runs), "samples": samples,
              "repetitions": [{"kind": list(r.kind), "round": r.round,
                               "setup_s": r.setup_s, "error": r.error,
                               "record": r.record} for r in reps]}
    (OUT / f"{opts.workload}-seed{opts.seed}-trace{opts.trace}.json") \
        .write_text(json.dumps(detail, indent=1), encoding="utf-8")
    print(json.dumps({
        "correct": correct, "attempted": len(runs), "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
