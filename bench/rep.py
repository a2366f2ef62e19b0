"""One benchmark repetition, run in a fresh interpreter by bench/run.py.

    python3 bench/rep.py --mode probe|plain|traced [--spans FILE] -- ARGV...

Imports ``mobidelay.cli`` from the ``src/`` directory next to this
benchmark, resolves ARGV with ``cli.parse_args`` and, unless the mode is
``probe``, runs ``cli.run`` once.  The last line on stdout is one JSON
record:

    ready    CLOCK_MONOTONIC seconds once import and parsing are done;
             run.py subtracts its spawn time to get the set-up time
    wall_s   wall time of cli.run
    exit     the code cli.run returned
    rss_mb   peak resident memory of this process and of its largest
             pool child
    world    counts taken from the arrays the block runners returned
    trace    per-layer self time and counts (traced mode only)

Layers are measured from outside.  Every public function that one
mobidelay module imports from another is replaced, at the importing
module's binding, by a wrapper that times the call and charges it to the
defining module.  Nothing under src/ is modified, and a function that a
later version adds or removes is picked up or dropped without editing
this file.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import json
import os
import resource
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

LAYERS = ("cli", "experiments", "world", "analytics", "flight", "geometry")

# Block runners and the position of the meeting-time / delay array in
# the tuple each returns; censored trials carry inf there.
BLOCK_RUNNERS = {"pair_meeting_times": 1, "scheme_delays": 2}

# Spans deeper than cli -> experiments/analytics -> world are only
# aggregated: the per-slot geometry calls of a relay sweep number in the
# millions.
SPAN_DEPTH = 2


class WorldCounts:
    """Work done by the block runners, from the arrays they return."""

    def __init__(self):
        self.calls = 0
        self.trials = 0
        self.slots = 0
        self.censored = 0
        self.horizons: list[int] = []

    def add(self, name: str, args, kwargs, out) -> None:
        cfg = args[0] if args else kwargs["cfg"]
        t = np.asarray(out[BLOCK_RUNNERS[name]], dtype=float)
        censored = np.isinf(t)
        # a trial that meets at (k-1)+s, s in (0, 1], ran k slots; one that
        # meets at t=0 ran none; a censored one ran the whole horizon
        slots = np.where(censored, cfg.horizon_slots, np.ceil(t))
        self.calls += 1
        self.trials += int(t.size)
        self.slots += int(slots.sum())
        self.censored += int(censored.sum())
        self.horizons.append(int(cfg.horizon_slots))

    def to_obj(self) -> dict:
        return {"calls": self.calls, "trials": self.trials,
                "slots": self.slots, "censored": self.censored,
                "horizons": self.horizons}


class Tracer:
    """Span stack with per-layer self time.

    A layer's self time is a span's duration minus the time covered by
    the spans it caused.  Spans down to SPAN_DEPTH are kept in memory
    and written out at the end; deeper ones only feed the totals.
    """

    def __init__(self):
        self.clock = time.perf_counter
        self.origin = self.clock()
        self.stack: list[list] = []  # [span id, start, child time]
        self.spans: list[list] = []  # [id, parent id, name, start, end]
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.emit_s = 0.0
        self.emit_bytes = 0
        self.draws = 0
        self._next_id = 0

    def enter(self) -> None:
        self._next_id += 1
        self.stack.append([self._next_id, self.clock(), 0.0])

    def exit(self, layer: str, name: str) -> float:
        end = self.clock()
        span_id, start, child = self.stack.pop()
        dur = end - start
        self.self_s[layer] += dur - child
        self.calls[layer] += 1
        if self.stack:
            self.stack[-1][2] += dur
        if len(self.stack) <= SPAN_DEPTH:
            parent = self.stack[-1][0] if self.stack else 0
            self.spans.append([span_id, parent, f"{layer}.{name}",
                               start - self.origin, end - self.origin])
        return dur

    def to_obj(self) -> dict:
        return {"self_s": self.self_s, "calls": self.calls,
                "emit_s": self.emit_s, "emit_bytes": self.emit_bytes,
                "draws": self.draws}


def _traced(fn, layer: str, name: str, tracer: Tracer, world: WorldCounts):
    def wrapper(*args, **kwargs):
        tracer.enter()
        try:
            out = fn(*args, **kwargs)
        finally:
            dur = tracer.exit(layer, name)
        if name in BLOCK_RUNNERS and layer == "world":
            world.add(name, args, kwargs, out)
        elif layer == "flight":
            first = out[0] if isinstance(out, tuple) else out
            tracer.draws += int(getattr(first, "size", 1))
        elif layer == "experiments" and name.startswith("write_"):
            tracer.emit_s += dur
            tracer.emit_bytes += os.path.getsize(args[0])
        return out
    return wrapper


def _counted(fn, name: str, world: WorldCounts):
    def wrapper(*args, **kwargs):
        out = fn(*args, **kwargs)
        world.add(name, args, kwargs, out)
        return out
    return wrapper


def _cross_module_functions():
    """(module, attribute, function, home layer) for every public function
    a mobidelay module imports from another mobidelay module."""
    for layer in LAYERS:
        mod = importlib.import_module(f"mobidelay.{layer}")
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            home = obj.__module__.split(".")
            if home[0] != "mobidelay" or obj.__module__ == mod.__name__:
                continue
            yield mod, attr, obj, home[1]


def install(tracer: Tracer | None, world: WorldCounts) -> None:
    """Wrap every cross-module call site; with no tracer, only count the
    block runners."""
    for mod, attr, fn, home in _cross_module_functions():
        if tracer is not None:
            setattr(mod, attr, _traced(fn, home, attr, tracer, world))
        elif home == "world" and attr in BLOCK_RUNNERS:
            setattr(mod, attr, _counted(fn, attr, world))


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; RUSAGE_CHILDREN reports the largest
    # waited-for child, i.e. the biggest process-pool worker
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("probe", "plain", "traced"),
                        required=True)
    parser.add_argument("--spans", default=None,
                        help="file for the traced run's span list")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    opts = parser.parse_args()
    argv = opts.argv[1:] if opts.argv[:1] == ["--"] else opts.argv

    sys.path.insert(0, str(SRC))
    import mobidelay
    from mobidelay import cli

    if Path(mobidelay.__file__).resolve().parent.parent != SRC:
        print(f"mobidelay imported from {mobidelay.__file__}, not {SRC}",
              file=sys.stderr)
        return 3
    config = cli.parse_args(argv)
    record = {"ready": time.clock_gettime(time.CLOCK_MONOTONIC)}
    if opts.mode != "probe":
        world = WorldCounts()
        tracer = Tracer() if opts.mode == "traced" else None
        install(tracer, world)
        start = time.perf_counter()
        if tracer is None:
            code = cli.run(config)
        else:
            tracer.enter()
            try:
                code = cli.run(config)
            finally:
                tracer.exit("cli", "run")
        wall = time.perf_counter() - start
        record.update(wall_s=wall, exit=code, rss_mb=_peak_rss_mb(),
                      world=world.to_obj())
        if tracer is not None:
            record["trace"] = tracer.to_obj()
            if opts.spans:
                with open(opts.spans, "w", encoding="utf-8") as fh:
                    json.dump({"columns": ["id", "parent", "name",
                                           "start_s", "end_s"],
                               "spans": tracer.spans}, fh)
    sys.stdout.flush()
    print(json.dumps(record, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
