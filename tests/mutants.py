"""Mutation check: which tier-1 tests catch a wrong contact engine or a
wrong no-contact Monte Carlo.

    python3 tests/mutants.py [NAME ...] [-- PYTEST_ARGS ...]

Each mutant below changes one expression of ``src/mobidelay/world.py``
or ``src/mobidelay/analytics.py`` in a temporary copy of the
repository, runs the tier-1 suite there
(``pytest -q`` over ``tests/``) and prints the tests that fail on it,
the tests that kill it.  A mutant that no test kills survives; the
script exits 1 if any does.  With NAMEs it runs only those mutants;
PYTEST_ARGS after ``--`` go to every pytest run (``-k criterion`` runs
only the gate).  Run it on a tree whose tier-1 suite passes, or the
kill lists include that tree's own failures.

Like ``bench/test_bench.py`` it is not part of tier-1: pytest collects
only ``test_*.py``, and a full run takes one tier-1 run per mutant.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORLD = Path("src", "mobidelay", "world.py")
ANALYTICS = Path("src", "mobidelay", "analytics.py")

# the slot-loop expressions the engine mutants change
_FLIGHT = "(sample_flight_polar, cfg.alpha)"
_RELOCATE = "(uniform_disc_polar, R)"
_NO_WRAP = "fx[cpos], fy[cpos], r)"
# the wrapped pairs' call, which feeds both the window pass and the
# capsule search, and each pass's own call
_WRAPPED = "sy[nc + j], R, r)"
_WINDOWS = "fast[w], slow[w], r)"
_SEARCH = "fast[c], slow[c], r)"
# the window kernel's end of a window at the end of the point's piece
_POINT_END = "ow + dur), 1.0)"
# the Monte Carlo expressions: the flight pairing, the grid's leg clamp,
# the arc angle's result and the two teleport point draws
_PAIRS = "theta[:size], theta[size:], z[:size], z[size:]"
_CLAMP = "top = max(l0s)"
_ARC = "    return phi\n"
_POINTS = ("x1, y1 = uniform_points_in_disc(rng, cfg.radius",
           "x2, y2 = uniform_points_in_disc(rng, cfg.radius")


def _range(scale, *sites):
    # contact range scaled at the given contact calls
    return [(site, site.replace(" r)", f" {scale} * r)")) for site in sites]


# name -> (file, [(expression, replacement)]), each expression found
# exactly once in the file
MUTANTS = {
    "flights at 0.8 alpha": (WORLD, [(_FLIGHT, "(sample_flight_polar, 0.8 * cfg.alpha)")]),
    "flights at 1.2 alpha": (WORLD, [(_FLIGHT, "(sample_flight_polar, 1.2 * cfg.alpha)")]),
    "range 0.9r": (WORLD, _range(0.9, _NO_WRAP, _WRAPPED)),
    "range 1.1r": (WORLD, _range(1.1, _NO_WRAP, _WRAPPED)),
    "0.95r in the no-wrap pass only": (WORLD, _range(0.95, _NO_WRAP)),
    "0.95r in the window pass only": (WORLD, _range(0.95, _WINDOWS)),
    "0.95r in the capsule search only": (WORLD, _range(0.95, _SEARCH)),
    "window end ignores the point's piece end": (WORLD, [(_POINT_END, "np.inf), 1.0)")]),
    "teleport relocation within 0.95R": (WORLD, [(_RELOCATE, "(uniform_disc_polar, 0.95 * R)")]),
    "MC flights paired (2i, 2i + 1)": (ANALYTICS, [
        (_PAIRS, "theta[0::2], theta[1::2], z[0::2], z[1::2]")]),
    "MC grid clamps every leg at the smallest l0": (ANALYTICS, [
        (_CLAMP, "top = min(l0s)")]),
    "MC arc angle 1.02 phi": (ANALYTICS, [(_ARC, "    return 1.02 * phi\n")]),
    "MC teleport points within 0.95R": (ANALYTICS, [
        (site, site.replace("cfg.radius", "0.95 * cfg.radius")) for site in _POINTS]),
}


def _mutated_copy(dest: Path, path: Path, edits) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    # bench/ too: a test pins the block-runner fields its harness reads
    for part in ("src", "tests", "bench"):
        shutil.copytree(ROOT / part, dest / part, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")
    text = (dest / path).read_text(encoding="utf-8")
    for old, new in edits:
        if text.count(old) != 1:
            raise SystemExit(f"{path}: {old!r} occurs {text.count(old)} times, not once")
        text = text.replace(old, new)
    (dest / path).write_text(text, encoding="utf-8")


def killers(mutant, pytest_args) -> tuple[list[str], str]:
    """The tests that fail with the mutant's edits applied, and pytest's
    last line."""
    with tempfile.TemporaryDirectory(prefix="mobidelay-mutant-") as tmp:
        dest = Path(tmp)
        _mutated_copy(dest, *mutant)
        env = dict(os.environ, PYTHONPATH=str(dest / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
             *pytest_args], cwd=dest, env=env, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    failed = [m.group(1) for line in lines
              if (m := re.match(r"(?:FAILED|ERROR) (\S+)", line))]
    return failed, lines[-1] if lines else proc.stderr.strip()


def main(argv: list[str]) -> int:
    cut = argv.index("--") if "--" in argv else len(argv)
    names, pytest_args = argv[:cut], argv[cut + 1:]
    unknown = [n for n in names if n not in MUTANTS]
    if unknown:
        print(f"unknown mutants: {unknown}; known: {list(MUTANTS)}", file=sys.stderr)
        return 2
    survivors = []
    for name in names or MUTANTS:
        failed, summary = killers(MUTANTS[name], pytest_args)
        print(f"{name}: {len(failed)} killing tests ({summary})")
        for test in failed:
            print(f"    {test}")
        if not failed:
            survivors.append(name)
        sys.stdout.flush()
    if survivors:
        print(f"survivors: {survivors}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
