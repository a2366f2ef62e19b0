"""Command-line front end.

Six subcommands cover the package surface: closed-form bounds with their
Monte Carlo cross-checks (bounds), empirical meeting-time CCDFs against
the geometric bound (meet), single-population relay-delay statistics
(delay), delay-scaling regressions over a population grid (sweep), the
neighbor-count binomial goodness of fit (gof), and the tail-exponent
CCDF comparison (dominance).

Option precedence is flags over config file over built-in defaults; the
config file is a flat JSON object keyed by the RunConfig field names,
each value of its field's JSON type.
Exit codes: 0 on success, 1 on a usage or validation problem or a run
that cannot finish (contact-search budget exceeded, arithmetic
overflow), 2 when a --check assertion fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import textwrap
from dataclasses import dataclass, fields
from typing import Optional

from .analytics import compute_bound_report, tradeoff_curve
from .experiments import (
    grid_configs,
    neighbor_binomial_gof,
    run_ccdf_sweep,
    run_delay_sweep,
    run_dominance_check,
    sample_neighbor_counts,
    summarize_delays,
    write_json,
    write_rows_csv,
)
from .world import (DEFAULT_HORIZON_IID, DEFAULT_HORIZON_LEVY, DEFAULT_SEED,
                    MODEL_IID, MODEL_LEVY, ModelConfig, scheme_delays)

__all__ = ["RunConfig", "parse_args", "run", "main"]

FORMATS = ("csv", "json", "both")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CHECK = 2

# --alpha when none is given: heavy-flight runs, and dominance's pair
_ALPHA_DEFAULT = 1.0
_DOMINANCE_ALPHAS = (0.5, 2.0)

# slack added to the model delay exponent in sweep --check
_SLOPE_SLACK = 0.15


class UsageError(ValueError):
    """Bad flags or config file; maps to exit code 1."""


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved invocation; round-trips through a flat dict."""

    subcommand: str
    model: str = MODEL_IID
    alpha: tuple[float, ...] = ()
    n: tuple[int, ...] = (100,)
    r: Optional[float] = None
    beta: Optional[float] = None
    trials: Optional[int] = None
    horizon: Optional[int] = None
    seed: int = DEFAULT_SEED
    workers: int = 1
    out_dir: str = "out"
    fmt: str = "json"
    check: bool = False

    def __post_init__(self):
        if self.subcommand not in SUBCOMMANDS:
            raise UsageError(f"unknown subcommand {self.subcommand!r}")
        if self.model not in (MODEL_LEVY, MODEL_IID):
            raise UsageError(f"--model must be one of {MODEL_LEVY}, {MODEL_IID}")
        # a config file may hold any JSON value: check each field's type
        # before its range, and take no bool for a number
        if not (isinstance(self.alpha, (list, tuple)) and all(map(_is_number, self.alpha))):
            raise UsageError("alpha must be a list of numbers")
        if not (isinstance(self.n, (list, tuple)) and all(map(_is_int, self.n))):
            raise UsageError("n must be a list of integers")
        for name in ("r", "beta"):
            value = getattr(self, name)
            if value is not None and not _is_number(value):
                raise UsageError(f"{name} must be a number")
        for name in ("trials", "horizon", "seed", "workers"):
            value = getattr(self, name)
            if not (_is_int(value) or (value is None and name in ("trials", "horizon"))):
                raise UsageError(f"{name} must be an integer")
        if not isinstance(self.out_dir, str):
            raise UsageError("out_dir must be a string")
        if not isinstance(self.check, bool):
            raise UsageError("check must be true or false")
        object.__setattr__(self, "alpha", tuple(float(a) for a in self.alpha))
        for a in self.alpha:
            if not (0.0 < a <= 2.0):
                raise UsageError("alpha must be in (0, 2]")
        object.__setattr__(self, "n", tuple(self.n))
        if not self.n or any(v < 2 for v in self.n):
            raise UsageError("--n values must be integers >= 2")
        if self.r is not None and self.beta is not None:
            raise UsageError("give at most one of --r and --beta")
        if self.r is not None and self.r <= 0:
            raise UsageError("r must be positive")
        if self.beta is not None and not (0.0 <= self.beta <= 0.25):
            raise UsageError("beta must be in [0, 0.25]")
        if self.trials is not None and self.trials < 0:
            raise UsageError("--trials must be nonnegative")
        if self.horizon is not None and self.horizon < 1:
            raise UsageError("--horizon must be positive")
        if self.seed < 0:
            raise UsageError("--seed must be nonnegative")
        if self.workers < 1:
            raise UsageError("--workers must be positive")
        if self.fmt not in FORMATS:
            raise UsageError(f"--format must be one of {', '.join(FORMATS)}")

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            out[f.name] = list(v) if isinstance(v, tuple) else v
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        known = {f.name for f in fields(cls)}
        bad = set(data) - known
        if bad:
            raise UsageError(f"unknown config key {sorted(bad)[0]!r}")
        return cls(**data)

    @property
    def effective_trials(self) -> int:
        return self.trials if self.trials is not None else \
            SUBCOMMANDS[self.subcommand][1]


def _parse_floats(text: str, flag: str) -> tuple[float, ...]:
    try:
        return tuple(float(p) for p in text.split(","))
    except ValueError:
        raise UsageError(f"{flag} expects a number or comma-separated numbers")


def _parse_ints(text: str, flag: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise UsageError(f"{flag} expects an integer or comma-separated integers")


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; route through UsageError
    # instead so 2 stays reserved for failed --check assertions.
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    note = textwrap.fill(
        "defaults: --model iid, --n 100, --beta 0 when neither --r nor --beta is "
        f"given, --seed 0x{DEFAULT_SEED:_X}, --workers 1, --out out, --format json; "
        "--trials defaults per subcommand "
        f"({', '.join(f'{sub} {t}' for sub, (_, t, _) in SUBCOMMANDS.items())}); "
        "--horizon defaults to the model horizon "
        f"({DEFAULT_HORIZON_IID} slots i.i.d., {DEFAULT_HORIZON_LEVY} heavy-flight); "
        f"--alpha defaults to {_ALPHA_DEFAULT:g} for heavy-flight runs and to the "
        f"pair {_DOMINANCE_ALPHAS[0]},{_DOMINANCE_ALPHAS[1]} for dominance.",
        width=72, break_on_hyphens=False)
    parser = _Parser(
        prog="mobidelay",
        description="meeting-time, delay, and capacity experiments",
        epilog=note,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, _, descr) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=descr, epilog=note,
                           formatter_class=argparse.RawDescriptionHelpFormatter)
        p.add_argument("--model", choices=(MODEL_LEVY, MODEL_IID), default=None)
        p.add_argument("--alpha", default=None,
                       help="tail exponent; a comma pair for dominance")
        p.add_argument("--n", default=None,
                       help="population size; meet, sweep and dominance "
                            "take an increasing comma-separated grid")
        p.add_argument("--r", type=float, default=None,
                       help="transmission range, used as given "
                            "(exclusive with --beta)")
        p.add_argument("--beta", type=float, default=None,
                       help="range exponent, r = n**beta")
        p.add_argument("--trials", type=int, default=None)
        p.add_argument("--horizon", type=int, default=None,
                       help="simulation horizon in slots")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--workers", type=int, default=None)
        p.add_argument("--out", dest="out_dir", default=None,
                       help="output directory")
        p.add_argument("--format", dest="fmt", choices=FORMATS, default=None)
        p.add_argument("--check", action="store_true", default=None,
                       help="assert the run's pass condition; exit 2 on failure")
        p.add_argument("--config", default=None,
                       help="flat JSON file of RunConfig fields")
    return parser


def parse_args(argv) -> RunConfig:
    """Resolve argv (plus any config file) into a RunConfig.

    Raises UsageError on anything malformed; the message names the
    offending flag or config key.
    """
    ns = _build_parser().parse_args(list(argv))
    merged: dict = {}
    if ns.config is not None:
        try:
            with open(ns.config, encoding="utf-8") as fh:
                file_conf = json.load(fh)
        except OSError as exc:
            raise UsageError(f"--config: {exc}")
        except json.JSONDecodeError as exc:
            raise UsageError(f"--config: not valid JSON ({exc})")
        if not isinstance(file_conf, dict):
            raise UsageError("--config must hold a JSON object")
        # the positional argument decides the subcommand
        merged = {k: v for k, v in file_conf.items() if k != "subcommand"}
    if ns.alpha is not None:
        merged["alpha"] = _parse_floats(ns.alpha, "--alpha")
    if ns.n is not None:
        merged["n"] = _parse_ints(ns.n, "--n")
    for flag in ("model", "r", "beta", "trials", "horizon", "seed",
                 "workers", "out_dir", "fmt", "check"):
        value = getattr(ns, flag)
        if value is not None:
            merged[flag] = value
    merged["subcommand"] = ns.subcommand
    try:
        return RunConfig.from_dict(merged)
    except TypeError as exc:
        raise UsageError(str(exc))


# ---------------------------------------------------------------------------
# dispatch helpers


def _alpha_for(config: RunConfig) -> Optional[float]:
    # dominance sets each of its two exponents on the config itself
    if len(config.alpha) > 1 and config.subcommand != "dominance":
        raise ValueError(f"{config.subcommand} runs one tail exponent; give one --alpha")
    if config.model != MODEL_LEVY:
        return None
    return config.alpha[0] if config.alpha else _ALPHA_DEFAULT


def _configs(config: RunConfig) -> list[ModelConfig]:
    """One ModelConfig per --n value, with --r or --beta used as given."""
    beta = 0.0 if config.r is None and config.beta is None else config.beta
    return grid_configs(config.n, r=config.r, beta=beta, model=config.model,
                        alpha=_alpha_for(config), horizon=config.horizon,
                        master_seed=config.seed)


def _single_config(config: RunConfig) -> ModelConfig:
    if len(config.n) != 1:
        raise ValueError(f"{config.subcommand} runs one population; give one --n")
    return _configs(config)[0]


def _emit(config: RunConfig, name: str, rows, summary=None) -> list[str]:
    os.makedirs(config.out_dir, exist_ok=True)
    written = []
    if config.fmt in ("csv", "both"):
        path = os.path.join(config.out_dir, f"{name}.csv")
        write_rows_csv(path, rows)
        written.append(path)
    if config.fmt in ("json", "both"):
        path = os.path.join(config.out_dir, f"{name}.json")
        write_json(path, summary if summary is not None else rows)
        written.append(path)
    return written


def _checked(ok: bool, reason: str) -> int:
    if ok:
        print("check: pass")
        return EXIT_OK
    print(f"check: FAIL ({reason})")
    return EXIT_CHECK


# ---------------------------------------------------------------------------
# subcommands


def _key_rows(key: str, value) -> list[dict]:
    """One {key, value} row per leaf; nested keys are joined with dots."""
    if not isinstance(value, dict):
        return [{"key": key, "value": value}]
    return [row for k, v in value.items() for row in _key_rows(f"{key}.{k}", v)]


def _run_bounds(config: RunConfig) -> int:
    cfg = _single_config(config)
    report = compute_bound_report(cfg, config.effective_trials)
    doc = report.to_obj()
    rows = [row for key, value in doc.items() for row in _key_rows(key, value)]
    written = _emit(config, "bounds", rows, summary=doc)
    print(f"bounds: n={cfg.n} r={cfg.r:g} model={cfg.model} -> "
          + ", ".join(written))
    return EXIT_OK


def _run_meet(config: RunConfig) -> int:
    rows = run_ccdf_sweep(_configs(config), config.effective_trials,
                          workers=config.workers)
    written = _emit(config, "meet", rows)
    print(f"meet: {len(rows)} rows -> " + ", ".join(written))
    if not config.check:
        return EXIT_OK
    # the score test: the bound's binomial sigma, positive at a sample of 0 or 1
    bad = [row for row in rows if row["ccdf"] - row["bound"]
           > 3.0 * math.sqrt(row["bound"] * (1.0 - row["bound"]) / row["trials"])]
    return _checked(not bad,
                    f"{len(bad)} rows exceed the geometric bound + 3 sigma")


def _run_delay(config: RunConfig) -> int:
    cfg = _single_config(config)
    _, _, delays = scheme_delays(cfg, config.effective_trials,
                                 workers=config.workers)
    stat = summarize_delays(delays)
    row = {"model": cfg.model, "n": cfg.n, "r": cfg.r, **stat._asdict()}
    censored = stat.censored_fraction
    written = _emit(config, "delay", [row], summary=row)
    print(f"delay: n={cfg.n} mean={stat.mean:.4g} "
          f"censored={censored:.4g} -> " + ", ".join(written))
    if not config.check:
        return EXIT_OK
    return _checked(stat.censored_ok,
                    f"censored fraction {censored:.4g} >= 1%")


def _run_sweep(config: RunConfig) -> int:
    if config.r is not None:
        raise ValueError("sweep takes --beta, not --r: its --check reads the "
                         "range exponent")
    configs = _configs(config)
    fit = run_delay_sweep(configs, config.effective_trials,
                          workers=config.workers)
    written = _emit(config, "sweep", fit.points, summary=fit.summary())
    print(f"sweep: slope={fit.slope:.4g} r2={fit.r_squared:.4g} "
          f"valid={fit.valid} -> " + ", ".join(written))
    if not config.check:
        return EXIT_OK
    if not fit.valid:
        return _checked(False, fit.note or "fit invalid")
    # the capacity target n**-eta paired with this range; --beta is 0 when unset
    eta = 2.0 * (config.beta or 0.0)
    (_, exponent), = tradeoff_curve(config.model, configs[0].alpha, [eta])
    return _checked(fit.slope <= exponent + _SLOPE_SLACK,
                    f"slope {fit.slope:.4g} > {exponent:.4g} + {_SLOPE_SLACK}")


def _run_gof(config: RunConfig) -> int:
    cfg = _single_config(config)
    n, r = cfg.n, cfg.r
    counts = sample_neighbor_counts(cfg.master_seed, n, r,
                                    config.effective_trials)
    res = neighbor_binomial_gof(counts, n)
    row = {
        "n": n, "r": r, "placements": config.effective_trials,
        "samples": int(counts.size), "p_hat": res.p,
        "chi2": res.chi2, "dof": res.dof, "passed": res.passed,
    }
    written = _emit(config, "gof", [row], summary=row)
    print(f"gof: chi2={res.chi2:.4g} dof={res.dof} passed={res.passed} -> "
          + ", ".join(written))
    if not config.check:
        return EXIT_OK
    return _checked(res.passed, f"chi2 {res.chi2:.4g} rejected at 1%")


def _run_dominance(config: RunConfig) -> int:
    alphas = config.alpha if config.alpha else _DOMINANCE_ALPHAS
    if len(alphas) != 2:
        raise ValueError("dominance needs exactly two --alpha values")
    rows = run_dominance_check(_configs(config), config.effective_trials,
                               min(alphas), max(alphas),
                               workers=config.workers)
    written = _emit(config, "dominance", rows)
    bad = [row for row in rows if not row["dominated"]]
    print(f"dominance: {len(rows)} rows, {len(bad)} violations -> "
          + ", ".join(written))
    if not config.check:
        return EXIT_OK
    return _checked(not bad, f"{len(bad)} rows break the tail ordering")


# each subcommand's runner, --trials default (gof counts placements) and
# help line, in help order
SUBCOMMANDS = {
    "bounds": (_run_bounds, 100_000, "closed-form bounds plus Monte Carlo cross-checks"),
    "meet": (_run_meet, 20_000, "empirical meeting-time CCDF against the geometric bound"),
    "delay": (_run_delay, 2_000, "relay-scheme delay statistics at one population size"),
    "sweep": (_run_sweep, 1_000, "log-log delay scaling over a population grid"),
    "gof": (_run_gof, 30_000, "neighbor-count binomial goodness of fit"),
    "dominance": (_run_dominance, 20_000, "meeting-time CCDF comparison of two tail exponents"),
}


def run(config: RunConfig) -> int:
    """Execute one resolved invocation; returns the process exit code."""
    try:
        return SUBCOMMANDS[config.subcommand][0](config)
    except (ValueError, OSError, RuntimeError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        # numpy's names the array it could not allocate; Python's own is bare
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_USAGE


def main(argv=None) -> int:
    try:
        config = parse_args(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
