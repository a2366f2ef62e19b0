"""CLI parsing, dispatch, exit codes, and output files."""

import csv
import json
import math
import os
import re
import subprocess
import sys

import pytest

import full_mc
from mobidelay import analytics, cli, world
from mobidelay.cli import (
    EXIT_CHECK,
    EXIT_OK,
    EXIT_USAGE,
    SUBCOMMANDS,
    RunConfig,
    UsageError,
    main,
    parse_args,
    run,
)
from mobidelay.world import DEFAULT_HORIZON_IID, DEFAULT_HORIZON_LEVY, DEFAULT_SEED


# ---------------------------------------------------------------------------
# parsing


def test_parse_defaults():
    cfg = parse_args(["bounds"])
    assert cfg.subcommand == "bounds"
    assert cfg.model == "iid"
    assert cfg.alpha == ()
    assert cfg.n == (100,)
    assert cfg.r is None and cfg.beta is None
    assert cfg.trials is None and cfg.effective_trials == 100_000
    assert cfg.seed == DEFAULT_SEED
    assert cfg.workers == 1
    assert cfg.out_dir == "out"
    assert cfg.fmt == "json"
    assert cfg.check is False


def test_parse_all_flags():
    cfg = parse_args([
        "meet", "--model", "levy", "--alpha", "1.5", "--n", "400",
        "--r", "4", "--trials", "5000", "--horizon", "100", "--seed", "7",
        "--workers", "2", "--out", "x", "--format", "both", "--check",
    ])
    assert cfg.subcommand == "meet"
    assert cfg.model == "levy"
    assert cfg.alpha == (1.5,)
    assert cfg.n == (400,)
    assert cfg.r == 4.0
    assert cfg.trials == 5000 and cfg.effective_trials == 5000
    assert cfg.horizon == 100
    assert cfg.seed == 7
    assert cfg.workers == 2
    assert cfg.out_dir == "x"
    assert cfg.fmt == "both"
    assert cfg.check is True


def test_parse_comma_lists():
    cfg = parse_args(["sweep", "--n", "250,500,1000", "--beta", "0.125"])
    assert cfg.n == (250, 500, 1000)
    cfg = parse_args(["dominance", "--model", "levy", "--alpha", "0.5,2.0",
                      "--n", "400"])
    assert cfg.alpha == (0.5, 2.0)


def test_parse_domain_errors():
    with pytest.raises(UsageError, match=r"beta must be in \[0, 0.25\]"):
        parse_args(["sweep", "--beta", "0.3"])
    with pytest.raises(UsageError, match=r"alpha must be in \(0, 2\]"):
        parse_args(["bounds", "--alpha", "0"])
    with pytest.raises(UsageError, match="--alpha"):
        parse_args(["bounds", "--alpha", "fast"])
    with pytest.raises(UsageError, match="at most one"):
        parse_args(["bounds", "--r", "2", "--beta", "0.1"])
    with pytest.raises(UsageError, match="--n"):
        parse_args(["bounds", "--n", "many"])
    with pytest.raises(UsageError, match=">= 2"):
        parse_args(["bounds", "--n", "1"])
    with pytest.raises(UsageError, match="--model"):
        parse_args(["bounds", "--model", "brownian"])
    with pytest.raises(UsageError, match="--format"):
        parse_args(["bounds", "--format", "xml"])
    with pytest.raises(UsageError):
        parse_args(["simulate"])  # unknown subcommand


def test_config_roundtrip():
    cfg = parse_args(["dominance", "--model", "levy", "--alpha", "0.5,2.0",
                      "--n", "400", "--trials", "3000", "--check"])
    again = RunConfig.from_dict(cfg.to_dict())
    assert again == cfg
    assert isinstance(cfg.to_dict()["alpha"], list)  # flat JSON types


def test_config_file_precedence(tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"trials": 500, "seed": 9, "fmt": "both"}))
    cfg = parse_args(["bounds", "--config", str(conf), "--seed", "11"])
    assert cfg.seed == 11       # flag beats file
    assert cfg.trials == 500    # file beats default
    assert cfg.fmt == "both"
    assert cfg.model == "iid"   # untouched default


def test_config_file_errors(tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"velocity": 3}))
    with pytest.raises(UsageError, match="velocity"):
        parse_args(["bounds", "--config", str(conf)])
    conf.write_text("[1, 2]")
    with pytest.raises(UsageError, match="JSON object"):
        parse_args(["bounds", "--config", str(conf)])
    conf.write_text("{broken")
    with pytest.raises(UsageError, match="not valid JSON"):
        parse_args(["bounds", "--config", str(conf)])
    with pytest.raises(UsageError, match="--config"):
        parse_args(["bounds", "--config", str(tmp_path / "missing.json")])


@pytest.mark.parametrize("conf, key", [
    ({"trials": 50, "horizon": 40.5}, "horizon"),
    ({"trials": 50.5}, "trials"),
    ({"trials": True}, "trials"),
    ({"trials": 50, "check": "no"}, "check"),
    ({"seed": 1.5}, "seed"),
    ({"seed": -1}, "seed"),
    ({"n": [100.7]}, "n"),
    ({"n": 100}, "n"),
    ({"r": True}, "r"),
    ({"beta": "0.1"}, "beta"),
    ({"alpha": [1, "2"]}, "alpha"),
    ({"workers": None}, "workers"),
    ({"out_dir": 5}, "out_dir"),
])
def test_config_file_values_must_have_their_type(tmp_path, monkeypatch, capsys,
                                                 conf, key):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "conf.json").write_text(json.dumps(conf))
    assert main(["meet", "--config", "conf.json"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert re.search(rf"\b{key}\b", err)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["conf.json"]


# ---------------------------------------------------------------------------
# dispatch and exit codes


def test_bounds_writes_expected_json(tmp_path):
    out = tmp_path / "o"
    code = main(["bounds", "--n", "100", "--r", "2", "--trials", "2000",
                 "--out", str(out), "--format", "both"])
    assert code == EXIT_OK
    doc = json.loads((out / "bounds.json").read_text())
    assert doc["p_out_lower"] == 0.96
    assert doc["p_out_upper"] == pytest.approx(1.0 - 4.0 / 300.0)
    with open(out / "bounds.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    keys = {row["key"] for row in rows}
    assert "p_out_lower" in keys and "u_bar.1" in keys


def test_bounds_levy_files_match_the_full_array_estimator(tmp_path, monkeypatch):
    # the conditional estimates agree in distribution with the full-array
    # counts on the same draws, one tile loop for the whole grid on both
    # sides; every closed-form entry is written the same
    argv = ["bounds", "--model", "levy", "--alpha", "1", "--n", "10000",
            "--r", "4", "--trials", "300000", "--seed", "11", "--format", "both"]
    package, full = tmp_path / "package", tmp_path / "full"
    assert main(argv + ["--out", str(package)]) == EXIT_OK
    monkeypatch.setattr(analytics, "_no_contact_sums", lambda *args: [
        (misses, 0.0) for misses in full_mc.grid_misses(*args)])
    assert main(argv + ["--out", str(full)]) == EXIT_OK
    got = json.loads((package / "bounds.json").read_text())
    want = json.loads((full / "bounds.json").read_text())
    estimates = [("p_hat_mc", got.pop("p_hat_mc"), want.pop("p_hat_mc"))]
    got_h1, want_h1 = got.pop("h1_mc"), want.pop("h1_mc")
    assert list(got_h1) == list(want_h1)
    estimates += [(l0, got_h1[l0], want_h1[l0]) for l0 in got_h1]
    assert got == want
    for where, est, ref in estimates:
        assert est["trials"] == ref["trials"] == 300000
        # on shared draws the difference has variance mean v (1 - v) / trials,
        # which is p (1 - p) / trials less the estimate's own squared error
        p, n = est["value"], est["trials"]
        sigma = math.sqrt(p * (1.0 - p) / n - est["stderr"] ** 2)
        assert 0.0 < est["stderr"] < ref["stderr"], where
        assert abs(est["value"] - ref["value"]) < 3.0 * sigma, where
    with open(package / "bounds.csv", newline="") as fh:
        got_rows = [r for r in csv.DictReader(fh) if "_mc" not in r["key"]]
    with open(full / "bounds.csv", newline="") as fh:
        want_rows = [r for r in csv.DictReader(fh) if "_mc" not in r["key"]]
    assert got_rows and got_rows == want_rows


@pytest.mark.parametrize("model", [["--model", "iid"], ["--model", "levy", "--alpha", "1"]],
                         ids=["iid", "levy"])
@pytest.mark.parametrize("trials", ["0", "1000"])
def test_bounds_csv_cells_are_numbers(tmp_path, model, trials):
    # every value cell but the note is a real, an integer, a boolean or
    # empty (a missing estimate); nested estimates are one row per field
    out = tmp_path / "o"
    assert main(["bounds", *model, "--n", "10000", "--r", "4", "--trials", trials,
                 "--format", "csv", "--out", str(out)]) == EXIT_OK
    with open(out / "bounds.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        cell = row["value"]
        if row["key"] == "n_th_note" or cell in ("", "true", "false"):
            continue
        float(cell)
    keys = [row["key"] for row in rows]
    assert "n_th_note" in keys
    h1 = [k for k in keys if k.startswith("h1_mc")]
    if trials == "0":
        assert h1 == ["h1_mc"] and ["p_hat_mc"] == [k for k in keys if k.startswith("p_hat_mc")]
    else:
        assert len(h1) == 9 and {k.rsplit(".", 1)[1] for k in h1} == {"value", "stderr", "trials"}


def test_validation_failure_exits_1(tmp_path, capsys):
    code = main(["bounds", "--n", "100", "--r", "50",
                 "--out", str(tmp_path / "o")])
    assert code == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


def test_usage_failure_exits_1(capsys):
    assert main(["bounds", "--beta", "0.9"]) == EXIT_USAGE
    assert "beta must be in [0, 0.25]" in capsys.readouterr().err


def test_delay_check_censoring_exit_codes(tmp_path):
    base = ["delay", "--n", "100", "--trials", "400", "--seed", "5",
            "--check"]
    ok = main(base + ["--horizon", "2000", "--out", str(tmp_path / "a")])
    assert ok == EXIT_OK
    bad = main(base + ["--horizon", "1", "--out", str(tmp_path / "b")])
    assert bad == EXIT_CHECK
    row = json.loads((tmp_path / "b" / "delay.json").read_text())
    assert row["censored_fraction"] >= 0.01


def test_gof_check_passes(tmp_path):
    code = main(["gof", "--n", "500", "--r", "5", "--trials", "30000",
                 "--check", "--out", str(tmp_path / "o")])
    assert code == EXIT_OK
    row = json.loads((tmp_path / "o" / "gof.json").read_text())
    assert row["passed"] is True
    assert row["dof"] >= 1


@pytest.mark.parametrize("n, r", [("4", "2"), ("3", "1.7320508075688772")])
def test_gof_at_r_sqrt_n_fails_with_one_line(tmp_path, n, r):
    # at r = sqrt(n) every destination starts in range, so no placement
    # could be kept: the run is refused up front, with no numpy warning
    proc = subprocess.run(
        [sys.executable, "-m", "mobidelay.cli", "gof", "--n", n, "--r", r,
         "--out", str(tmp_path / "o")],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert proc.stderr.startswith("error: ")
    assert "RuntimeWarning" not in proc.stderr


def test_sweep_check_iid_slope(tmp_path):
    code = main(["sweep", "--n", "64,128,256", "--beta", "0",
                 "--trials", "1000", "--horizon", "2000",
                 "--format", "both", "--check", "--out", str(tmp_path / "o")])
    assert code == EXIT_OK
    doc = json.loads((tmp_path / "o" / "sweep.json").read_text())
    assert doc["valid"] is True
    assert doc["slope"] <= 0.65
    with open(tmp_path / "o" / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(row["n"]) for row in rows] == [64, 128, 256]


def test_meet_check_and_determinism(tmp_path):
    base = ["meet", "--n", "100", "--r", "2", "--trials", "4000", "--check"]
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(base + ["--format", "both", "--out", str(a)]) == EXIT_OK
    assert main(base + ["--format", "both", "--out", str(b)]) == EXIT_OK
    assert (a / "meet.json").read_bytes() == (b / "meet.json").read_bytes()
    assert (a / "meet.csv").read_bytes() == (b / "meet.csv").read_bytes()


def test_meet_check_passes_a_sample_at_one(tmp_path):
    # at tau = 0 every trial starts out of range: the CCDF is exactly 1,
    # above the bound 1 - r^2/(3n), but by far less than its binomial error
    code = main(["meet", "--n", "1000000", "--r", "1", "--trials", "2000",
                 "--horizon", "40", "--check", "--out", str(tmp_path / "o")])
    assert code == EXIT_OK


@pytest.mark.parametrize("score_sigmas,want", [(3.01, EXIT_CHECK), (2.99, EXIT_OK)])
def test_meet_check_fails_a_row_three_score_sigmas_over(tmp_path, monkeypatch,
                                                        score_sigmas, want):
    sweep = cli.run_ccdf_sweep

    def pushed(*args, **kwargs):
        rows = sweep(*args, **kwargs)
        row = rows[3]
        bound = row["bound"]
        row["ccdf"] = bound + score_sigmas * math.sqrt(bound * (1.0 - bound) / row["trials"])
        return rows

    monkeypatch.setattr(cli, "run_ccdf_sweep", pushed)
    code = main(["meet", "--n", "400", "--r", "4", "--trials", "2000",
                 "--horizon", "40", "--check", "--out", str(tmp_path / "o")])
    assert code == want


def test_dominance_run(tmp_path):
    code = main(["dominance", "--model", "levy", "--alpha", "0.8,1.6",
                 "--n", "64", "--trials", "600", "--horizon", "60",
                 "--format", "csv", "--out", str(tmp_path / "o")])
    assert code == EXIT_OK
    with open(tmp_path / "o" / "dominance.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 51  # t = 0..50
    assert rows[0]["t"] == "0"


def test_dominance_rejects_iid():
    cfg = parse_args(["dominance", "--n", "64"])
    assert run(cfg) == EXIT_USAGE


@pytest.mark.parametrize("argv, message", [
    (["meet", "--n", "400", "--r", "4", "--horizon", "20"],
     "horizon 20 must exceed tau_max 30"),
    (["dominance", "--model", "levy", "--horizon", "40"],
     "horizon 40 must exceed the largest t, 50"),
])
def test_short_horizon_errors_name_the_bound(tmp_path, capsys, argv, message):
    assert main(argv + ["--out", str(tmp_path / "o")]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"


_TWO_WORKER_DOMINANCE = ["dominance", "--model", "levy", "--alpha", "0.5,2.0",
                         "--n", "64,100", "--r", "2", "--trials", "2100",
                         "--horizon", "60", "--workers", "2"]


def _assert_no_child_left():
    # every worker a block runner forked has been reaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_run_reaps_its_workers(tmp_path):
    # four block-runner calls (two tail exponents at two population
    # sizes), each of three blocks in two groups, each fork a worker;
    # each call reaps its own before it returns
    assert run(parse_args(_TWO_WORKER_DOMINANCE + ["--out", str(tmp_path / "o")])) == EXIT_OK
    _assert_no_child_left()


def test_a_failed_run_reaps_its_workers(tmp_path, monkeypatch, capsys):
    # with a one-window budget the first search that needs two windows
    # fails: the run exits 1 and leaves no worker behind
    monkeypatch.setattr(world, "_WINDOW_BUDGET", 1)
    assert run(parse_args(_TWO_WORKER_DOMINANCE + ["--out", str(tmp_path / "o")])) == EXIT_USAGE
    assert "budget exceeded" in capsys.readouterr().err
    _assert_no_child_left()


_TWO_WORKER_MEET = ["meet", "--n", "100", "--r", "2", "--trials", "3000",
                    "--horizon", "50", "--workers", "2"]


def _in_workers_only(monkeypatch, act):
    # _contact_group calls act() in a forked worker and runs as usual
    # in the caller
    caller, contact_group = os.getpid(), world._contact_group

    def patched(task):
        if os.getpid() != caller:
            act()
        return contact_group(task)

    monkeypatch.setattr(world, "_contact_group", patched)


def test_a_two_worker_run_prints_each_line_once(tmp_path, capfd):
    # a worker leaves by os._exit: it never returns into the CLI's code
    # or writes to the caller's streams
    assert main(_TWO_WORKER_MEET + ["--out", str(tmp_path / "o")]) == EXIT_OK
    out, err = capfd.readouterr()
    assert err == ""
    assert len(out.splitlines()) == 1 and out.startswith("meet: ")


@pytest.mark.parametrize("where", ["caller", "worker"])
@pytest.mark.parametrize("message, line", [
    ("Unable to allocate 3.05 GiB for an array with shape (1024, 399999)",
     "error: Unable to allocate 3.05 GiB for an array with shape (1024, 399999)"),
    ("", "error: out of memory"),
], ids=["numpy", "bare"])
def test_running_out_of_memory_exits_1_with_one_line(tmp_path, monkeypatch, capfd,
                                                     where, message, line):
    # numpy's _ArrayMemoryError is a MemoryError; a worker's is raised
    # again in the caller, so one mapping covers both
    def oom():
        raise MemoryError(message)

    if where == "caller":
        monkeypatch.setattr(world, "_contact_group", lambda task: oom())
    else:
        _in_workers_only(monkeypatch, oom)
    assert main(_TWO_WORKER_MEET + ["--out", str(tmp_path / "o")]) == EXIT_USAGE
    assert capfd.readouterr() == ("", line + "\n")
    _assert_no_child_left()


def test_a_worker_that_exits_without_a_result_fails_the_run(tmp_path, monkeypatch,
                                                            capfd):
    _in_workers_only(monkeypatch, lambda: os._exit(3))
    assert main(_TWO_WORKER_MEET + ["--out", str(tmp_path / "o")]) == EXIT_USAGE
    assert capfd.readouterr() == (
        "", "error: a worker exited without a result (exit status 3)\n")
    _assert_no_child_left()


def test_sweep_r_flag_rejected_for_grids():
    cfg = parse_args(["sweep", "--n", "64,128,256", "--r", "2",
                      "--trials", "1000"])
    assert run(cfg) == EXIT_USAGE


def test_meet_uses_r_as_given(tmp_path):
    out = tmp_path / "o"
    assert main(["meet", "--n", "100", "--r", "2", "--trials", "200",
                 "--format", "both", "--out", str(out)]) == EXIT_OK
    rows = json.loads((out / "meet.json").read_text())
    assert {row["r"] for row in rows} == {2.0}
    with open(out / "meet.csv", newline="") as fh:
        assert {float(row["r"]) for row in csv.DictReader(fh)} == {2.0}


@pytest.mark.parametrize("r", ["5", "0.5"])
def test_meet_accepts_r_outside_the_exponent_range(tmp_path, r):
    # r = 5 and r = 0.5 at n = 400 lie outside r = n**beta, beta in
    # [0, 1/4]; a fixed range needs no exponent, as for delay
    for sub in ("meet", "delay"):
        assert main([sub, "--n", "400", "--r", r, "--trials", "200",
                     "--horizon", "50", "--out", str(tmp_path / sub)]) == EXIT_OK


def test_teleport_runs_ignore_alpha(tmp_path):
    # the teleport model has no flights, so --alpha leaves its run as is
    base = ["meet", "--n", "100", "--r", "2", "--trials", "300", "--horizon", "50"]
    assert main(base + ["--out", str(tmp_path / "a")]) == EXIT_OK
    assert main(base + ["--alpha", "1", "--out", str(tmp_path / "b")]) == EXIT_OK
    assert ((tmp_path / "a" / "meet.json").read_bytes()
            == (tmp_path / "b" / "meet.json").read_bytes())


@pytest.mark.parametrize("sub", ["delay", "bounds", "gof"])
def test_single_population_subcommands_reject_grids(tmp_path, sub, capsys):
    assert main([sub, "--n", "100,400", "--trials", "0",
                 "--out", str(tmp_path / "o")]) == EXIT_USAGE
    assert "one --n" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("sub", ["meet", "delay", "bounds"])
@pytest.mark.parametrize("model", ["levy", "iid"])
def test_single_alpha_subcommands_reject_lists(tmp_path, sub, model, capsys):
    # only dominance takes two exponents; the others would run the first
    assert main([sub, "--model", model, "--alpha", "0.5,2.0", "--n", "100", "--r", "2",
                 "--trials", "100", "--horizon", "40",
                 "--out", str(tmp_path / "o")]) == EXIT_USAGE
    assert "give one --alpha" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


# ---------------------------------------------------------------------------
# subprocess surface


def test_module_entry_point(tmp_path):
    out = tmp_path / "o"
    proc = subprocess.run(
        [sys.executable, "-m", "mobidelay.cli", "bounds", "--n", "100",
         "--r", "2", "--trials", "0", "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (out / "bounds.json").exists()


@pytest.mark.parametrize("sub", ["meet", "delay"])
def test_overflowing_flights_fail_with_one_line(tmp_path, sub):
    # at alpha 0.01 some flight's squared length overflows within the
    # first slots: the run exits 1 with one error line and no numpy warning
    proc = subprocess.run(
        [sys.executable, "-m", "mobidelay.cli", sub, "--model", "levy", "--alpha", "0.01",
         "--n", "400", "--r", "2", "--trials", "200", "--horizon", "40",
         "--out", str(tmp_path / "o")],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert "overflows a float" in proc.stderr


def _modules_after_a_meet_run(tmp_path, prefixes, trials):
    code = ("import sys\n"
            "import mobidelay.cli as cli\n"
            f"code = cli.main(['meet', '--n', '100', '--r', '2', '--trials', '{trials}',"
            f" '--horizon', '50', '--out', {str(tmp_path / 'o')!r}])\n"
            f"print(code, sorted(m for m in sys.modules if m.startswith({prefixes!r})))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_cli_and_a_meet_run_leave_scipy_unloaded(tmp_path):
    # scipy.stats is most of the package's import time; only the exact
    # binomial bound and the goodness-of-fit test load it
    assert _modules_after_a_meet_run(tmp_path, ("scipy",), 200) == "0 []"


def test_cli_and_a_one_worker_run_leave_the_pool_unloaded(tmp_path):
    # multiprocessing pulls in logging and socket; the block runners
    # fork their workers without it, and a one-worker run forks none
    assert _modules_after_a_meet_run(
        tmp_path, ("concurrent", "multiprocessing"), 20_000) == "0 []"


def test_help_documents_defaults():
    proc = subprocess.run(
        [sys.executable, "-m", "mobidelay.cli", "bounds", "--help"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    text = " ".join(proc.stdout.split())
    assert "0x5EED_CAFE" in text
    assert "defaults" in text
    for sub, (_, trials, _) in SUBCOMMANDS.items():
        assert f"{sub} {trials}" in text
    assert f"{DEFAULT_HORIZON_IID} slots i.i.d." in text
    assert f"{DEFAULT_HORIZON_LEVY} heavy-flight" in text


def test_unknown_flag_exits_1():
    proc = subprocess.run(
        [sys.executable, "-m", "mobidelay.cli", "bounds", "--speed", "9"],
        capture_output=True, text=True)
    assert proc.returncode == 1
    assert "--speed" in proc.stderr


def test_low_alpha_run_fails_in_bounded_time(tmp_path):
    # alpha 0.1 draws flights that wrap ~1e18 times in one slot; the
    # contact search exhausts its window budget and the run exits 1
    proc = subprocess.run(
        [sys.executable, "-m", "mobidelay.cli", "meet", "--model", "levy",
         "--alpha", "0.1", "--n", "400", "--r", "2", "--trials", "200",
         "--horizon", "40", "--out", str(tmp_path / "o")],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


def test_overflowing_flight_length_exits_1(tmp_path):
    # at alpha 0.01 the Pareto inverse CDF overflows to inf; the bounds
    # Monte Carlo must fail with an error line, not count NaN distances
    proc = subprocess.run(
        [sys.executable, "-m", "mobidelay.cli", "bounds", "--model", "levy",
         "--alpha", "0.01", "--n", "10000", "--r", "4", "--trials", "200000",
         "--out", str(tmp_path / "o")],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ")
    assert "alpha=0.01" in proc.stderr
    assert "Traceback" not in proc.stderr
