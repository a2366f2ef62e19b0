"""The engine against the independent replay of its stream contract, and
the block-runner outputs the benchmark reads."""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from mobidelay import world
from mobidelay.world import ModelConfig
from replay import BLOCK, replay

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("cfg,trials,relay", [
    (ModelConfig(n=400, r=4.0, horizon_slots=40), 300, False),
    (ModelConfig(n=400, r=4.0, model="levy", alpha=1.0, horizon_slots=30), 300, False),
    (ModelConfig(n=400, r=4.0, model="levy", alpha=2.0, horizon_slots=30), 300, False),
    # two blocks advance in one group; the replay runs them one by one
    (ModelConfig(n=100, r=2.0, horizon_slots=30), BLOCK + 300, False),
    (ModelConfig(n=200, r=2.0, horizon_slots=40), 300, True),
    # r above sqrt(n): every source sees a lens, some the whole disc
    (ModelConfig(n=12, r=4.0, horizon_slots=20), 300, True),
    (ModelConfig(n=60, r=1.5, model="levy", alpha=1.0, horizon_slots=30), BLOCK + 76, True),
], ids=["iid", "levy-1", "levy-2", "iid-2-blocks", "relay-iid", "relay-iid-wide",
        "relay-levy-1-2-blocks"])
def test_engine_matches_replay_trial_by_trial(cfg, trials, relay):
    # layouts bit for bit; the same trials meet, at the same times up to
    # rounding, which near-tangent wrapped chords can amplify
    salt = 340
    l0, nc, tm, _ = replay(cfg, trials, salt, relay)
    e_l0, e_nc, e_tm = world._run_sharded(cfg, trials, salt, 1, cfg.n if relay else 2)
    assert np.array_equal(l0, e_l0) and np.array_equal(nc, e_nc)
    fin = np.isfinite(tm)
    assert np.array_equal(fin, np.isfinite(e_tm))
    np.testing.assert_allclose(tm[fin], e_tm[fin], rtol=0, atol=1e-9)
    # some trials start in range, and some meet only after moving
    assert np.any(tm == 0.0) and np.any(tm[fin] > 0.0)
    if relay:
        assert np.any(nc > 2)


@pytest.mark.parametrize("cfg", [
    ModelConfig(n=60, r=1.5, horizon_slots=6),
    ModelConfig(n=60, r=1.5, model="levy", alpha=1.0, horizon_slots=6),
], ids=["iid", "levy-1"])
def test_benchmark_reads_the_times_array(cfg):
    # bench/rep.py counts trials, slots and censoring from one element of
    # each block runner's result: that element is the times array
    spec = importlib.util.spec_from_file_location("bench_rep", ROOT / "bench" / "rep.py")
    rep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(rep)
    trials = 300
    for name, index in rep.BLOCK_RUNNERS.items():
        t = getattr(world, name)(cfg, trials, salt=350)[index]
        assert isinstance(t, np.ndarray) and t.dtype == np.float64 and t.shape == (trials,)
        want = replay(cfg, trials, 350, relay=name == "scheme_delays")[2]
        censored = np.isinf(want)
        assert censored.any() and not censored.all()
        assert np.array_equal(np.isinf(t), censored) and np.all(t[censored] == math.inf)
        np.testing.assert_allclose(t[~censored], want[~censored], rtol=0, atol=1e-9)
