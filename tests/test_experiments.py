"""Experiment dispatch: every sampling experiment honours its shard count."""

import pytest

from statebody import config_from_dict, run_experiment
from statebody import estimators

CONFIGS = [
    {"experiment": "height-check", "shape": "2x2", "body": "ppt", "n_samples": 1000},
    {"experiment": "corner-probe", "shape": "2x2", "n_samples": 1000},
    {"experiment": "area-crosscheck", "shape": "2x2", "n_samples": 10000},
    {"experiment": "polytope-gamma", "preset": "cube", "dim": 3, "n_samples": 1000},
]


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c["experiment"])
def test_shards_reach_the_sweep(config, monkeypatch):
    seen = []
    sweep = estimators._sweep

    def recording(n, rng, shards, kernel, **kwargs):
        seen.append(shards)
        return sweep(n, rng, shards, kernel, **kwargs)

    monkeypatch.setattr(estimators, "_sweep", recording)
    run_experiment(config_from_dict({**config, "seed": 1, "shards": 3}), write=False)
    assert seen and set(seen) == {3}
