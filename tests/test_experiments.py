"""Experiment dispatch: every sampling experiment honours its shard count,
draws from disjoint streams and writes a record that loads strictly."""

import json
import math

import pytest

from statebody import config_from_dict, load_records, run_experiment, summary_line
from statebody import estimators, experiments, polytopes
from statebody.config import MIN_SAMPLES

CONFIGS = [
    {"experiment": "height-check", "shape": "2x2", "body": "ppt", "n_samples": 1000},
    {"experiment": "corner-probe", "shape": "2x2", "n_samples": 1000},
    {"experiment": "area-crosscheck", "shape": "2x2", "n_samples": 10000},
    {"experiment": "polytope-gamma", "preset": "cube", "dim": 3, "n_samples": 1000},
]

# the kinds that CONFIGS leaves out, so that together they cover every kind
OTHER_KINDS = [
    {"experiment": "omega", "shape": "2x2"},
    {"experiment": "gamma", "shape": "1x3", "body": "full"},
    {"experiment": "sampler-validate", "field": "complex"},
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


def test_polytope_directions_never_redraw_the_generators(monkeypatch):
    # one direction per chunk, so the gamma sweep runs through 1,000 child
    # streams
    monkeypatch.setattr(polytopes, "_SWEEP_BATCH", 1)
    swept, drawn = set(), set()
    sweep, draw = polytopes._radial_sweep, experiments.random_unit_generators

    def recording_sweep(body, n, rng):
        swept.add(rng)
        return sweep(body, n, rng)

    def recording_draw(dim, count, rng):
        drawn.add(rng)
        return draw(dim, count, rng)

    monkeypatch.setattr(polytopes, "_radial_sweep", recording_sweep)
    monkeypatch.setattr(experiments, "random_unit_generators", recording_draw)
    run_experiment(config_from_dict({"experiment": "polytope-gamma",
                                     "preset": "random-unit", "dim": 6,
                                     "n_samples": 1000, "seed": 5}), write=False)
    assert len(swept) == 1000 and len(drawn) == 1  # the gamma sweep only
    assert swept.isdisjoint(drawn)


def test_every_kind_writes_a_strict_record(tmp_path):
    for config in CONFIGS + OTHER_KINDS:
        exp = config["experiment"]
        run_experiment(config_from_dict({**config, "n_samples": MIN_SAMPLES[exp],
                                         "seed": 1, "output_path": str(tmp_path)}))
    records, errors = load_records(tmp_path)
    assert errors == []
    assert sorted(r.experiment for r in records) == sorted(MIN_SAMPLES)


def test_corner_probe_record_carries_exponents(tmp_path):
    """Each pair of neighbouring deltas gets an exponent and its stderr; a
    zero count writes null, so the record stays strict JSON."""
    run_experiment(config_from_dict({
        "experiment": "corner-probe", "shape": "2x2", "n_samples": 2000, "seed": 1,
        "deltas": [1e-1, 1e-2, 1e-9], "output_path": str(tmp_path)}))
    (record,), errors = load_records(tmp_path)
    assert errors == []
    exps = record.metrics["exponents"]
    assert [(e["delta_hi"], e["delta_lo"]) for e in exps] == [(1e-1, 1e-2), (1e-2, 1e-9)]
    c0, c1, c2 = (round(row["fraction"] * 2000) for row in record.metrics["rows"])
    assert c1 > 0 and c2 == 0
    span = math.log(10.0)
    assert exps[0]["exponent"] == pytest.approx(math.log(c0 / c1) / span)
    assert exps[0]["stderr"] == pytest.approx(math.sqrt((1 - c1 / c0) / c1) / span)
    # no sample within 1e-9: the exponent is undefined, not infinite
    assert exps[1]["exponent"] is None and exps[1]["stderr"] is None
    (path,) = tmp_path.glob("corner-probe-*.json")
    assert json.loads(path.read_text())["metrics"]["exponents"][1]["exponent"] is None


def test_area_crosscheck_summary_has_value_and_target():
    """The cross-check's value is its discrepancy in sigma: the summary shows
    it against the target 0 with no stderr."""
    record = run_experiment(config_from_dict({
        "experiment": "area-crosscheck", "shape": "2x2", "n_samples": 10000,
        "seed": 1}), write=False)
    assert record.stderr is None and record.target == 0.0
    line = summary_line(record)
    assert f"-> value={record.value:.6g} target=0 " in line
    assert "+-" not in line and "sigma" not in line
    assert line.endswith("PASS" if record.passed else "FAIL")
