"""End-to-end CLI behaviour: exit codes, records on disk, overrides."""

import json

import pytest

from statebody import config_from_dict, estimators, run_experiment, sample_boundary_state_hs
from statebody.cli import main

from ginibre_reference import blocks_of


def write_cfg(tmp_path, name="cfg.json", **over):
    d = {"experiment": "gamma", "shape": "1x3", "n_samples": 1000, "seed": 4,
         "output_path": str(tmp_path / "out")}
    d.update(over)
    path = tmp_path / name
    path.write_text(json.dumps(d))
    return path


def test_run_pass_exit_zero(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    assert main(["run", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "gamma" in out
    outdir = tmp_path / "out"
    assert (outdir / "results.csv").exists()
    assert len(list(outdir.glob("gamma-*.json"))) == 1


def test_run_band_failure_exit_one(tmp_path, capsys):
    # a non-constant-height body misses the default gamma = dim target
    cfg = write_cfg(
        tmp_path,
        experiment="polytope-gamma",
        shape=None,
        n_samples=20000,
        generators=[[1, 0], [-1, 0], [0, -1], [0, 0.6666666666666666]],
    )
    assert main(["run", str(cfg)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_config_error_exit_two(tmp_path, capsys):
    cfg = write_cfg(tmp_path, n_samples=3)  # below the experiment floor
    assert main(["run", str(cfg)]) == 2
    assert "n_samples" in capsys.readouterr().err
    assert main(["run", str(tmp_path / "nope.json")]) == 2
    # a path that exists but cannot be read as UTF-8 JSON text
    (tmp_path / "latin1.json").write_bytes(b'{"experiment": "\xe9"}')
    for path in (tmp_path, tmp_path / "latin1.json"):
        assert main(["run", str(path)]) == 2
        assert "config error: <file>:" in capsys.readouterr().err
    # generator sets the polytope rules reject name the field that made them
    polytope = dict(experiment="polytope-gamma", shape=None)
    for over, name in ((dict(preset="cross", dim=20), "dim"),
                       (dict(generators=[[1.5, 0], [-1, 0], [0, 1], [0, -1]]),
                        "generators")):
        cfg = write_cfg(tmp_path, **polytope, **over)
        assert main(["run", str(cfg)]) == 2
        assert f"config error: {name}:" in capsys.readouterr().err
    # a seed that would alias its residue mod 2^64, and a p_threshold that no
    # p-value can exceed
    for over, name in ((dict(seed=5 + 2**64), "seed"),
                       (dict(tolerances={"p_threshold": 1.0}), "tolerances.p_threshold")):
        assert main(["run", str(write_cfg(tmp_path, **over))]) == 2
        assert f"config error: {name}:" in capsys.readouterr().err


def test_non_finite_tolerance_exit_two(tmp_path, capsys):
    cfg = tmp_path / "inf.json"
    cfg.write_text(write_cfg(tmp_path).read_text()[:-1]
                   + ', "tolerances": {"sigma": Infinity}}')
    assert main(["run", str(cfg)]) == 2
    assert "config error: tolerances.sigma:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_numerical_error_exit_three(tmp_path, capsys):
    cfg = write_cfg(tmp_path, experiment="polytope-gamma", shape=None,
                    generators=[[1, 0], [0, 1]])
    assert main(["run", str(cfg)]) == 3
    assert "unbounded" in capsys.readouterr().err
    # no boundary sample this close to the corner set: the last ratio of the
    # corner probe is undefined, and no record is written
    cfg = write_cfg(tmp_path, experiment="corner-probe", shape="2x2", seed=1,
                    deltas=[1e-7, 1e-8])
    assert main(["run", str(cfg)]) == 3
    assert "delta 1e-07" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_non_finite_partial_transpose_exit_three(tmp_path, monkeypatch, capsys):
    """A NaN that reaches the corner probe's eigenvalue counts is a failed
    eigensolve, not a count."""

    def nan_states(shape, stream, count):
        states = sample_boundary_state_hs(shape, stream, count)
        states[0, 0, 0] = float("nan")
        return states

    monkeypatch.setattr(estimators, "boundary_blocks", blocks_of(nan_states))
    cfg = write_cfg(tmp_path, experiment="corner-probe", shape="2x2", seed=1)
    assert main(["run", str(cfg)]) == 3
    assert "non-finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_seed_override_changes_the_record(tmp_path):
    cfg = write_cfg(tmp_path)
    assert main(["run", str(cfg)]) == 0
    assert main(["run", str(cfg), "--seed", "5"]) == 0
    names = sorted(p.name for p in (tmp_path / "out").glob("gamma-*.json"))
    assert len(names) == 2  # different seed, different config hash
    assert main(["run", str(cfg), "--samples", "10"]) == 2  # floor still applies


def test_overrides_are_validated_like_the_file(tmp_path, capsys):
    omega = dict(experiment="omega", shape="2x2", n_samples=10000)
    polytope = dict(experiment="polytope-gamma", shape=None, preset="cube", dim=3)
    cases = [
        (omega, ["--shape", "1x4"], "shape"),  # 1xM has no partial transpose
        (dict(omega, experiment="gamma", body="ppt"), ["--shape", "1x4"], "shape"),
        (dict(omega, experiment="corner-probe", n_samples=1000), ["--shape", "1x3"],
         "shape"),
        (polytope, ["--shape", "2x2"], "shape"),
        (polytope, ["--field", "real"], "field"),
    ]
    for over, flags, name in cases:
        cfg = write_cfg(tmp_path, **over)
        assert main(["run", str(cfg), *flags]) == 2
        assert f"config error: {name}:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()  # no record and no CSV row


def test_validate_samplers_rejects_other_experiments(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    assert main(["validate-samplers", str(cfg)]) == 2
    assert "experiment" in capsys.readouterr().err


def test_validate_samplers_runs(tmp_path, capsys):
    cfg = write_cfg(tmp_path, experiment="sampler-validate", shape=None,
                    n_samples=10000, seed=11)
    assert main(["validate-samplers", str(cfg)]) == 0
    assert "PASS" in capsys.readouterr().out


def test_validate_samplers_rejects_shards(tmp_path, capsys):
    cfg = write_cfg(tmp_path, experiment="sampler-validate", shape=None,
                    n_samples=10000, seed=11)
    assert main(["validate-samplers", str(cfg), "--shards", "2"]) == 2
    assert "shards" in capsys.readouterr().err


def test_report(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    main(["run", str(cfg)])
    outdir = tmp_path / "out"
    assert main(["report", str(outdir)]) == 0
    assert (outdir / "summary.md").exists()
    assert (outdir / "summary.csv").exists()
    assert "| gamma |" in capsys.readouterr().out
    assert main(["report", str(tmp_path / "missing")]) == 2
    empty = tmp_path / "empty"
    empty.mkdir()
    (empty / "junk.json").write_text("{]")
    assert main(["report", str(empty)]) == 1


def test_rerun_is_byte_identical(tmp_path):
    """Identical (config, seed, shards) must reproduce every number exactly."""
    d = {"experiment": "omega", "shape": "2x2", "n_samples": 10000, "seed": 21,
         "shards": 2, "output_path": str(tmp_path / "out")}
    rec_a = run_experiment(config_from_dict(d), write=False)
    rec_b = run_experiment(config_from_dict(d), write=False)
    assert json.dumps(rec_a.metrics, sort_keys=True) == json.dumps(
        rec_b.metrics, sort_keys=True)
    assert rec_a.value == rec_b.value
    assert rec_a.stderr == rec_b.stderr
    assert rec_a.config_hash == rec_b.config_hash


def test_runner_smoke_height_and_corner(tmp_path, capsys):
    hc = write_cfg(tmp_path, "h.json", experiment="height-check", shape="2x2",
                   body="ppt", n_samples=2000)
    assert main(["run", str(hc)]) == 0
    cp = write_cfg(tmp_path, "c.json", experiment="corner-probe", shape="2x2",
                   n_samples=50000, deltas=[1e-1, 1e-2, 1e-3])
    assert main(["run", str(cp)]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 2
