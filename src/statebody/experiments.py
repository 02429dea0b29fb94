"""Experiment dispatch: config in, persisted result record out.

Each experiment builds its estimate, compares it against its target band and
returns a :class:`ResultRecord`; ``write=True`` also persists the JSON record
and CSV row under the config's output path.
"""

from __future__ import annotations

import time
from dataclasses import asdict

import numpy as np

from . import __version__
from .config import ConfigError, ExperimentConfig
from .estimators import (
    InsufficientSamplesError,
    corner_probe,
    cross_validate_area,
    estimate_omega,
    height_certificate,
    inner_law,
    mc_gamma,
    radius_law,
)
from .geometry import BodySpec
from .hermitian import BipartiteShape
from .polytopes import (
    TangentBody,
    UnboundedBodyError,
    cross_generators,
    cube_generators,
    random_unit_generators,
    simplex_generators,
)
from .records import ResultRecord, write_record
from .sampling import RngStream
from .validation import sampler_validation

# largest ratio of the last two corner fractions a corner probe passes with
CORNER_RATIO_MAX = 0.2


def _shape(config: ExperimentConfig) -> BipartiteShape:
    k, m = config.shape
    return BipartiteShape(k, m, config.field)


def _band(config: ExperimentConfig, value: float, stderr: float, target: float):
    """(value, stderr, target, sigma_dev, passed) of a value checked against
    ``target`` within the config's sigma band."""
    dev = (value - target) / stderr
    return value, stderr, target, dev, bool(abs(dev) <= config.tolerance("sigma"))


def _run_omega(config: ExperimentConfig, rng: RngStream):
    rep = estimate_omega(_shape(config), config.n_samples, rng, config.shards)
    metrics = {
        "p_interior": asdict(rep.p_interior),
        "p_boundary": asdict(rep.p_boundary),
        "omega": rep.omega,
        "omega_stderr": rep.stderr,
    }
    return metrics, *_band(config, rep.omega, rep.stderr, 2.0)


def _run_gamma(config: ExperimentConfig, rng: RngStream):
    body = BodySpec(config.body, _shape(config))
    law = inner_law(body, config.n_samples, rng, config.shards)
    metrics = {
        "gamma": asdict(law.gamma),
        "n_kept": law.n_kept,
        "p_value": law.p_value,
        "body": law.body,
        "dim_body": body.dim,
    }
    value, stderr, target, dev, in_band = _band(config, law.gamma.value,
                                                law.gamma.stderr, float(body.dim))
    return (metrics, value, stderr, target, dev,
            in_band and law.p_value > config.tolerance("p_threshold"))


def _run_height_check(config: ExperimentConfig, rng: RngStream):
    body = BodySpec(config.body, _shape(config))
    law = radius_law(body, config.n_samples, rng, config.shards)
    metrics = {
        "body": law.body,
        "n_boundary": law.n_boundary,
        "n_interior": law.n_interior,
        "p_value": law.p_value,
    }
    return (metrics, law.p_value, None, None, None,
            bool(law.p_value > config.tolerance("p_threshold")))


def _run_corner_probe(config: ExperimentConfig, rng: RngStream):
    res = corner_probe(_shape(config), config.n_samples, config.deltas, rng,
                       config.shards)
    fracs = [row[1] for row in res.rows]
    if fracs[-2] == 0:
        raise InsufficientSamplesError(
            f"no boundary sample within delta {res.rows[-2][0]:g} of the corner set; "
            "the last ratio is undefined at this sample size")
    monotone = all(a >= b for a, b in zip(fracs, fracs[1:]))
    last_ratio = fracs[-1] / fracs[-2]
    metrics = {
        "rows": [{"delta": d, "fraction": f, "stderr": s} for d, f, s in res.rows],
        "monotone": monotone,
        "last_ratio": last_ratio,
        "exponents": [{"delta_hi": hi, "delta_lo": lo, "exponent": a, "stderr": se}
                      for hi, lo, (a, se) in zip(config.deltas, config.deltas[1:],
                                                 res.exponents)],
    }
    return (metrics, last_ratio, None, None, None,
            bool(monotone and last_ratio <= CORNER_RATIO_MAX))


def _run_area_crosscheck(config: ExperimentConfig, rng: RngStream):
    acc = cross_validate_area(_shape(config), config.n_samples, rng, config.shards)
    sigma = config.tolerance("sigma")
    metrics = {
        "area_ppt_radial": asdict(acc.radial),
        "area_ppt_doubled": asdict(acc.doubled),
        "discrepancy_sigma": acc.discrepancy_sigma,
    }
    return (metrics, acc.discrepancy_sigma, None, 0.0, acc.discrepancy_sigma,
            bool(acc.discrepancy_sigma <= sigma))


def _build_polytope(config: ExperimentConfig, rng: RngStream) -> TangentBody:
    """The config's polytope; generators the polytope rules reject are a
    config error, an unbounded body a numerical one."""
    builders = {
        "cube": lambda: cube_generators(config.dim),
        "cross": lambda: cross_generators(config.dim),
        "simplex": lambda: simplex_generators(config.dim),
        "random-unit": lambda: random_unit_generators(
            config.dim, config.n_generators, rng),
    }
    explicit = config.generators is not None
    try:
        if explicit:
            return TangentBody(np.asarray(config.generators, dtype=float))
        return TangentBody(builders[config.preset]())
    except UnboundedBodyError:
        raise
    except ValueError as exc:
        raise ConfigError("generators" if explicit else "dim", str(exc)) from exc


def _run_polytope_gamma(config: ExperimentConfig, rng: RngStream):
    # sibling streams, so no sweep chunk can redraw the generators
    body = _build_polytope(config, rng.child(0))
    est = mc_gamma(body, config.n_samples, rng.child(1), config.shards)
    height = height_certificate(body, min(config.n_samples, 20000), rng.child(2),
                                shards=config.shards)
    target = config.target if config.target is not None else float(body.dim)
    metrics = {
        "gamma": asdict(est),
        "dim": body.dim,
        "n_generators": body.n_generators,
        "all_unit": body.all_unit,
        "height_max_deviation": height.max_abs_deviation,
    }
    return metrics, *_band(config, est.value, est.stderr, target)


def _run_sampler_validate(config: ExperimentConfig, rng: RngStream):
    checks = sampler_validation(config.field, config.n_samples, rng,
                                p_threshold=config.tolerance("p_threshold"))
    p_values = [c["p_value"] for c in checks.values()
                if isinstance(c, dict) and "p_value" in c]
    metrics = dict(checks)
    return (metrics, min(p_values), None, None, None, bool(checks["all_passed"]))


_RUNNERS = {
    "omega": _run_omega,
    "gamma": _run_gamma,
    "height-check": _run_height_check,
    "corner-probe": _run_corner_probe,
    "area-crosscheck": _run_area_crosscheck,
    "polytope-gamma": _run_polytope_gamma,
    "sampler-validate": _run_sampler_validate,
}


def run_experiment(config: ExperimentConfig, write: bool = True) -> ResultRecord:
    """Run one experiment and (optionally) persist its record."""
    rng = RngStream(config.seed)
    t0 = time.perf_counter()
    metrics, value, stderr, target, sigma_dev, passed = _RUNNERS[config.experiment](
        config, rng)
    wall = time.perf_counter() - t0
    record = ResultRecord(
        experiment=config.experiment,
        config=config.canonical_dict(),
        config_hash=config.config_hash(),
        metrics=metrics,
        value=float(value),
        stderr=None if stderr is None else float(stderr),
        target=None if target is None else float(target),
        sigma_dev=None if sigma_dev is None else float(sigma_dev),
        passed=bool(passed),
        version=__version__,
        wall_time_s=wall,
    )
    if write:
        write_record(record, config.output_path)
    return record


def summary_line(record: ResultRecord) -> str:
    shape = record.config.get("shape")
    where = "x".join(str(s) for s in shape) if shape else record.config.get(
        "preset") or "-"
    bits = [record.experiment, where, record.config.get("field", ""),
            f"n={record.config['n_samples']}", f"seed={record.config['seed']}"]
    head = " ".join(str(b) for b in bits if b)
    if record.stderr is not None and record.target is not None:
        tail = (f"value={record.value:.6g} +- {record.stderr:.2g} "
                f"target={record.target:g} ({record.sigma_dev:+.2f} sigma)")
    elif record.target is not None:
        tail = f"value={record.value:.6g} target={record.target:g}"
    else:
        tail = f"value={record.value:.6g}"
    verdict = "PASS" if record.passed else "FAIL"
    return f"{head} -> {tail} {verdict}"
