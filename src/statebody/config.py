"""Experiment configuration: JSON in, validated dataclass out.

Validation errors always name the offending field so a bad config fails with
an actionable message (and exit code 2 at the CLI).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field as _dc_field

EXPERIMENTS = (
    "omega",
    "gamma",
    "height-check",
    "corner-probe",
    "area-crosscheck",
    "polytope-gamma",
    "sampler-validate",
)

# smallest n_samples that keeps each experiment statistically meaningful
MIN_SAMPLES = {
    "omega": 10_000,
    "gamma": 1_000,
    "height-check": 1_000,
    "corner-probe": 1_000,
    "area-crosscheck": 10_000,
    "polytope-gamma": 1_000,
    "sampler-validate": 10_000,
}

_SHAPE_REQUIRED = ("omega", "gamma", "height-check", "corner-probe", "area-crosscheck")
_PPT_REQUIRED = ("omega", "corner-probe", "area-crosscheck")

POLYTOPE_PRESETS = ("cube", "cross", "simplex", "random-unit")

TOLERANCE_DEFAULTS = {
    "sigma": 3.0,
    "height_tol": 1e-9,
    "corner_ratio_max": 0.2,
    "p_threshold": 0.01,
}


class ConfigError(ValueError):
    """A configuration field failed validation."""

    def __init__(self, field_name: str, message: str):
        self.field = field_name
        super().__init__(f"{field_name}: {message}")


def _parse_shape(value):
    if isinstance(value, str):
        parts = value.lower().split("x")
        if len(parts) != 2:
            raise ConfigError("shape", f"expected 'KxM', got {value!r}")
        try:
            value = [int(p) for p in parts]
        except ValueError:
            raise ConfigError("shape", f"expected 'KxM' with integers, got {value!r}")
    if not (isinstance(value, (list, tuple)) and len(value) == 2
            and all(isinstance(v, int) and not isinstance(v, bool) for v in value)):
        raise ConfigError("shape", f"expected [K, M] integers, got {value!r}")
    k, m = value
    if k < 1:
        raise ConfigError("shape", f"K must be >= 1, got {k}")
    if m < 2:
        raise ConfigError("shape", f"M must be >= 2, got {m}")
    return (k, m)


def _check_shards(shards, experiment: str) -> int:
    """Validate a shard count; sampler-validate draws no sharded sweep, so it
    takes only one shard."""
    if not isinstance(shards, int) or isinstance(shards, bool) or shards < 1:
        raise ConfigError("shards", f"expected an integer >= 1, got {shards!r}")
    if shards > 1 and experiment == "sampler-validate":
        raise ConfigError("shards", f"sampler-validate runs unsharded, got {shards}")
    return shards


def _require_int(d: dict, key: str, minimum: int):
    if key not in d:
        raise ConfigError(key, "required field is missing")
    v = d[key]
    if not isinstance(v, int) or isinstance(v, bool):
        raise ConfigError(key, f"expected an integer, got {v!r}")
    if v < minimum:
        raise ConfigError(key, f"must be >= {minimum}, got {v}")
    return v


@dataclass(frozen=True)
class ExperimentConfig:
    """A fully validated experiment description."""

    experiment: str
    n_samples: int
    seed: int
    field: str = "complex"
    shape: tuple | None = None
    body: str = "full"
    shards: int = 1
    deltas: tuple = (1e-1, 1e-2, 1e-3, 1e-4)
    preset: str | None = None
    dim: int | None = None
    n_generators: int = 500
    generators: tuple | None = None
    target: float | None = None
    tolerances: dict = _dc_field(default_factory=dict)
    output_path: str = "results"

    def tolerance(self, key: str) -> float:
        return self.tolerances.get(key, TOLERANCE_DEFAULTS[key])

    def canonical_dict(self) -> dict:
        """Resolved config with defaults applied, for hashing and records."""
        out = {
            "experiment": self.experiment,
            "n_samples": self.n_samples,
            "seed": self.seed,
            "field": self.field,
            "shards": self.shards,
            "output_path": self.output_path,
            "tolerances": {k: self.tolerances.get(k, v)
                           for k, v in sorted(TOLERANCE_DEFAULTS.items())},
        }
        if self.shape is not None:
            out["shape"] = list(self.shape)
        if self.experiment in ("gamma", "height-check"):
            out["body"] = self.body
        if self.experiment == "corner-probe":
            out["deltas"] = list(self.deltas)
        if self.experiment == "polytope-gamma":
            if self.generators is not None:
                out["generators"] = [list(g) for g in self.generators]
            else:
                out["preset"] = self.preset
                out["dim"] = self.dim
                if self.preset == "random-unit":
                    out["n_generators"] = self.n_generators
            if self.target is not None:
                out["target"] = self.target
        return out

    def config_hash(self) -> str:
        """Identity of the experiment; ``output_path`` is not part of it."""
        canon = self.canonical_dict()
        del canon["output_path"]
        blob = json.dumps(canon, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


_KNOWN_KEYS = {
    "experiment", "n_samples", "seed", "field", "shape", "body", "shards",
    "deltas", "preset", "dim", "n_generators", "generators", "target",
    "tolerances", "output_path",
}


def config_from_dict(d: dict) -> ExperimentConfig:
    if not isinstance(d, dict):
        raise ConfigError("<root>", f"expected a JSON object, got {type(d).__name__}")
    unknown = sorted(set(d) - _KNOWN_KEYS)
    if unknown:
        raise ConfigError(unknown[0], "unknown configuration field")

    if "experiment" not in d:
        raise ConfigError("experiment", "required field is missing")
    exp = d["experiment"]
    if exp not in EXPERIMENTS:
        raise ConfigError("experiment",
                          f"must be one of {list(EXPERIMENTS)}, got {exp!r}")

    n = _require_int(d, "n_samples", MIN_SAMPLES[exp])
    seed = _require_int(d, "seed", 0)
    shards = _check_shards(d.get("shards", 1), exp)

    fieldname = d.get("field", "complex")
    if fieldname not in ("complex", "real"):
        raise ConfigError("field", f"must be 'complex' or 'real', got {fieldname!r}")

    shape = None
    if "shape" in d and d["shape"] is not None:
        shape = _parse_shape(d["shape"])
    if exp in _SHAPE_REQUIRED and shape is None:
        raise ConfigError("shape", f"required for experiment {exp!r}")

    body = d.get("body", "full")
    if body not in ("full", "ppt"):
        raise ConfigError("body", f"must be 'full' or 'ppt', got {body!r}")
    needs_ppt = exp in _PPT_REQUIRED or (exp in ("gamma", "height-check")
                                         and body == "ppt")
    if needs_ppt and shape is not None and shape[0] < 2:
        raise ConfigError("shape",
                          f"experiment {exp!r} needs a bipartite K >= 2 system, "
                          f"got {shape[0]}x{shape[1]}")

    deltas = tuple(float(x) for x in d.get("deltas", (1e-1, 1e-2, 1e-3, 1e-4)))
    if exp == "corner-probe":
        if any(x < 0 for x in deltas):
            raise ConfigError("deltas", f"must be nonnegative, got {list(deltas)}")
        if any(b >= a for a, b in zip(deltas, deltas[1:])):
            raise ConfigError("deltas",
                              f"must be strictly decreasing, got {list(deltas)}")

    preset = d.get("preset")
    dim = d.get("dim")
    gens = d.get("generators")
    n_gen = d.get("n_generators", 500)
    target = d.get("target")
    if exp == "polytope-gamma":
        if gens is not None:
            try:
                gens = tuple(tuple(float(x) for x in row) for row in gens)
            except (TypeError, ValueError):
                raise ConfigError("generators", "expected a list of numeric rows")
            widths = {len(row) for row in gens}
            if len(widths) != 1:
                raise ConfigError("generators", "rows have inconsistent lengths")
        else:
            if preset not in POLYTOPE_PRESETS:
                raise ConfigError(
                    "preset",
                    f"must be one of {list(POLYTOPE_PRESETS)} (or give "
                    f"'generators'), got {preset!r}")
            if not isinstance(dim, int) or isinstance(dim, bool) or dim < 2:
                raise ConfigError("dim", f"expected an integer >= 2, got {dim!r}")
            if not isinstance(n_gen, int) or isinstance(n_gen, bool) or n_gen < dim + 1:
                raise ConfigError("n_generators",
                                  f"expected an integer > dim, got {n_gen!r}")
        if target is not None and not isinstance(target, (int, float)):
            raise ConfigError("target", f"expected a number, got {target!r}")

    tols = d.get("tolerances", {})
    if not isinstance(tols, dict):
        raise ConfigError("tolerances", f"expected an object, got {tols!r}")
    for k, v in tols.items():
        if k not in TOLERANCE_DEFAULTS:
            raise ConfigError(f"tolerances.{k}", "unknown tolerance key")
        if not isinstance(v, (int, float)) or isinstance(v, bool) or v <= 0:
            raise ConfigError(f"tolerances.{k}", f"expected a positive number, got {v!r}")

    out_path = d.get("output_path", "results")
    if not isinstance(out_path, str) or not out_path:
        raise ConfigError("output_path", f"expected a nonempty string, got {out_path!r}")

    return ExperimentConfig(
        experiment=exp,
        n_samples=n,
        seed=seed,
        field=fieldname,
        shape=shape,
        body=body,
        shards=shards,
        deltas=deltas,
        preset=preset,
        dim=dim,
        n_generators=n_gen,
        generators=gens,
        target=float(target) if target is not None else None,
        tolerances=dict(tols),
        output_path=out_path,
    )


def config_from_json(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ConfigError("<file>", f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError("<file>", f"invalid JSON in {path}: {exc}")
    return config_from_dict(data)
