"""Experiment configuration: JSON in, validated dataclass out.

``config_from_dict`` is the one place that decides what a config means. Every
experiment reads ``SHARED_FIELDS`` plus the fields ``READS`` lists for it; a
field it does not read is rejected rather than silently ignored. Validation
errors always name the offending field so a bad config fails with an
actionable message (and exit code 2 at the CLI).
"""

from __future__ import annotations

import hashlib
import json
import math
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field as _dc_field, fields

from .estimators import _deltas
from .hermitian import BipartiteShape, _dtype, _integer
from .sampling import RngStream

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

SHARED_FIELDS = ("experiment", "n_samples", "seed", "shards", "tolerances",
                 "output_path")

# the fields each experiment reads besides the shared ones; polytope-gamma
# reads either explicit generators or a preset (see _reads)
READS = {
    "omega": ("field", "shape"),
    "gamma": ("field", "shape", "body"),
    "height-check": ("field", "shape", "body"),
    "corner-probe": ("field", "shape", "deltas"),
    "area-crosscheck": ("field", "shape"),
    "polytope-gamma": ("preset", "dim", "n_generators", "generators"),
    "sampler-validate": ("field",),
}

_PPT_REQUIRED = ("omega", "corner-probe", "area-crosscheck")

POLYTOPE_PRESETS = ("cube", "cross", "simplex", "random-unit")

TOLERANCE_DEFAULTS = {
    "sigma": 3.0,
    "p_threshold": 0.01,
}


class ConfigError(ValueError):
    """A configuration field failed validation."""

    def __init__(self, field_name: str, message: str):
        self.field = field_name
        super().__init__(f"{field_name}: {message}")


def _reads(experiment: str, generators, preset) -> tuple:
    """All fields ``experiment`` reads: explicit generators replace the
    preset, and only the random-unit preset reads ``n_generators``."""
    if generators is not None:
        unread = ("preset", "dim", "n_generators")
    else:
        unread = () if preset == "random-unit" else ("n_generators",)
    return SHARED_FIELDS + tuple(k for k in READS[experiment] if k not in unread)


def _plain(value):
    """Tuples as JSON lists, so a canonical dict equals its JSON round trip."""
    return [_plain(v) for v in value] if isinstance(value, tuple) else value


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
    tolerances: dict = _dc_field(default_factory=dict)
    output_path: str = "results"

    def tolerance(self, key: str) -> float:
        return self.tolerances.get(key, TOLERANCE_DEFAULTS[key])

    def canonical_dict(self) -> dict:
        """Resolved config with defaults applied, for hashing and records:
        the shared fields plus the set fields the experiment reads."""
        keep = _reads(self.experiment, self.generators, self.preset)
        out = {f.name: _plain(getattr(self, f.name)) for f in fields(self)
               if f.name in keep and getattr(self, f.name) is not None}
        out["tolerances"] = {k: self.tolerances.get(k, v)
                             for k, v in sorted(TOLERANCE_DEFAULTS.items())}
        return out

    def config_hash(self) -> str:
        """Identity of the experiment; ``output_path`` is not part of it."""
        canon = self.canonical_dict()
        del canon["output_path"]
        blob = json.dumps(canon, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


# every field at its default; None marks the three required ones
_DEFAULTS = asdict(ExperimentConfig(experiment=None, n_samples=None, seed=None))


def _is_number(v) -> bool:
    """An int or a finite float: JSON's NaN and Infinity are rejected. The
    comparison is math.isfinite without its OverflowError on huge ints."""
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and -math.inf < v < math.inf)


@contextmanager
def _library_rule(key: str):
    """Re-raise the ValueError of a library check as a ConfigError naming
    ``key``: each rule on a value is written once, in the library."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(key, str(exc)) from None


def _required(key: str, v):
    if v is None:
        raise ConfigError(key, "required field is missing")
    return v


def _require_int(key: str, v, minimum: int) -> int:
    v = _required(key, v)
    with _library_rule(key):
        return _integer(key, v, minimum)


def _parse_shape(value) -> tuple:
    if isinstance(value, str):
        parts = value.lower().split("x")
        if len(parts) != 2:
            raise ConfigError("shape", f"expected 'KxM', got {value!r}")
        try:
            value = [int(p) for p in parts]
        except ValueError:
            raise ConfigError("shape", f"expected 'KxM' with integers, got {value!r}")
    if not (isinstance(value, (list, tuple)) and len(value) == 2):
        raise ConfigError("shape", f"expected [K, M] integers, got {value!r}")
    with _library_rule("shape"):
        shape = BipartiteShape(*value)
    return (shape.k, shape.m)


def _parse_deltas(value) -> tuple:
    with _library_rule("deltas"):
        deltas = _deltas(value)
    if len(deltas) < 2:
        # the verdict compares the last two fractions
        raise ConfigError("deltas", f"needs at least two thresholds, got {list(deltas)}")
    return deltas


def _parse_generators(value) -> tuple:
    if not (isinstance(value, (list, tuple)) and value
            and all(isinstance(row, (list, tuple)) and row for row in value)):
        raise ConfigError("generators", "expected a nonempty list of nonempty rows")
    bad = [x for row in value for x in row if not _is_number(x)]
    if bad:
        raise ConfigError("generators", f"expected finite numbers, got {bad[0]!r}")
    if len({len(row) for row in value}) != 1:
        raise ConfigError("generators", "rows have inconsistent lengths")
    return tuple(tuple(float(x) for x in row) for row in value)


def config_from_dict(d: dict) -> ExperimentConfig:
    """Validate a config; a JSON null counts as an absent field."""
    if not isinstance(d, dict):
        raise ConfigError("<root>", f"expected a JSON object, got {type(d).__name__}")
    unknown = sorted(set(d) - set(_DEFAULTS))
    if unknown:
        raise ConfigError(unknown[0], "unknown configuration field")
    given = {k: v for k, v in d.items() if v is not None}

    exp = given.get("experiment")
    if exp is None:
        raise ConfigError("experiment", "required field is missing")
    if not isinstance(exp, str) or exp not in READS:
        raise ConfigError("experiment", f"must be one of {list(READS)}, got {exp!r}")
    keep = _reads(exp, given.get("generators"), given.get("preset"))
    unread = sorted(set(given) - set(keep))
    if unread:
        raise ConfigError(unread[0], f"experiment {exp!r} does not read it; it reads "
                                     f"{', '.join(keep)}")
    c = {k: given.get(k, _DEFAULTS[k]) for k in keep}

    c["n_samples"] = _require_int("n_samples", c["n_samples"], MIN_SAMPLES[exp])
    seed = _required("seed", c["seed"])
    with _library_rule("seed"):
        # a seed is one 64-bit word of the Philox key; a larger one would draw
        # the numbers of its residue mod 2^64 under another config hash
        c["seed"] = RngStream(seed).seed
    c["shards"] = _require_int("shards", c["shards"], 1)
    if c["shards"] > c["n_samples"]:
        # every shard beyond n_samples draws nothing and only costs time
        raise ConfigError("shards", f"must be <= n_samples = {c['n_samples']}, "
                                    f"got {c['shards']}")
    if c["shards"] > 1 and exp == "sampler-validate":
        # the sampler battery draws no sharded sweep
        raise ConfigError("shards", f"sampler-validate runs unsharded, got {c['shards']}")

    if "field" in c:
        with _library_rule("field"):
            _dtype(c["field"])
    if "shape" in c:
        if c["shape"] is None:
            raise ConfigError("shape", f"required for experiment {exp!r}")
        c["shape"] = _parse_shape(c["shape"])
    if "body" in c and c["body"] not in ("full", "ppt"):
        raise ConfigError("body", f"must be 'full' or 'ppt', got {c['body']!r}")
    if (exp in _PPT_REQUIRED or c.get("body") == "ppt") and c["shape"][0] < 2:
        raise ConfigError("shape",
                          f"experiment {exp!r} needs a bipartite K >= 2 system, "
                          f"got {c['shape'][0]}x{c['shape'][1]}")
    if "deltas" in c:
        c["deltas"] = _parse_deltas(c["deltas"])

    if c.get("generators") is not None:
        c["generators"] = _parse_generators(c["generators"])
    if "preset" in c and c["preset"] not in POLYTOPE_PRESETS:
        raise ConfigError("preset", f"must be one of {list(POLYTOPE_PRESETS)} (or "
                                    f"give 'generators'), got {c['preset']!r}")
    if "dim" in c:
        c["dim"] = _require_int("dim", c["dim"], 2)
    if "n_generators" in c:
        c["n_generators"] = _require_int("n_generators", c["n_generators"], c["dim"] + 1)

    if not isinstance(c["tolerances"], dict):
        raise ConfigError("tolerances", f"expected an object, got {c['tolerances']!r}")
    for k, v in c["tolerances"].items():
        if k not in TOLERANCE_DEFAULTS:
            raise ConfigError(f"tolerances.{k}", "unknown tolerance key")
        if not _is_number(v) or v <= 0:
            raise ConfigError(f"tolerances.{k}",
                              f"expected a positive finite number, got {v!r}")
        if k == "p_threshold" and v >= 1:
            # no p-value exceeds 1, so every run would fail its band
            raise ConfigError(f"tolerances.{k}", f"must be below 1, got {v!r}")
    c["tolerances"] = dict(c["tolerances"])
    if not isinstance(c["output_path"], str) or not c["output_path"]:
        raise ConfigError("output_path",
                          f"expected a nonempty string, got {c['output_path']!r}")
    return ExperimentConfig(**c)


def config_from_json(path, overrides: dict | None = None) -> ExperimentConfig:
    """Load a JSON config; ``overrides`` replace its fields before the one
    validation pass, so they are checked exactly like the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError("<file>", f"cannot read config file {path}: {exc.strerror or exc}")
    except ValueError as exc:  # invalid UTF-8 or invalid JSON
        raise ConfigError("<file>", f"invalid JSON in {path}: {exc}")
    if overrides and isinstance(data, dict):
        data = {**data, **overrides}
    return config_from_dict(data)
