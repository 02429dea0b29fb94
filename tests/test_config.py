"""Config parsing: field-level errors, canonical hashing, JSON loading."""

import json

import numpy as np
import pytest

from statebody import ConfigError, config_from_dict, config_from_json
from statebody.config import MIN_SAMPLES


def base(**over):
    d = {"experiment": "gamma", "shape": "1x3", "n_samples": 1000, "seed": 1}
    d.update(over)
    return d


def test_minimal_config_parses():
    cfg = config_from_dict(base())
    assert cfg.experiment == "gamma"
    assert cfg.shape == (1, 3)
    assert cfg.field == "complex"
    assert cfg.shards == 1
    assert cfg.output_path == "results"


def test_shape_string_and_list_agree():
    a = config_from_dict(base(shape="2x3"))
    b = config_from_dict(base(shape=[2, 3]))
    assert a.shape == b.shape == (2, 3)
    assert a.config_hash() == b.config_hash()


def test_unknown_key_is_named():
    with pytest.raises(ConfigError) as err:
        config_from_dict(base(n_sampels=5000))
    assert err.value.field == "n_sampels"


def test_missing_required_fields():
    with pytest.raises(ConfigError) as err:
        config_from_dict({"experiment": "gamma", "shape": "1x3", "seed": 0})
    assert err.value.field == "n_samples"
    with pytest.raises(ConfigError) as err:
        config_from_dict({"experiment": "omega", "n_samples": 10000, "seed": 0})
    assert err.value.field == "shape"


def test_sample_floor_per_experiment():
    assert MIN_SAMPLES["omega"] == 10_000
    with pytest.raises(ConfigError) as err:
        config_from_dict({"experiment": "omega", "shape": "2x2",
                          "n_samples": 100, "seed": 0})
    assert err.value.field == "n_samples"


def test_bool_is_not_an_int():
    with pytest.raises(ConfigError):
        config_from_dict(base(n_samples=True))
    with pytest.raises(ConfigError):
        config_from_dict(base(seed=False))


def test_seed_range_is_64_bits():
    # RngStream keys Philox with one 64-bit word of the seed; a larger seed
    # would draw the numbers of its residue mod 2^64 under another hash
    assert config_from_dict(base(seed=2**64 - 1)).seed == 2**64 - 1
    for bad in (2**64, 5 + 2**64, -1):
        with pytest.raises(ConfigError) as err:
            config_from_dict(base(seed=bad))
        assert err.value.field == "seed"


def test_bad_shape_strings():
    for bad in ("abc", "2x", "2x3x4", "0x3", "3x1"):
        with pytest.raises(ConfigError) as err:
            config_from_dict(base(shape=bad))
        assert err.value.field == "shape"
    for bad in ([2, 1.5], [True, 3], [0, 3], [2, 1], [2]):
        with pytest.raises(ConfigError) as err:
            config_from_dict(base(shape=bad))
        assert err.value.field == "shape"


def test_numpy_integers_are_stored_as_ints():
    """The library's integer rule accepts numpy integers; the config keeps
    them as Python ints, so its hash and record are those of the plain
    config."""
    cfg = config_from_dict(base(n_samples=np.int64(1000), seed=np.uint64(1),
                                shape=[np.int32(1), np.int64(3)], shards=np.int8(1)))
    assert cfg == config_from_dict(base())
    assert cfg.config_hash() == config_from_dict(base()).config_hash()
    assert all(type(v) is int for v in (cfg.n_samples, cfg.seed, cfg.shards, *cfg.shape))


def test_omega_needs_a_bipartite_shape():
    with pytest.raises(ConfigError) as err:
        config_from_dict({"experiment": "omega", "shape": "1x4",
                          "n_samples": 10000, "seed": 0})
    assert err.value.field == "shape"
    # a 1xM gamma run is fine: the full body needs no partial transpose
    config_from_dict(base(shape="1x4"))
    # but the ppt body does
    with pytest.raises(ConfigError):
        config_from_dict(base(shape="1x4", body="ppt"))


def test_field_and_body_enums():
    with pytest.raises(ConfigError) as err:
        config_from_dict(base(field="quaternionic"))
    assert err.value.field == "field"
    with pytest.raises(ConfigError) as err:
        config_from_dict(base(body="interior"))
    assert err.value.field == "body"


def test_corner_probe_delta_validation():
    good = {"experiment": "corner-probe", "shape": "2x2", "n_samples": 1000,
            "seed": 0, "deltas": [1e-1, 1e-3]}
    assert config_from_dict(good).deltas == (1e-1, 1e-3)
    for bad in ([1e-3, 1e-1], 0.1, ["a"], [0.1, None], "0.1", [], [0.1], [0.1, 0.0]):
        with pytest.raises(ConfigError) as err:
            config_from_dict({**good, "deltas": bad})
        assert err.value.field == "deltas"


def test_unread_fields_are_rejected():
    cube = {"experiment": "polytope-gamma", "n_samples": 1000, "seed": 0,
            "preset": "cube", "dim": 3}
    cases = [
        (base(deltas=[0.1, 0.01]), "deltas"),
        ({**cube, "field": "real"}, "field"),
        ({**cube, "n_generators": 10}, "n_generators"),
        ({"experiment": "polytope-gamma", "n_samples": 1000, "seed": 0,
          "generators": [[1, 0], [-1, 0], [0, 1], [0, -1]], "preset": "cube"},
         "preset"),
    ]
    for d, name in cases:
        with pytest.raises(ConfigError) as err:
            config_from_dict(d)
        assert err.value.field == name
    # a JSON null counts as absent, and random-unit does read n_generators
    config_from_dict({**cube, "field": None, "shape": None})
    config_from_dict({**cube, "preset": "random-unit", "n_generators": 10})


def test_polytope_config_validation():
    ok = {"experiment": "polytope-gamma", "n_samples": 1000, "seed": 0,
          "preset": "cube", "dim": 3}
    assert config_from_dict(ok).preset == "cube"
    with pytest.raises(ConfigError) as err:
        config_from_dict({**ok, "preset": "dodecahedron"})
    assert err.value.field == "preset"
    with pytest.raises(ConfigError) as err:
        config_from_dict({"experiment": "polytope-gamma", "n_samples": 1000,
                          "seed": 0, "preset": "cube"})
    assert err.value.field == "dim"
    with pytest.raises(ConfigError) as err:
        config_from_dict({"experiment": "polytope-gamma", "n_samples": 1000,
                          "seed": 0, "generators": [[1, 0], [1, 0, 0]]})
    assert err.value.field == "generators"


def test_generator_entries_are_finite_numbers():
    square = [[1, 0], [-1, 0], [0, 1], [0, -1]]
    cases = [
        ([["1", 0], *square[1:]], "finite numbers, got '1'"),
        ([[True, 0], *square[1:]], "finite numbers, got True"),
        ([], "nonempty list of nonempty rows"),
        ([[]], "nonempty list of nonempty rows"),
        ([[1, 0], []], "nonempty list of nonempty rows"),
    ]
    for gens, message in cases:
        with pytest.raises(ConfigError, match=message) as err:
            config_from_dict({"experiment": "polytope-gamma", "n_samples": 1000,
                              "seed": 0, "generators": gens})
        assert err.value.field == "generators"
    cfg = config_from_dict({"experiment": "polytope-gamma", "n_samples": 1000,
                            "seed": 0, "generators": square})
    assert cfg.generators == ((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0))


def test_tolerance_overrides():
    cfg = config_from_dict(base(tolerances={"sigma": 4.0}))
    assert cfg.tolerance("sigma") == 4.0
    # the constant-height tolerance is fixed for polytopes, and state bodies
    # test constant height by a p-value
    with pytest.raises(ConfigError) as err:
        config_from_dict(base(tolerances={"height_tol": 1e-9}))
    assert err.value.field == "tolerances.height_tol"
    # the corner-probe ratio bound is fixed too
    with pytest.raises(ConfigError) as err:
        config_from_dict(base(tolerances={"corner_ratio_max": 0.2}))
    assert err.value.field == "tolerances.corner_ratio_max"
    with pytest.raises(ConfigError) as err:
        config_from_dict(base(tolerances={"sgima": 4.0}))
    assert err.value.field == "tolerances.sgima"
    with pytest.raises(ConfigError):
        config_from_dict(base(tolerances={"sigma": -1.0}))
    # no p-value exceeds a threshold of 1, so every band would fail
    assert config_from_dict(base(tolerances={"p_threshold": 0.5})).tolerance(
        "p_threshold") == 0.5
    for bad in (1, 1.0, 2.5):
        with pytest.raises(ConfigError) as err:
            config_from_dict(base(tolerances={"p_threshold": bad}))
        assert err.value.field == "tolerances.p_threshold"


def test_removed_nongeneric_max_is_unknown():
    with pytest.raises(ConfigError) as err:
        config_from_dict(base(tolerances={"nongeneric_max": 1e-3}))
    assert err.value.field == "tolerances.nongeneric_max"


def test_sampler_validate_rejects_shards():
    d = {"experiment": "sampler-validate", "n_samples": 10000, "seed": 0}
    assert config_from_dict({**d, "shards": 1}).shards == 1
    with pytest.raises(ConfigError) as err:
        config_from_dict({**d, "shards": 2})
    assert err.value.field == "shards"


def test_shards_beyond_samples_are_rejected():
    assert config_from_dict(base(shards=1000)).shards == 1000
    with pytest.raises(ConfigError) as err:
        config_from_dict(base(shards=1001))
    assert err.value.field == "shards"


def test_non_finite_numbers_are_rejected(tmp_path):
    # json parses NaN and Infinity; a record cannot hold them, so they must
    # fail here rather than after the run
    gamma = '"experiment": "gamma", "shape": "1x3"'
    probe = '"experiment": "corner-probe", "shape": "2x2"'
    cases = [
        (gamma, '"tolerances": {"sigma": Infinity}', "tolerances.sigma"),
        (gamma, '"tolerances": {"p_threshold": NaN}', "tolerances.p_threshold"),
        (probe, '"deltas": [Infinity, 0.1]', "deltas"),
        ('"experiment": "polytope-gamma"', '"generators": [[NaN, 0], [-1, 0], [0, 1]]',
         "generators"),
    ]
    path = tmp_path / "cfg.json"
    for head, text, name in cases:
        path.write_text(f'{{{head}, "n_samples": 1000, "seed": 0, {text}}}')
        with pytest.raises(ConfigError) as err:
            config_from_json(path)
        assert err.value.field == name


def test_removed_target_is_unknown():
    # a polytope's band is centred on its dimension D, the constant-height value
    with pytest.raises(ConfigError) as err:
        config_from_dict({"experiment": "polytope-gamma", "preset": "cube", "dim": 3,
                          "n_samples": 1000, "seed": 0, "target": 3.0})
    assert err.value.field == "target"


def test_hash_is_stable_and_sensitive():
    cfg = config_from_dict(base())
    assert cfg.config_hash() == config_from_dict(base()).config_hash()
    assert cfg.config_hash() != config_from_dict(base(seed=2)).config_hash()
    assert cfg.config_hash() != config_from_dict(base(n_samples=2000)).config_hash()
    assert cfg.config_hash() == config_from_dict(base(output_path="elsewhere")).config_hash()
    assert len(cfg.config_hash()) == 64


def test_canonical_dict_resolves_defaults():
    cfg = config_from_dict(base())
    canon = cfg.canonical_dict()
    assert canon["tolerances"]["sigma"] == 3.0
    assert canon["body"] == "full"
    assert "deltas" not in canon  # corner-probe only


def test_config_from_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(base()))
    cfg = config_from_json(path)
    assert cfg.n_samples == 1000
    with pytest.raises(ConfigError) as err:
        config_from_json(tmp_path / "missing.json")
    assert err.value.field == "<file>"
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        config_from_json(bad)
