"""The benchmark's workloads: fixed lists of statebody experiment configs.

Each case is a label plus a config dict without its seed; the runner adds a
seed drawn from the workload seed and validates the dict with
``statebody.config_from_dict``. Why each workload exists is recorded in
``BENCHMARK.json`` and ``perfbench/README.md``.

Band widths. Every experiment's ``passed`` flag is part of the output check,
and a batch of benchmark runs executes hundreds of experiments. At the
default 3-sigma band (two-sided 0.27% per experiment) a correct program would
fail some omega check in such a batch more often than not. The configs
therefore carry a Bonferroni-style band: sigma = 5 (5.7e-7 per experiment)
and p_threshold = 1e-6 for the sampler battery's two-sample tests. A biased
sampler or a wrong PPT test still misses these bands by many sigma at the
benchmark's sample counts; the acceptance suite keeps the 3-sigma bands. The
battery's purity and Bloch checks use a fixed 4-sigma band (about 2e-4 per
experiment together) that no config can widen.
"""

from __future__ import annotations

BANDS = {"sigma": 5.0, "p_threshold": 1e-6}

WORKLOADS = {
    "omega-states": [
        ("omega 2x2 complex", {"experiment": "omega", "shape": "2x2",
                               "field": "complex", "n_samples": 32768,
                               "shards": 2}),
        ("omega 2x3 complex", {"experiment": "omega", "shape": "2x3",
                               "field": "complex", "n_samples": 32768,
                               "shards": 2}),
        ("omega 2x2 real", {"experiment": "omega", "shape": "2x2",
                            "field": "real", "n_samples": 32768, "shards": 2}),
    ],
    "gamma-radial": [
        ("gamma full 1x3 complex", {"experiment": "gamma", "shape": "1x3",
                                    "field": "complex", "body": "full",
                                    "n_samples": 65536}),
        ("gamma full 1x4 complex", {"experiment": "gamma", "shape": "1x4",
                                    "field": "complex", "body": "full",
                                    "n_samples": 65536}),
        ("gamma ppt 2x3 complex", {"experiment": "gamma", "shape": "2x3",
                                   "field": "complex", "body": "ppt",
                                   "n_samples": 32768}),
        ("height-check ppt 2x3 real", {"experiment": "height-check",
                                       "shape": "2x3", "field": "real",
                                       "body": "ppt", "n_samples": 32768}),
    ],
    "polytope-lab": [
        ("polytope random-unit dim 6, 500 generators",
         {"experiment": "polytope-gamma", "preset": "random-unit", "dim": 6,
          "n_generators": 500, "n_samples": 131072}),
        ("polytope simplex dim 4", {"experiment": "polytope-gamma",
                                    "preset": "simplex", "dim": 4,
                                    "n_samples": 524288}),
        ("polytope cube dim 4", {"experiment": "polytope-gamma",
                                 "preset": "cube", "dim": 4,
                                 "n_samples": 524288}),
    ],
    "boundary-spectrum": [
        ("corner-probe 2x3 complex", {"experiment": "corner-probe",
                                      "shape": "2x3", "field": "complex",
                                      "n_samples": 32768}),
        ("sampler-validate real", {"experiment": "sampler-validate",
                                   "field": "real", "n_samples": 32768}),
    ],
}
