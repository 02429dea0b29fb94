"""Import contract: scipy loads only in the functions that use it.

omega, the corner probe, the area cross-check and ``statebody report`` run on
numpy alone, a polytope needs ``scipy.optimize`` for its one LP, and the
KS/chi-square tests need ``scipy.stats``. A fresh interpreter runs each step
in turn and reports which of the two scipy modules are loaded after it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = r"""
import json, sys, tempfile

def loaded():
    return [m for m in ("scipy.stats", "scipy.optimize") if m in sys.modules]

steps = []
import statebody
steps.append(("import statebody", loaded()))

from statebody import config_from_dict, run_experiment
from statebody.cli import main
from statebody.config import MIN_SAMPLES

def run(experiment, **fields):
    d = dict(fields, experiment=experiment, n_samples=MIN_SAMPLES[experiment],
             seed=3, output_path=out)
    run_experiment(config_from_dict(d), write=True)
    steps.append((experiment, loaded()))

with tempfile.TemporaryDirectory() as out:
    run("omega", shape="2x2")
    run("corner-probe", shape="2x2")
    run("area-crosscheck", shape="2x2")
    main(["report", out])
    steps.append(("report", loaded()))
    run("polytope-gamma", preset="cube", dim=3)
    run("gamma", shape="1x3")
print(json.dumps(steps))
"""


def test_scipy_loads_only_where_it_is_used():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", SCRIPT], env=env, check=True,
                         capture_output=True, text=True, timeout=300).stdout
    steps = dict(json.loads(out.splitlines()[-1]))
    for step in ("import statebody", "omega", "corner-probe", "area-crosscheck",
                 "report"):
        assert steps[step] == [], step
    assert steps["polytope-gamma"] == ["scipy.optimize"]
    # not vacuous: the first KS/chi-square test does load scipy.stats
    assert "scipy.stats" in steps["gamma"]
