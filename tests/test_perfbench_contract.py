"""The names and result positions that perfbench's tracer relies on.

``perfbench/spans.py`` patches module globals of statebody by name and its
counters index the results of the patched calls. A refactor that renames one
of those globals or reorders a result tuple would otherwise surface only in
the slow benchmark smoke check.
"""

import importlib
import importlib.util
import sys
from collections import Counter
from pathlib import Path

import pytest

from statebody import BipartiteShape, BodySpec, RngStream, TangentBody, cube_generators
from statebody import estimators, inner_law, mc_gamma, mc_volume, polytopes, sampling

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# boundaries no caller looks up any more: their functions left the package,
# or, for the estimators' stack samplers (the direction sampler included)
# and partial transpose, the sweeps stream sampler blocks into the
# per-block kernels instead. Their time counts to their callers
RETIRED = {"experiments.polytope_gamma_mc", "experiments.constant_height_check",
           "sampling.sample_haar_unitary", "sampling.boundary_eigenvalues_metropolis",
           "validation.boundary_eigenvalues_metropolis",
           "estimators._contact_batch", "experiments.height_certificate",
           "estimators.sample_state_hs", "estimators.sample_boundary_state_hs",
           "estimators.sample_direction", "estimators.partial_transpose"}

SHAPE = BipartiteShape(2, 2)
ROWS = 6


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def _small_result(attr: str):
    """A real result of the function each counted boundary wraps, on ROWS items."""
    rng = RngStream(17)
    if attr in ("sample_state_hs", "sample_boundary_state_hs", "sample_direction"):
        return getattr(sampling, attr)(SHAPE, rng, ROWS)
    if attr == "boundary_eigenvalues_wishart":
        return sampling.boundary_eigenvalues_wishart(3, "complex", rng, ROWS)
    if attr == "_ppt_mask":
        return estimators._ppt_mask(next(sampling.state_blocks(SHAPE, rng, ROWS)), SHAPE)
    if attr == "_radial_sweep":
        return polytopes._radial_sweep(TangentBody(cube_generators(3)), ROWS, rng)
    raise AssertionError(f"no small result for counted boundary {attr}")


def test_every_boundary_resolves(spans):
    missing = set()
    for module_name, attr, _, _ in spans.BOUNDARIES:
        module = importlib.import_module(f"statebody.{module_name}")
        if not callable(getattr(module, attr, None)):
            missing.add(f"{module_name}.{attr}")
    assert missing == RETIRED


def test_each_counter_reads_a_real_result(spans):
    for module_name, attr, _, count in spans.BOUNDARIES:
        if count is None or f"{module_name}.{attr}" in RETIRED:
            continue
        counts = Counter()
        count(counts, _small_result(attr))
        assert counts, attr
        # every counter starts from a total of ROWS items and counts a
        # subset of them (hits, generic directions or ties)
        totals = {k: v for k, v in counts.items()
                  if k in ("sampling.draws", "hermitian.ppt_tests",
                           "polytopes.directions")}
        assert list(totals.values()) == [ROWS], (attr, counts)
        assert all(0 <= v <= ROWS for v in counts.values()), (attr, counts)


def test_installed_tracer_sees_the_production_calls(spans):
    def current():
        return [getattr(importlib.import_module(f"statebody.{m}"), a, None)
                for m, a, _, _ in spans.BOUNDARIES]

    originals = current()
    tracer = spans.Tracer()
    with spans.installed(tracer) as missing:
        estimators.estimate_omega(SHAPE, 256, RngStream(3))
        mc_volume(BodySpec("ppt", SHAPE), 128, RngStream(4))
        mc_gamma(TangentBody(cube_generators(3)), 64, RngStream(5))
        inner_law(BodySpec("ppt", SHAPE), 256, RngStream(6))
    assert set(missing) == RETIRED
    # both PPT routes of omega, then the inner law's row filter, each on
    # the sampler's blocks
    assert tracer.counts["hermitian.ppt_tests"] == 512 + 256
    # mc_volume and inner_law on the PPT body transpose inside the eigen
    # kernel's working copy, which no boundary wraps
    assert not [s for s in tracer.spans if s.metric == "hermitian.partial_transpose_s"]
    assert [s.name for s in tracer.spans if s.metric == "geometry.radial_s"] == [
        "estimators._radial_batch"]
    # the state-body volume sweep runs through no counted boundary since the
    # contact kernel was retired
    assert "geometry.directions" not in tracer.counts
    assert tracer.counts["polytopes.directions"] == 64
    # no draw is counted: every sweep, the direction sweep included, streams
    # from a block source, which no boundary wraps, so the draws' time
    # counts to the radial and PPT spans that consume the blocks
    assert "sampling.draws" not in tracer.counts
    assert all(a is b for a, b in zip(current(), originals))  # patches undone
