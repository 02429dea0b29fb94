"""Monte Carlo estimators: volumes, areas, gamma, omega and the laws of constant height."""

import dataclasses
import json
import math
import pickle
import tracemalloc

import numpy as np
import pytest

from statebody import estimators, geometry, hermitian, polytopes, sampling
from statebody import (
    BipartiteShape,
    BodySpec,
    Estimate,
    InsufficientSamplesError,
    RngStream,
    TangentBody,
    config_from_dict,
    corner_probe,
    cross_validate_area,
    cube_generators,
    estimate_omega,
    estimate_p_boundary,
    estimate_p_interior,
    inner_law,
    mc_area,
    mc_gamma,
    mc_volume,
    partial_transpose,
    radius_law,
    run_experiment,
    sphere_area,
    support_height,
)
from statebody.cli import main

QUBIT = BodySpec("full", BipartiteShape(1, 2))
CUBE = TangentBody(cube_generators(3))
SIGMA_LOOSE = 5.0


def test_sphere_area_closed_forms():
    assert sphere_area(1) == pytest.approx(2.0)
    assert sphere_area(2) == pytest.approx(2 * math.pi)
    assert sphere_area(3) == pytest.approx(4 * math.pi)
    assert sphere_area(4) == pytest.approx(2 * math.pi**2)
    with pytest.raises(ValueError):
        sphere_area(0)


def test_estimate_is_frozen():
    est = Estimate(1.0, 0.1, 10, "philox4x64:1:0", "x")
    with pytest.raises(dataclasses.FrozenInstanceError):
        est.value = 2.0


@pytest.mark.parametrize("obj", [
    BodySpec("ppt", BipartiteShape(2, 3, "real")),
    CUBE,
    RngStream(5, 17),
    BipartiteShape(2, 3),
], ids=lambda obj: type(obj).__name__)
def test_pickle_round_trip(obj):
    copy = pickle.loads(pickle.dumps(obj))
    assert type(copy) is type(obj)
    if isinstance(obj, TangentBody):
        assert np.array_equal(copy.generators, obj.generators)
        assert not copy.generators.flags.writeable
        a, b = (mc_gamma(body, 5000, RngStream(3)) for body in (obj, copy))
        assert (a.value, a.stderr) == (b.value, b.stderr)
    else:
        assert copy == obj


# ---------------------------------------------------------------------------
# the qubit body is a ball: every estimator is exact there


def test_qubit_volume_is_exact():
    est = mc_volume(QUBIT, 20000, RngStream(77))
    assert est.value == pytest.approx(math.pi * math.sqrt(2.0) / 3, abs=1e-12)
    assert 0 < est.stderr < 1e-10
    assert est.estimator_id == "mc_volume[full:1x2 complex]"
    assert est.n_samples == 20000


# ---------------------------------------------------------------------------
# gamma of a state body: the inner-parallel law N lambda_min ~ Beta(1, D)


def _assert_law_holds(law, target):
    est = law.gamma
    assert est.stderr > 0
    assert abs(est.value - target) < SIGMA_LOOSE * est.stderr
    assert law.p_value > 0.01


def test_qubit_inner_law():
    law = inner_law(QUBIT, 20000, RngStream(79))
    _assert_law_holds(law, 3)
    assert law.n_samples == law.n_kept == law.gamma.n_samples == 20000
    assert law.gamma.estimator_id == "inner_law[full:1x2 complex]"
    assert law.seed == law.gamma.seed == RngStream(79).describe()


@pytest.mark.parametrize("field,target", [("complex", 8), ("real", 5)])
def test_qutrit_inner_law(field, target):
    body = BodySpec("full", BipartiteShape(1, 3, field))
    law = inner_law(body, 200_000, RngStream(101))
    _assert_law_holds(law, target)
    # an honest error bar: D / sqrt(k - 2), not eigensolver rounding
    assert law.gamma.stderr == pytest.approx(target / math.sqrt(200_000), rel=0.01)


def test_inner_law_of_ppt_body():
    law = inner_law(BodySpec("ppt", BipartiteShape(2, 2)), 100_000, RngStream(103))
    _assert_law_holds(law, 15)
    # about 24% of interior states are PPT
    assert 20_000 < law.n_kept == law.gamma.n_samples < 30_000


def _gram_sampler(extra):
    """The production interior sampler with ``extra`` Ginibre columns more."""
    def sample(shape, rng, size):
        n = shape.n
        cols = (n if shape.field == "complex" else n + 1) + extra
        return sampling._gram_stack(rng.generator(), shape.field, size, n, cols)
    return sample


@pytest.mark.parametrize("extra", [1, -1], ids=["column-more", "column-fewer"])
@pytest.mark.parametrize("body", [BodySpec("full", BipartiteShape(1, 3)),
                                  BodySpec("ppt", BipartiteShape(2, 2))],
                         ids=["full-1x3", "ppt-2x2"])
def test_inner_law_fails_with_a_wrong_gram(monkeypatch, body, extra):
    monkeypatch.setattr(estimators, "sample_state_hs", _gram_sampler(extra))
    law = inner_law(body, 20_000, RngStream(104))
    est = law.gamma
    assert abs(est.value - body.dim) > SIGMA_LOOSE * est.stderr
    assert law.p_value < 1e-6


def test_gamma_experiment_fails_with_a_wrong_gram(monkeypatch):
    monkeypatch.setattr(estimators, "sample_state_hs", _gram_sampler(1))
    for shape, body in (("1x3", "full"), ("2x3", "ppt")):
        d = {"experiment": "gamma", "shape": shape, "body": body,
             "n_samples": 32768, "seed": 105}
        record = run_experiment(config_from_dict(d), write=False)
        assert not record.passed and record.metrics["p_value"] < 1e-6, body


def test_inner_law_reruns_and_shards():
    body = BodySpec("ppt", BipartiteShape(2, 2))
    a = inner_law(body, 9999, RngStream(5))
    assert inner_law(body, 9999, RngStream(5)) == a
    c = inner_law(body, 9999, RngStream(5), shards=3)
    assert inner_law(body, 9999, RngStream(5), shards=3) == c
    assert abs(c.gamma.value - a.gamma.value) > 1e-6 * a.gamma.value
    # shard k draws what a one-shard run on rng.child(k) draws, so the
    # sharded law is the fold of the three shards' kept counts and sums
    parts = [inner_law(body, 3333, RngStream(5).child(k)) for k in range(3)]
    assert c.n_samples == 9999
    assert c.n_kept == sum(p.n_kept for p in parts)
    total = sum((p.n_kept - 1) / p.gamma.value for p in parts)
    assert c.gamma.value == pytest.approx((c.n_kept - 1) / total, rel=1e-12)


@pytest.mark.parametrize("body", [BodySpec("full", BipartiteShape(1, 3)),
                                  BodySpec("full", BipartiteShape(1, 3, "real")),
                                  BodySpec("ppt", BipartiteShape(2, 3))], ids=str)
def test_inner_law_matches_the_eigvalsh_route(monkeypatch, body):
    """The certified Newton minimum moves the state-body estimators only in
    their last bits. The inner law keeps the same rows, every depth lands in
    the same chi-square bin and no row falls back to eigvalsh; the radial
    sweeps of mc_volume and cross_validate_area agree to 1e-12."""
    def run():
        law = inner_law(body, 40_000, RngStream(4600))
        vol = mc_volume(body, 20_000, RngStream(4601))
        check = (cross_validate_area(body.shape, 20_000, RngStream(4602))
                 if body.kind == "ppt" else None)
        return law, vol, check

    law, vol, check = run()
    rows = []

    def eigvalsh_minimum(mats):
        """The eigensolver route the state bodies took before the Newton kernel."""
        rows.append(len(mats))
        return np.linalg.eigvalsh(mats)[:, 0], 0

    monkeypatch.setattr(geometry, "min_eigenvalues", eigvalsh_minimum)
    ref, ref_vol, ref_check = run()
    assert rows  # the patch reached the kernel
    assert law.n_fallback == 0
    assert (law.n_kept, law.p_value) == (ref.n_kept, ref.p_value)
    pairs = [(law.gamma, ref.gamma), (vol, ref_vol)]
    if check is not None:
        assert check.doubled == ref_check.doubled
        pairs.append((check.radial, ref_check.radial))
    for got, want in pairs:
        assert got.value == pytest.approx(want.value, rel=1e-12, abs=0)
        assert got.stderr == pytest.approx(want.stderr, rel=1e-12, abs=0)


def test_inner_law_peak_memory():
    """65,536 full 1x4 complex draws peak at the interior sampler's 33.8 MiB
    (tracemalloc, with the eigvalsh route and with the Newton kernel): the
    kernel's per-group buffers stay below the sampler's own."""
    body = BodySpec("full", BipartiteShape(1, 4))
    inner_law(body, 1000, RngStream(4601))
    tracemalloc.start()
    try:
        inner_law(body, 65_536, RngStream(4601))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 36 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_inner_law_needs_kept_rows(monkeypatch):
    # 3x3 interior states are rarely PPT: none among these 500 draws
    with pytest.raises(InsufficientSamplesError, match="0 of 500"):
        inner_law(BodySpec("ppt", BipartiteShape(3, 3)), 500, RngStream(1))
    # 7 of 20 two-qubit draws are PPT, fewer than LAW_MIN_KEPT
    with pytest.raises(InsufficientSamplesError, match="7 of 20"):
        inner_law(BodySpec("ppt", BipartiteShape(2, 2)), 20, RngStream(1))
    with pytest.raises(ValueError, match="mc_gamma"):
        inner_law(CUBE, 1000, RngStream(1))
    # a sampler that only returns the pure state |0><0| puts every draw on
    # the boundary, where the estimate of D would divide by zero
    pure = np.zeros((3, 3))
    pure[0, 0] = 1.0
    monkeypatch.setattr(estimators, "sample_state_hs", lambda shape, rng, size:
                        np.repeat(pure[None], size, axis=0))
    with pytest.raises(InsufficientSamplesError, match="on the boundary"):
        inner_law(BodySpec("full", BipartiteShape(1, 3)), 1000, RngStream(1))


def test_inner_law_memory_is_flat():
    body = BodySpec("full", BipartiteShape(1, 3))
    peaks = []
    for n in (1 << 17, 1 << 19):
        tracemalloc.start()
        try:
            inner_law(body, n, RngStream(6))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.1 * peaks[0], peaks


def test_mc_gamma_rejects_a_state_body():
    # every sampled height of a state body is the insphere radius by
    # construction, so the radial ratio would read D at any n
    with pytest.raises(ValueError, match="inner_law"):
        mc_gamma(BodySpec("full", BipartiteShape(1, 3)), 1000, RngStream(1))


def test_mc_area_rejects_a_state_body():
    # a state body's heights are r_in by construction, so its area would be
    # D / r_in times its volume
    with pytest.raises(ValueError, match="mc_volume"):
        mc_area(BodySpec("full", BipartiteShape(1, 3)), 1000, RngStream(1))
    with pytest.raises(ValueError, match="mc_volume"):
        mc_area(BodySpec("ppt", BipartiteShape(2, 2)), 1000, RngStream(1))


def test_radius_law_rejects_a_polytope():
    # a polytope's heights are sampled, so mc_gamma tests its constant height
    with pytest.raises(ValueError, match="mc_gamma"):
        radius_law(CUBE, 1000, RngStream(1))


def test_volume_area_determinism_and_shards():
    # not QUBIT: the ball's estimates do not depend on the stream, so a layout
    # check there would rest on a floating-point coincidence
    body = BodySpec("full", BipartiteShape(1, 3))
    a = mc_volume(body, 9999, RngStream(5))
    b = mc_volume(body, 9999, RngStream(5))
    assert a.value == b.value and a.stderr == b.stderr
    c = mc_volume(body, 9999, RngStream(5), shards=3)
    d = mc_volume(body, 9999, RngStream(5), shards=3)
    assert c.value == d.value and c.stderr == d.stderr
    # different shard layout draws a different stream: the values differ by
    # far more than rounding
    assert abs(c.value - a.value) > 1e-6 * abs(a.value)


def test_estimator_rejects_bad_n():
    with pytest.raises(ValueError):
        mc_volume(QUBIT, 0, RngStream(1))
    # one sample has no sample stderr
    with pytest.raises(ValueError, match=">= 2"):
        mc_volume(BodySpec("full", BipartiteShape(1, 3)), 1, RngStream(1))
    with pytest.raises(ValueError):
        mc_gamma(CUBE, -5, RngStream(1))


def _flag_ties(monkeypatch, share):
    """Flag the first ``share`` of every polytope sweep chunk as a face tie."""
    sweep = polytopes._radial_sweep

    def flagged(body, n, rng):
        logr, heights, ok = sweep(body, n, rng)
        ok[: int(len(ok) * share)] = False
        return logr, heights, ok

    monkeypatch.setattr(polytopes, "_radial_sweep", flagged)


def test_area_raises_when_everything_is_nongeneric(monkeypatch):
    # a polytope whose every direction meets a tie has no area and no gamma
    _flag_ties(monkeypatch, 1.0)
    for estimator in (mc_area, mc_gamma):
        with pytest.raises(InsufficientSamplesError, match="non-generic"):
            estimator(CUBE, 500, RngStream(2))


def test_nongeneric_fraction_rule_is_shared(monkeypatch):
    # flag 1% of directions as face ties: far above NONGENERIC_WARN_FRACTION
    # but not all of them
    _flag_ties(monkeypatch, 0.01)
    for estimator in (mc_area, mc_gamma):
        with pytest.raises(InsufficientSamplesError, match="fraction"):
            estimator(CUBE, 1000, RngStream(3))


def test_no_batch_path_solves_for_eigenvectors(monkeypatch):
    """No state-body sweep calls eigh, and every row it passes to eigvalsh
    is a fallback row that min_eigenvalues reported: none with the Newton
    kernel, every row with no Newton sweep."""
    def no_eigh(*args, **kwargs):
        raise AssertionError("eigh called")

    eigvalsh, solved = np.linalg.eigvalsh, []
    minima, reported = geometry.min_eigenvalues, []

    def counted_minima(mats):
        lam, fallbacks = minima(mats)
        reported.append(fallbacks)
        return lam, fallbacks

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: solved.append(len(a)) or eigvalsh(a))
    monkeypatch.setattr(geometry, "min_eigenvalues", counted_minima)
    full = BodySpec("full", BipartiteShape(1, 3))
    ppt = BodySpec("ppt", BipartiteShape(2, 2))
    # the single-direction queries solve for their one zero eigenvector
    with pytest.raises(AssertionError, match="eigh called"):
        support_height(full, estimators.sample_direction(full.shape, RngStream(4), 1)[0])
    for sweeps in (hermitian.NEWTON_SWEEPS, 0):
        monkeypatch.setattr(hermitian, "NEWTON_SWEEPS", sweeps)
        solved.clear()
        reported.clear()
        for body in (full, ppt):
            for estimator in (mc_volume, inner_law, radius_law):
                estimator(body, 2000, RngStream(4))
        cross_validate_area(ppt.shape, 2000, RngStream(4))
        assert sum(solved) == sum(reported)
        assert (sum(reported) > 0) == (sweeps == 0)


# ---------------------------------------------------------------------------
# the radius law: boundary radii against interior radial values


def _boundary_gram_sampler(extra):
    """The production boundary sampler with ``extra`` Ginibre columns more."""
    def sample(shape, rng, size):
        n = shape.n
        cols = (n + 1 if shape.field == "complex" else n + 2) + extra
        return sampling._gram_stack(rng.child(0).generator(), shape.field, size, n,
                                    cols, rng.child(1))
    return sample



def test_radius_law_fails_with_a_wrong_boundary_sampler(monkeypatch):
    body = BodySpec("full", BipartiteShape(1, 3))
    law = radius_law(body, 20_000, RngStream(8))
    assert law.p_value > 0.01
    assert (law.n_boundary, law.n_interior) == (20_000, 20_000)
    assert law.seed == RngStream(8).describe()
    monkeypatch.setattr(estimators, "sample_boundary_state_hs", _boundary_gram_sampler(-1))
    assert radius_law(body, 20_000, RngStream(8)).p_value < 1e-6


def test_height_check_fails_with_a_wrong_boundary_sampler(monkeypatch, tmp_path):
    d = {"experiment": "height-check", "shape": "1x3", "body": "full",
         "n_samples": 20_000, "seed": 8, "output_path": str(tmp_path)}
    monkeypatch.setattr(estimators, "sample_boundary_state_hs", _boundary_gram_sampler(-1))
    record = run_experiment(config_from_dict(d), write=False)
    assert record.metrics["p_value"] < 1e-6 and not record.passed
    cfg = tmp_path / "h.json"
    cfg.write_text(json.dumps(d))
    assert main(["run", str(cfg)]) == 1


@pytest.mark.parametrize("body", [BodySpec("full", BipartiteShape(1, 3)),
                                  BodySpec("full", BipartiteShape(1, 4, "real")),
                                  BodySpec("ppt", BipartiteShape(2, 2)),
                                  BodySpec("ppt", BipartiteShape(2, 3, "real"))], ids=str)
def test_radius_law_interior_radii_are_the_radial_function(monkeypatch, body):
    """The interior radii |rho - I/N| / (1 - s) that reach the KS test equal
    the radial function along each kept state's direction, and the depth
    kernel takes no minimum from eigvalsh."""
    from scipy import stats

    ks_2samp, seen = stats.ks_2samp, []
    monkeypatch.setattr(stats, "ks_2samp", lambda a, b: seen.append(b) or ks_2samp(a, b))
    radius_law(body, 4000, RngStream(4700))
    # one shard and one chunk: the interior side draws from child(1).child(0)
    states, _, fallbacks = estimators._interior_depths(
        body, RngStream(4700).child(1).child(0), 4000)
    dev = states - body.center
    nrm = np.sqrt(np.sum(np.abs(dev) ** 2, axis=(-2, -1)))
    ref = estimators._radial_batch(body, dev / nrm[:, None, None]).min(axis=0)
    assert fallbacks == 0 and len(ref) > 500
    np.testing.assert_allclose(seen[0], ref, rtol=1e-13, atol=0)


def test_radius_law_keeps_ppt_rows_only():
    law = radius_law(BodySpec("ppt", BipartiteShape(2, 2)), 4000, RngStream(9))
    # about 12% of boundary and 24% of interior states are PPT
    assert 0 < law.n_boundary < law.n_interior < 4000
    with pytest.raises(InsufficientSamplesError, match="no PPT boundary"):
        radius_law(BodySpec("ppt", BipartiteShape(3, 3)), 500, RngStream(1))


# ---------------------------------------------------------------------------
# PPT probabilities and omega


def test_p_interior_trivial_for_unipartite():
    # partial transpose over a trivial first factor preserves the spectrum,
    # so every PPT fraction of a K = 1 system is exactly one
    shape = BipartiteShape(1, 3)
    est = estimate_p_interior(shape, 2000, RngStream(7))
    assert est.value == 1.0
    assert est.stderr == pytest.approx(1 / 2000)
    assert estimate_p_boundary(shape, 2000, RngStream(8)).value == 1.0
    # with no PPT section the doubling check would compare V / V = 1 with 2 * 1
    with pytest.raises(ValueError, match="ppt body"):
        cross_validate_area(shape, 2000, RngStream(9))


def test_p_interior_pinned_reference():
    est = estimate_p_interior(BipartiteShape(2, 2), 100_000, RngStream(20240901))
    assert est.value == pytest.approx(0.24372, abs=0)
    assert est.stderr == pytest.approx(0.0013576470881639308, abs=1e-18)
    assert est.estimator_id == "p_interior[2x2 complex]"


def test_omega_report():
    shape = BipartiteShape(2, 2)
    rep = estimate_omega(shape, 20000, RngStream(42))
    assert rep.shape == shape
    assert 0 < rep.p_boundary.value < rep.p_interior.value < 1
    assert abs(rep.omega - 2.0) < SIGMA_LOOSE * rep.stderr
    again = estimate_omega(shape, 20000, RngStream(42))
    assert again.omega == rep.omega and again.stderr == rep.stderr


@pytest.mark.parametrize("extra", [1, -1], ids=["column-more", "column-fewer"])
def test_omega_fails_with_a_wrong_gram(monkeypatch, extra):
    monkeypatch.setattr(estimators, "sample_state_hs", _gram_sampler(extra))
    rep = estimate_omega(BipartiteShape(2, 2), 20_000, RngStream(106))
    assert abs(rep.omega - 2.0) > SIGMA_LOOSE * rep.stderr


@pytest.mark.parametrize("extra", [1, -1], ids=["column-more", "column-fewer"])
def test_omega_fails_with_a_wrong_boundary_sampler(monkeypatch, extra):
    monkeypatch.setattr(estimators, "sample_boundary_state_hs", _boundary_gram_sampler(extra))
    rep = estimate_omega(BipartiteShape(2, 2), 20_000, RngStream(107))
    assert abs(rep.omega - 2.0) > SIGMA_LOOSE * rep.stderr


def _split_z(body, sample, n, rng):
    """z of how many of the PPT rows among n draws of ``sample`` have
    lambda_min(T_A rho) > lambda_min(rho), against Binomial(kept, 1/2)."""
    above = kept = 0
    for j, start in enumerate(range(0, n, estimators.BATCH)):
        states = sample(body.shape, rng.child(j), min(estimators.BATCH, n - start))
        states = states[estimators._ppt_mask(states, body.shape)]
        lam, _ = geometry._constraint_minima(body, states)
        above += int(np.sum(lam[1] > lam[0]))
        kept += len(states)
    return (above - kept / 2) / math.sqrt(kept / 4)


@pytest.mark.parametrize("body, seed", [(BodySpec("ppt", BipartiteShape(2, 2)), 4800),
                                        (BodySpec("ppt", BipartiteShape(2, 3, "real")), 4801)],
                         ids=["ppt-2x2-complex", "ppt-2x3-real"])
def test_partial_transpose_splits_the_ppt_minima_evenly(body, seed):
    """T_A maps the PPT body onto itself, keeps the flat measure and swaps
    the kernel's two rows, so lambda_min(T_A rho) > lambda_min(rho) on half
    the PPT draws whatever the body's height: a check of the sampler alone."""
    assert abs(_split_z(body, sampling.sample_state_hs, 100_000, RngStream(seed))) <= 3


def test_partial_transpose_split_fails_with_a_wrong_gram():
    """An induced measure with one Gram column more is not T_A-invariant:
    on 2x2 complex its PPT rows split about 0.37 to 0.63."""
    body = BodySpec("ppt", BipartiteShape(2, 2))
    assert _split_z(body, _gram_sampler(1), 100_000, RngStream(4802)) < -SIGMA_LOOSE


def test_omega_needs_a_ppt_section():
    # on K = 1 the partial transpose is a full transpose, so every state is
    # PPT and omega would read 1
    with pytest.raises(ValueError, match="ppt body"):
        estimate_omega(BipartiteShape(1, 3), 2000, RngStream(1))


def test_zero_ppt_boundary_hits_raise(monkeypatch):
    # 3x3 boundary states are almost never PPT: none among these 500 draws,
    # and both omega and the doubled area divide by p_boundary
    shape = BipartiteShape(3, 3)
    for estimator in (estimate_omega, cross_validate_area):
        with pytest.raises(InsufficientSamplesError, match="too few PPT boundary hits"):
            estimator(shape, 500, RngStream(1))
    # every boundary draw is the PPT product state |00><00| and every interior
    # draw an entangled Werner state, so only the interior route has no hits,
    # which would make omega 0 with a NaN stderr
    product = np.zeros((4, 4))
    product[0, 0] = 1.0
    phi = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
    werner = 0.9 * np.outer(phi, phi) + 0.025 * np.eye(4)
    monkeypatch.setattr(estimators, "sample_boundary_state_hs", lambda shape, rng, size:
                        (np.repeat(product[None], size, axis=0), None))
    monkeypatch.setattr(estimators, "sample_state_hs", lambda shape, rng, size:
                        np.repeat(werner[None], size, axis=0))
    with pytest.raises(InsufficientSamplesError, match="too few PPT interior hits"):
        estimate_omega(BipartiteShape(2, 2), 1000, RngStream(13))


def test_cross_validate_area():
    """The radial PPT volume fraction never draws a boundary state, so in
    each field it is an independent check of the production boundary
    sampler's PPT fraction, doubled."""
    for field, seed in (("complex", 66), ("real", 67)):
        check = cross_validate_area(BipartiteShape(2, 2, field), 30000, RngStream(seed))
        assert abs(check.discrepancy_sigma) < SIGMA_LOOSE, field
        assert 0 < check.radial.value < 1 and 0 < check.doubled.value < 1
        pooled = math.hypot(check.radial.stderr, check.doubled.stderr)
        assert check.discrepancy_sigma == (check.radial.value - check.doubled.value) / pooled


def test_cross_validate_area_is_one_paired_sweep(monkeypatch):
    """Each chunk of directions takes one min_eigenvalues call per
    constraint, and the fraction pairs the PPT radius with the full body's
    along the same directions."""
    shape, n = BipartiteShape(2, 2), 3000
    minima, calls = geometry.min_eigenvalues, []
    monkeypatch.setattr(geometry, "min_eigenvalues", lambda a: calls.append(len(a)) or minima(a))
    cross_validate_area(shape, n, RngStream(68), shards=2)
    assert calls == [n // 2] * 4
    calls.clear()
    check = cross_validate_area(shape, n, RngStream(68))
    assert calls == [n, n]
    monkeypatch.setattr(geometry, "min_eigenvalues", minima)
    # one shard, one chunk: the directions come from child(0).child(0)
    omegas = sampling.sample_direction(shape, RngStream(68).child(0).child(0), n)
    ppt, full = (geometry._radial_batch(BodySpec(kind, shape), omegas).min(axis=0)
                 for kind in ("ppt", "full"))
    want = np.mean(ppt ** shape.dim_body) / np.mean(full ** shape.dim_body)
    assert check.radial.value == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# corner probe


def test_corner_probe_shrinks_linearly():
    res = corner_probe(BipartiteShape(2, 2), 40000, (1e-1, 1e-2, 1e-3), RngStream(9))
    fracs = [row[1] for row in res.rows]
    assert fracs == sorted(fracs, reverse=True)
    # on 2x2 complex the near-corner fraction is measured to scale close to
    # delta over this decade (exponent near 1; not a law: 2x2 real reads
    # 0.57-0.91), so the last decade drops the fraction by roughly ten
    assert fracs[2] / fracs[1] < 0.2
    assert res.n_samples == 40000


def test_corner_probe_validates_deltas():
    shape = BipartiteShape(2, 2)
    with pytest.raises(ValueError):
        corner_probe(shape, 1000, (1e-2, 1e-1), RngStream(1))  # not decreasing
    with pytest.raises(ValueError):
        corner_probe(shape, 1000, (1e-1, -1e-2), RngStream(1))  # negative
    with pytest.raises(ValueError):
        corner_probe(shape, 1000, (1e-1, 0.0), RngStream(1))  # passes vacuously
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            corner_probe(shape, 1000, (0.1, bad), RngStream(1))
        with pytest.raises(ValueError, match="finite"):
            corner_probe(shape, 1000, (bad, 0.1), RngStream(1))


@pytest.mark.parametrize("shape", [BipartiteShape(k, m, f) for k, m in ((2, 2), (2, 3))
                                   for f in ("complex", "real")], ids=str)
def test_corner_probe_rows_equal_a_full_spectrum(shape):
    """The Sturm counts give the rows that min |lambda(T_A rho)| < delta from
    eigvalsh gives on the same boundary states, exactly: a kernel that
    miscounted a few states would still pass the acceptance ratio check."""
    n, deltas = 6000, (1e-1, 1e-2, 1e-3)
    res = corner_probe(shape, n, deltas, RngStream(4500))
    # one shard, one chunk: the states come from child 0 of the stream
    states, _ = sampling.sample_boundary_state_hs(shape, RngStream(4500).child(0), n)
    closest = np.min(np.abs(np.linalg.eigvalsh(partial_transpose(states, shape))), axis=-1)
    want = tuple((d, *estimators._binomial_estimate(int(np.sum(closest < d)), n))
                 for d in deltas)
    assert res.rows == want


def test_corner_probe_needs_a_ppt_section():
    # with no PPT section every fraction would read 1
    with pytest.raises(ValueError, match="ppt body"):
        corner_probe(BipartiteShape(1, 3), 2000, [0.1, 0.01], RngStream(1))
