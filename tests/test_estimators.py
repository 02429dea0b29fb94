"""Monte Carlo estimators: volumes, areas, gamma, omega, certificates."""

import dataclasses
import math

import numpy as np
import pytest

from statebody import estimators, sampling
from statebody import (
    BipartiteShape,
    BodySpec,
    Estimate,
    InsufficientSamplesError,
    RngStream,
    corner_probe,
    cross_validate_area,
    estimate_omega,
    estimate_p_boundary,
    estimate_p_interior,
    height_certificate,
    inscribed_radius,
    mc_area,
    mc_boundary_ppt_fraction,
    mc_gamma,
    mc_volume,
    radius_law,
    sphere_area,
    support_height,
)

QUBIT = BodySpec("full", BipartiteShape(1, 2))
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


# ---------------------------------------------------------------------------
# the qubit body is a ball: every estimator is exact there


def test_qubit_volume_is_exact():
    est = mc_volume(QUBIT, 20000, RngStream(77))
    assert est.value == pytest.approx(math.pi * math.sqrt(2.0) / 3, abs=1e-12)
    assert 0 < est.stderr < 1e-10
    assert est.estimator_id == "mc_volume[full:1x2 complex]"
    assert est.n_samples == 20000


def test_qubit_area_is_exact():
    est = mc_area(QUBIT, 20000, RngStream(78))
    assert est.value == pytest.approx(2 * math.pi, abs=1e-11)
    assert est.stderr > 0


def test_qubit_gamma_is_exact():
    est = mc_gamma(QUBIT, 20000, RngStream(79))
    assert est.value == pytest.approx(3.0, abs=1e-11)


@pytest.mark.parametrize("field,target", [("complex", 8), ("real", 5)])
def test_qutrit_gamma(field, target):
    body = BodySpec("full", BipartiteShape(1, 3, field))
    est = mc_gamma(body, 200_000, RngStream(101))
    assert est.stderr > 0
    assert abs(est.value - target) < SIGMA_LOOSE * est.stderr
    # the ratio estimator on a constant-height body is far tighter than the
    # naive quotient of two independent runs
    assert est.stderr < 1e-6


def test_gamma_of_ppt_body():
    body = BodySpec("ppt", BipartiteShape(2, 2))
    est = mc_gamma(body, 100_000, RngStream(103))
    assert abs(est.value - 15) < SIGMA_LOOSE * max(est.stderr, 1e-9)


def test_volume_area_determinism_and_shards():
    # not QUBIT: the ball's estimates do not depend on the stream, so a layout
    # check there would rest on a floating-point coincidence
    body = BodySpec("full", BipartiteShape(1, 3))
    for estimator in (mc_volume, mc_area):
        a = estimator(body, 9999, RngStream(5))
        b = estimator(body, 9999, RngStream(5))
        assert a.value == b.value and a.stderr == b.stderr
        c = estimator(body, 9999, RngStream(5), shards=3)
        d = estimator(body, 9999, RngStream(5), shards=3)
        assert c.value == d.value and c.stderr == d.stderr
        # different shard layout draws a different stream: the values differ
        # by far more than rounding
        assert abs(c.value - a.value) > 1e-6 * abs(a.value), estimator.__name__


def test_estimator_rejects_bad_n():
    with pytest.raises(ValueError):
        mc_volume(QUBIT, 0, RngStream(1))
    with pytest.raises(ValueError):
        mc_gamma(QUBIT, -5, RngStream(1))


def test_area_raises_when_everything_is_nongeneric(monkeypatch):
    monkeypatch.setattr("statebody.geometry.GAP_TOL", 10.0)
    for estimator in (mc_area, mc_gamma, height_certificate):
        with pytest.raises(InsufficientSamplesError):
            estimator(QUBIT, 500, RngStream(2))
    # the radial-ratio boundary PPT fraction discards them by the same rule
    with pytest.raises(InsufficientSamplesError, match="fraction"):
        mc_boundary_ppt_fraction(QUBIT.shape, 500, RngStream(2))


def test_nongeneric_fraction_rule_is_shared(monkeypatch):
    # flag 1% of directions non-generic: far above NONGENERIC_WARN_FRACTION
    # but not all of them
    contact = estimators._contact_batch

    def flagged(body, omegas):
        r, heights, binding_pt, w_min, nongeneric = contact(body, omegas)
        nongeneric[: len(nongeneric) // 100] = True
        return r, heights, binding_pt, w_min, nongeneric

    monkeypatch.setattr(estimators, "_contact_batch", flagged)
    body = BodySpec("full", BipartiteShape(1, 3))
    for estimator in (mc_area, mc_gamma):
        with pytest.raises(InsufficientSamplesError, match="fraction"):
            estimator(body, 1000, RngStream(3))
    cert = height_certificate(body, 1000, RngStream(3))
    assert cert.max_abs_deviation <= cert.tol and not cert.passed


# ---------------------------------------------------------------------------
# height certificates


@pytest.mark.parametrize("body", [
    BodySpec("full", BipartiteShape(1, 3)),
    BodySpec("full", BipartiteShape(1, 3, "real")),
    BodySpec("ppt", BipartiteShape(2, 2)),
])
def test_height_certificate_passes(body):
    cert = height_certificate(body, 5000, RngStream(111))
    assert cert.passed
    assert cert.max_abs_deviation <= cert.tol
    assert cert.insphere_radius == pytest.approx(inscribed_radius(body.shape.n))
    assert cert.n_nongeneric < 5
    again = height_certificate(body, 5000, RngStream(111))
    assert again.max_abs_deviation == cert.max_abs_deviation


def test_no_batch_path_solves_for_eigenvectors(monkeypatch):
    def no_eigh(*args, **kwargs):
        raise AssertionError("eigh called")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    full = BodySpec("full", BipartiteShape(1, 3))
    ppt = BodySpec("ppt", BipartiteShape(2, 2))
    # the single-direction queries solve for their one zero eigenvector
    with pytest.raises(AssertionError, match="eigh called"):
        support_height(full, estimators.sample_direction(full.shape, RngStream(4), 1)[0])
    for body in (full, ppt):
        for estimator in (mc_volume, mc_area, mc_gamma, height_certificate):
            estimator(body, 2000, RngStream(4))
        radius_law(body, 2000, RngStream(4))
    mc_boundary_ppt_fraction(ppt.shape, 2000, RngStream(4))


# ---------------------------------------------------------------------------
# the radius law: boundary radii against interior radial values


def _short_boundary_sampler(shape, rng, size):
    """The production boundary sampler with one Ginibre column too few."""
    n = shape.n
    cols = n if shape.field == "complex" else n + 1
    g = sampling._ginibre(rng.child(0).generator(), (size, n, cols), shape.field)
    psi = sampling._ginibre(rng.child(1).generator(), (size, n), shape.field)
    psi = psi / np.linalg.norm(psi, axis=-1, keepdims=True)
    g = g - psi[:, :, None] * (np.conj(psi)[:, None, :] @ g)
    return sampling._normalized_gram(g), psi


def test_radius_law_fails_with_a_wrong_boundary_sampler(monkeypatch):
    body = BodySpec("full", BipartiteShape(1, 3))
    law = radius_law(body, 20_000, RngStream(8))
    assert law.p_value > 0.01
    assert (law.n_boundary, law.n_interior) == (20_000, 20_000)
    assert law.seed == RngStream(8).describe()
    monkeypatch.setattr(estimators, "sample_boundary_state_hs", _short_boundary_sampler)
    assert radius_law(body, 20_000, RngStream(8)).p_value < 1e-6


def test_radius_law_keeps_ppt_rows_only():
    law = radius_law(BodySpec("ppt", BipartiteShape(2, 2)), 4000, RngStream(9))
    # about 12% of boundary and 24% of interior states are PPT
    assert 0 < law.n_boundary < law.n_interior < 4000
    with pytest.raises(InsufficientSamplesError, match="no PPT boundary"):
        radius_law(BodySpec("ppt", BipartiteShape(3, 3)), 500, RngStream(1))


# ---------------------------------------------------------------------------
# PPT probabilities and omega


def test_p_interior_trivial_for_unipartite():
    # partial transpose over a trivial first factor preserves the spectrum
    est = estimate_p_interior(BipartiteShape(1, 3), 2000, RngStream(7))
    assert est.value == 1.0
    assert est.stderr == pytest.approx(1 / 2000)


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


def test_boundary_fraction_two_routes_agree():
    """Hit counting on boundary samples vs the radial-ratio route.

    The radial route never draws a boundary state, so in each field it is an
    independent check of the production boundary sampler.
    """
    for field in ("complex", "real"):
        shape = BipartiteShape(2, 2, field)
        hits = estimate_p_boundary(shape, 30000, RngStream(55))
        radial = mc_boundary_ppt_fraction(shape, 30000, RngStream(56))
        pooled = math.hypot(hits.stderr, radial.stderr)
        assert abs(hits.value - radial.value) < SIGMA_LOOSE * pooled, field


def test_cross_validate_area():
    for field, seed in (("complex", 66), ("real", 67)):
        check = cross_validate_area(BipartiteShape(2, 2, field), 30000, RngStream(seed))
        assert abs(check.discrepancy_sigma) < SIGMA_LOOSE, field
        assert check.radial.value > 0 and check.doubled.value > 0


# ---------------------------------------------------------------------------
# corner probe


def test_corner_probe_shrinks_linearly():
    res = corner_probe(BipartiteShape(2, 2), 40000, (1e-1, 1e-2, 1e-3), RngStream(9))
    fracs = [row[1] for row in res.rows]
    assert fracs == sorted(fracs, reverse=True)
    # the near-corner fraction scales like delta, so each decade drops the
    # fraction by roughly ten
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
