"""Radial functions, boundary contacts and the constant-height property."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statebody import (
    BipartiteShape,
    BodySpec,
    DensityMatrix,
    HermitianMatrix,
    NonGenericDirectionError,
    RngStream,
    TracelessDirection,
    analytic_area_volume_ratio,
    boundary_contact,
    hs_distance,
    hs_inner,
    hs_norm,
    inscribed_radius,
    is_ppt,
    min_eigenvalue,
    negativity,
    partial_transpose,
    radial_function,
    sample_direction,
    sample_state_hs,
    support_height,
    tangency_state,
)
from statebody.geometry import _contact_batch, _radial_batch

HEIGHT_TOL = 1e-9
MEMBERSHIP_SLACK = 1e-13


def bell_direction() -> TracelessDirection:
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / math.sqrt(2.0)
    return TracelessDirection.toward(np.outer(v, v.conj()))


def radial_by_bisection(body: BodySpec, omega: np.ndarray, iters: int = 80) -> float:
    """Independent route: bisect the largest t with I/N + t*omega inside."""
    n = body.shape.n
    center = np.eye(n) / n

    def inside(t: float) -> bool:
        x = center + t * omega
        if np.linalg.eigvalsh(x)[0] < -MEMBERSHIP_SLACK:
            return False
        if body.kind == "ppt":
            tx = partial_transpose(x, body.shape)
            if np.linalg.eigvalsh(tx)[0] < -MEMBERSHIP_SLACK:
                return False
        return True

    lo, hi = 0.0, 2.0
    assert inside(lo) and not inside(hi)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if inside(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# closed-form constants


def test_inscribed_radius_values():
    assert inscribed_radius(2) == pytest.approx(1 / math.sqrt(2.0), abs=1e-15)
    assert inscribed_radius(3) == pytest.approx(1 / math.sqrt(6.0), abs=1e-15)
    assert inscribed_radius(4) == pytest.approx(1 / math.sqrt(12.0), abs=1e-15)
    assert inscribed_radius(6) == pytest.approx(1 / math.sqrt(30.0), abs=1e-15)
    with pytest.raises(ValueError):
        inscribed_radius(1)


def test_area_volume_ratio_values():
    # D sqrt(N(N-1)); with the insphere radius this gives gamma = D
    ratio = analytic_area_volume_ratio
    assert ratio(BipartiteShape(1, 2)) == pytest.approx(3 * math.sqrt(2.0))
    assert ratio(BipartiteShape(1, 3)) == pytest.approx(8 * math.sqrt(6.0))
    assert ratio(BipartiteShape(2, 2)) == pytest.approx(15 * math.sqrt(12.0))
    assert ratio(BipartiteShape(2, 2, "real")) == pytest.approx(9 * math.sqrt(12.0))
    for k, m in ((1, 2), (1, 3), (2, 2), (2, 3)):
        for field in ("complex", "real"):
            shape = BipartiteShape(k, m, field)
            gamma = ratio(shape) * inscribed_radius(shape.n)
            assert gamma == pytest.approx(shape.dim_body, abs=1e-12)


def test_body_spec_validation():
    BodySpec("full", BipartiteShape(1, 3))
    BodySpec("ppt", BipartiteShape(2, 3))
    with pytest.raises(ValueError):
        BodySpec("ppt", BipartiteShape(1, 3))
    with pytest.raises(ValueError):
        BodySpec("hull", BipartiteShape(2, 2))
    body = BodySpec("ppt", BipartiteShape(2, 2))
    assert str(body) == "ppt:2x2 complex"
    assert np.allclose(body.center, np.eye(4) / 4)


# ---------------------------------------------------------------------------
# radial function


def test_radial_along_bell_direction():
    om = bell_direction()
    full = BodySpec("full", BipartiteShape(2, 2))
    ppt = BodySpec("ppt", BipartiteShape(2, 2))
    # the pure-state face lies at sqrt(3)/2; the partial transpose cuts the
    # ray down to the insphere radius
    assert radial_function(full, om) == pytest.approx(math.sqrt(3.0) / 2, abs=1e-13)
    assert radial_function(ppt, om) == pytest.approx(1 / math.sqrt(12.0), abs=1e-13)


@pytest.mark.parametrize("field", ["complex", "real"])
@pytest.mark.parametrize("kind,km", [("full", (1, 3)), ("full", (2, 2)),
                                     ("ppt", (2, 2)), ("ppt", (2, 3))])
def test_radial_matches_bisection(field, kind, km):
    shape = BipartiteShape(km[0], km[1], field)
    body = BodySpec(kind, shape)
    omegas = sample_direction(shape, RngStream(17), size=12)
    for om in omegas:
        r = radial_function(body, om)
        assert r == pytest.approx(radial_by_bisection(body, om), abs=1e-9)


def test_radial_stack_matches_singles():
    shape = BipartiteShape(2, 2)
    body = BodySpec("ppt", shape)
    omegas = sample_direction(shape, RngStream(23), size=20)
    rs = _radial_batch(body, omegas)[0]
    assert rs.shape == (20,)
    for i in range(20):
        assert rs[i] == radial_function(body, omegas[i])


def test_radial_rejects_bad_directions():
    body = BodySpec("full", BipartiteShape(2, 2))
    with pytest.raises(ValueError):
        radial_function(body, np.eye(4))  # not traceless
    with pytest.raises(ValueError):
        radial_function(body, np.diag([1.0, -1.0, 0.0]))  # wrong dimension


def test_wrapper_input_matches_array_input():
    body = BodySpec("full", BipartiteShape(1, 2))
    om = np.diag([1.0, -1.0]) / np.sqrt(2.0)
    assert radial_function(body, HermitianMatrix(om)) == radial_function(body, om)
    assert np.array_equal(TracelessDirection(HermitianMatrix(om)).mat,
                          TracelessDirection(om).mat)
    rho = DensityMatrix(np.diag([0.7, 0.3]))
    assert np.array_equal(HermitianMatrix(rho).mat, HermitianMatrix(rho.mat).mat)
    # a state is unwrapped, then rejected for what it is: not traceless
    with pytest.raises(ValueError, match="traceless"):
        TracelessDirection(rho)


_SHAPE = BipartiteShape(2, 2)
_PPT = BodySpec("ppt", _SHAPE)


@pytest.mark.parametrize("query", [
    lambda om, rho: radial_function(_PPT, om),
    lambda om, rho: boundary_contact(_PPT, om),
    lambda om, rho: support_height(_PPT, om),
    lambda om, rho: hs_inner(rho, rho),
    lambda om, rho: hs_norm(rho),
    lambda om, rho: hs_distance(rho, rho),
    lambda om, rho: min_eigenvalue(rho),
    lambda om, rho: negativity(rho, _SHAPE),
    lambda om, rho: is_ppt(rho, _SHAPE),
], ids=["radial_function", "boundary_contact", "support_height", "hs_inner",
        "hs_norm", "hs_distance", "min_eigenvalue", "negativity", "is_ppt"])
def test_single_item_queries_reject_stacks(query):
    """A (k, N, N) stack is an error, not an answer for row 0 or a sum."""
    omegas = sample_direction(_SHAPE, RngStream(47), size=5)
    states = sample_state_hs(_SHAPE, RngStream(48), size=5)
    with pytest.raises(ValueError):
        query(omegas, states)


# ---------------------------------------------------------------------------
# contacts and heights


def test_ppt_contact_along_bell_is_werner_third():
    body = BodySpec("ppt", BipartiteShape(2, 2))
    contact = boundary_contact(body, bell_direction())
    assert contact.binding == "partial-transpose"
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / math.sqrt(2.0)
    wern = np.outer(v, v.conj()) / 3 + (2 / 3) * np.eye(4) / 4
    assert np.allclose(contact.point.mat, wern, atol=1e-12)
    assert support_height(body, bell_direction()) == pytest.approx(
        inscribed_radius(4), abs=1e-12
    )


def test_full_body_bell_direction_is_nongeneric():
    # the contact point is a pure state: threefold-degenerate kernel, so the
    # supporting hyperplane is not unique
    body = BodySpec("full", BipartiteShape(2, 2))
    with pytest.raises(NonGenericDirectionError):
        boundary_contact(body, bell_direction())
    with pytest.raises(NonGenericDirectionError):
        support_height(body, bell_direction())


def test_ppt_corner_direction_raises():
    # diagonal directions are fixed by partial transposition, so both
    # constraints bind at once: a corner of the intersection
    om = np.diag([3.0, 1.0, -1.0, -3.0]).astype(complex) / math.sqrt(20.0)
    body = BodySpec("ppt", BipartiteShape(2, 2))
    with pytest.raises(NonGenericDirectionError):
        boundary_contact(body, om)
    # the radial function itself stays well defined there
    assert radial_function(body, om) == pytest.approx(
        radial_by_bisection(body, om), abs=1e-9
    )
    # and the same direction is perfectly generic for the full body
    assert support_height(BodySpec("full", BipartiteShape(2, 2)), om) == pytest.approx(
        inscribed_radius(4), abs=1e-12
    )


@pytest.mark.parametrize("field", ["complex", "real"])
@pytest.mark.parametrize("kind,km", [("full", (1, 3)), ("full", (1, 4)),
                                     ("full", (1, 6)), ("ppt", (2, 2)),
                                     ("ppt", (2, 3))])
def test_support_height_is_inscribed_radius(field, kind, km):
    """Pointwise constant-height check over random generic directions."""
    shape = BipartiteShape(km[0], km[1], field)
    body = BodySpec(kind, shape)
    r_in = inscribed_radius(shape.n)
    omegas = sample_direction(shape, RngStream(29), size=40)
    checked = 0
    for om in omegas:
        try:
            h = support_height(body, om)
        except NonGenericDirectionError:
            continue
        assert abs(h - r_in) <= HEIGHT_TOL
        checked += 1
    assert checked >= 38  # non-generic directions have measure zero


@pytest.mark.parametrize("field", ["complex", "real"])
@pytest.mark.parametrize("kind,km", [("full", (1, 3)), ("full", (2, 2)),
                                     ("ppt", (2, 2)), ("ppt", (2, 3))])
def test_batch_heights_match_explicit_contacts(field, kind, km):
    """The batch kernel's support heights, read off the binding eigenpair,
    equal <x - I/N, n(x)> from the explicit point and normal."""
    shape = BipartiteShape(km[0], km[1], field)
    body = BodySpec(kind, shape)
    omegas = sample_direction(shape, RngStream(53), size=30)
    _, heights, binding_pt, _, nongeneric = _contact_batch(body, omegas)
    center = np.eye(shape.n) / shape.n
    checked = 0
    for om, h, ng in zip(omegas, heights, nongeneric):
        if ng:
            continue
        c = boundary_contact(body, om)
        assert abs(h - hs_inner(c.point.mat - center, c.normal.mat).real) <= 1e-12
        checked += 1
    assert checked >= 28
    if kind == "ppt":  # both constraints bind somewhere in the sample
        assert 0 < np.sum(binding_pt) < len(omegas)


def test_contact_normal_properties():
    shape = BipartiteShape(2, 2)
    body = BodySpec("ppt", shape)
    omegas = sample_direction(shape, RngStream(37), size=25)
    for om in omegas:
        c = boundary_contact(body, om)
        nr = c.normal.mat
        assert abs(np.trace(nr)) < 1e-12
        assert math.sqrt(np.sum(np.abs(nr) ** 2)) == pytest.approx(1.0, abs=1e-12)
        # outward: positive component along the ray
        assert hs_inner(nr, om).real > 0
        # supporting: every vertex of the insphere stays on the inner side,
        # and stepping outward along the normal leaves the body
        x_out = c.point.mat + 1e-6 * nr
        lmin = np.linalg.eigvalsh(x_out)[0]
        lmin_pt = np.linalg.eigvalsh(partial_transpose(x_out, shape))[0]
        assert min(lmin, lmin_pt) < 0
        # the zero eigenvector annihilates the binding matrix
        bind = c.point.mat if c.binding == "direct" else partial_transpose(
            c.point.mat, shape)
        assert np.linalg.norm(bind @ c.zero_eigvec) < 1e-10


# ---------------------------------------------------------------------------
# tangency states


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1), st.integers(min_value=2, max_value=7))
def test_tangency_state_properties(seed, n):
    gen = np.random.default_rng(seed)
    psi = gen.standard_normal(n) + 1j * gen.standard_normal(n)
    tau = tangency_state(psi)
    eigs = np.linalg.eigvalsh(tau.mat)
    assert eigs[0] == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(eigs[1:], 1 / (n - 1), atol=1e-12)
    psi = psi / np.linalg.norm(psi)
    assert abs(psi.conj() @ tau.mat @ psi) < 1e-12
    assert hs_distance(tau.mat, np.eye(n) / n) == pytest.approx(
        inscribed_radius(n), abs=1e-12
    )


def test_tangency_state_rejects_zero_vector():
    with pytest.raises(ValueError):
        tangency_state(np.zeros(3))
    # one vector per call: a matrix is not read as its flattened entries
    with pytest.raises(ValueError, match="one vector"):
        tangency_state(np.eye(2))
