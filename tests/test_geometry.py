"""Radial functions, boundary contacts and the constant-height property."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statebody import (
    BipartiteShape,
    BodySpec,
    NonGenericDirectionError,
    RngStream,
    inscribed_radius,
    partial_transpose,
    sample_direction,
    support_height,
    tangency_state,
)
from statebody.geometry import _generic_contact, _radial_batch

HEIGHT_TOL = 1e-9
MEMBERSHIP_SLACK = 1e-13


def bell_direction() -> np.ndarray:
    """The unit direction from I/4 to the Bell state."""
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / math.sqrt(2.0)
    m = np.outer(v, v.conj()) - np.eye(4) / 4
    return m / np.linalg.norm(m)


def radial(body: BodySpec, omega: np.ndarray) -> float:
    """r(omega) of one direction, as the batch kernel gives it on a stack of one."""
    return float(_radial_batch(body, omega[None]).min())


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


@pytest.mark.parametrize("kind, km, field", [("full", (1, 3), "complex"),
                                             ("full", (1, 4), "real"),
                                             ("ppt", (2, 3), "complex")])
def test_body_spec_dim_and_insphere(kind, km, field):
    shape = BipartiteShape(*km, field)
    body = BodySpec(kind, shape)
    assert body.dim == shape.dim_body
    assert body.r_in == inscribed_radius(shape.n)


# ---------------------------------------------------------------------------
# radial function


def test_radial_along_bell_direction():
    om = bell_direction()
    full = BodySpec("full", BipartiteShape(2, 2))
    ppt = BodySpec("ppt", BipartiteShape(2, 2))
    # the pure-state face lies at sqrt(3)/2; the partial transpose cuts the
    # ray down to the insphere radius
    assert radial(full, om) == pytest.approx(math.sqrt(3.0) / 2, abs=1e-13)
    assert radial(ppt, om) == pytest.approx(1 / math.sqrt(12.0), abs=1e-13)


@pytest.mark.parametrize("field", ["complex", "real"])
@pytest.mark.parametrize("kind,km", [("full", (1, 3)), ("full", (2, 2)),
                                     ("ppt", (2, 2)), ("ppt", (2, 3))])
def test_radial_matches_bisection(field, kind, km):
    shape = BipartiteShape(km[0], km[1], field)
    body = BodySpec(kind, shape)
    omegas = sample_direction(shape, RngStream(17), size=12)
    for om, r in zip(omegas, _radial_batch(body, omegas).min(axis=0)):
        assert r == pytest.approx(radial_by_bisection(body, om), abs=1e-9)


@pytest.mark.parametrize("shape", [BipartiteShape(2, 2), BipartiteShape(2, 3)], ids=str)
def test_radial_stack_matches_singles(shape):
    """A direction alone gets the radii of its row in the stack, bit for bit."""
    body = BodySpec("ppt", shape)
    omegas = sample_direction(shape, RngStream(23), size=20)
    radii = _radial_batch(body, omegas)
    assert radii.shape == (2, 20)
    rs, r_direct = radii.min(axis=0), radii[0]
    full = BodySpec("full", shape)
    for i in range(20):
        assert rs[i] == radial(body, omegas[i])
        # the direct constraint alone bounds the full body
        assert r_direct[i] == radial(full, omegas[i])
    # both constraints bind somewhere in the sample
    assert 0 < np.sum(rs < r_direct) < len(omegas)


def test_radial_rejects_bad_directions():
    """The contact query takes one finite N x N direction, traceless and of
    unit norm; anything else, a non-finite entry included, raises ValueError
    before any eigensolve."""
    body = BodySpec("full", BipartiteShape(2, 2))
    om = bell_direction()
    nan_entry = om.copy()
    nan_entry[0, 1] = np.nan
    cases = [
        (np.stack([om, om]), "one 4x4"),
        (np.diag([1.0, -1.0, 0.0]) / math.sqrt(2.0), "one 4x4"),  # wrong dimension
        (np.eye(4) / 2.0, "traceless"),  # unit norm
        (2.0 * om, "unit norm"),
        (np.full((4, 4), np.nan), "non-finite"),
        (nan_entry, "non-finite"),
        (np.where(np.eye(4) > 0, np.inf, 0.0), "non-finite"),
    ]
    for bad, message in cases:
        with pytest.raises(ValueError, match=message):
            support_height(body, bad)


_SHAPE = BipartiteShape(2, 2)
_PPT = BodySpec("ppt", _SHAPE)


@pytest.mark.parametrize("query", [
    lambda om, psi: support_height(_PPT, om),
    lambda om, psi: tangency_state(psi),
], ids=["support_height", "tangency_state"])
def test_single_item_queries_reject_stacks(query):
    """A stack is an error, not an answer for row 0 or a sum."""
    omegas = sample_direction(_SHAPE, RngStream(47), size=5)
    psis = np.ones((5, _SHAPE.n))
    with pytest.raises(ValueError):
        query(omegas, psis)


# ---------------------------------------------------------------------------
# contacts and heights


def test_ppt_contact_along_bell_is_werner_third():
    body = BodySpec("ppt", BipartiteShape(2, 2))
    om = bell_direction()
    point, _, height, binding_pt = _generic_contact(body, om)
    assert binding_pt
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / math.sqrt(2.0)
    wern = np.outer(v, v.conj()) / 3 + (2 / 3) * np.eye(4) / 4
    assert np.allclose(point, wern, atol=1e-12)
    assert height == pytest.approx(inscribed_radius(4), abs=1e-12)
    # the query reads the Hermitian part of its direction: an anti-Hermitian
    # diagonal cancels exactly
    skew = 1e-3j * np.diag([1.0, -1.0, 1.0, -1.0])
    assert support_height(body, om + skew) == support_height(body, om) == height


def test_full_body_bell_direction_is_nongeneric():
    # the contact point is a pure state: threefold-degenerate kernel, so the
    # supporting hyperplane is not unique
    body = BodySpec("full", BipartiteShape(2, 2))
    with pytest.raises(NonGenericDirectionError):
        support_height(body, bell_direction())


def test_ppt_corner_direction_raises():
    # diagonal directions are fixed by partial transposition, so both
    # constraints bind at once: a corner of the intersection
    om = np.diag([3.0, 1.0, -1.0, -3.0]).astype(complex) / math.sqrt(20.0)
    body = BodySpec("ppt", BipartiteShape(2, 2))
    with pytest.raises(NonGenericDirectionError):
        support_height(body, om)
    # the radial function itself stays well defined there
    assert radial(body, om) == pytest.approx(
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


def test_contact_normal_properties():
    shape = BipartiteShape(2, 2)
    body = BodySpec("ppt", shape)
    omegas = sample_direction(shape, RngStream(37), size=25)
    for om in omegas:
        point, nr, _, binding_pt = _generic_contact(body, om)
        assert abs(np.trace(nr)) < 1e-12
        assert math.sqrt(np.sum(np.abs(nr) ** 2)) == pytest.approx(1.0, abs=1e-12)
        # outward: positive component Tr(n omega) along the ray
        assert np.sum(nr * np.conj(om)).real > 0
        # supporting: every vertex of the insphere stays on the inner side,
        # and stepping outward along the normal leaves the body
        x_out = point + 1e-6 * nr
        lmin = np.linalg.eigvalsh(x_out)[0]
        lmin_pt = np.linalg.eigvalsh(partial_transpose(x_out, shape))[0]
        assert min(lmin, lmin_pt) < 0
        # the point lies on the binding constraint's face: that matrix is
        # singular there
        bind = partial_transpose(point, shape) if binding_pt else point
        assert abs(np.linalg.eigvalsh(bind)[0]) < 1e-10


# ---------------------------------------------------------------------------
# tangency states


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1), st.integers(min_value=2, max_value=7))
def test_tangency_state_properties(seed, n):
    gen = np.random.default_rng(seed)
    psi = gen.standard_normal(n) + 1j * gen.standard_normal(n)
    tau = tangency_state(psi)
    assert type(tau) is np.ndarray and tau.shape == (n, n)
    eigs = np.linalg.eigvalsh(tau)
    assert eigs[0] == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(eigs[1:], 1 / (n - 1), atol=1e-12)
    psi = psi / np.linalg.norm(psi)
    assert abs(psi.conj() @ tau @ psi) < 1e-12
    assert np.linalg.norm(tau - np.eye(n) / n) == pytest.approx(
        inscribed_radius(n), abs=1e-12
    )


def test_tangency_state_rejects_zero_vector():
    with pytest.raises(ValueError):
        tangency_state(np.zeros(3))
    # one vector per call: a matrix is not read as its flattened entries
    with pytest.raises(ValueError, match="one vector"):
        tangency_state(np.eye(2))


def test_tangency_state_rejects_non_finite_psi():
    """A NaN or infinite entry raises, rather than giving a NaN state and a
    RuntimeWarning."""
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            tangency_state([bad, 1.0])
