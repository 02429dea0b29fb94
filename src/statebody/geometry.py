"""Radial geometry of the state body and its PPT (partial-transpose) section.

The body of trace-one positive matrices is star-shaped around the maximally
mixed state rho* = I/N, so everything here is phrased in terms of the radial
function r(omega) along unit traceless directions. For a direction with
smallest eigenvalue l_min < 0 the positivity constraint gives the closed form

    r(omega) = 1 / (N |l_min(omega)|),

and the PPT body is the minimum of that constraint and the same constraint
applied to the partially transposed direction. Both bodies have constant
height: every generic boundary point lies on a face tangent to the insphere of
radius 1/sqrt((N-1)N), which the support-height computation certifies
numerically. Every batch kernel solves for eigenvalues only: the support
height follows from the smallest eigenvalue of the binding matrix (omega or
its partial transpose), so no eigenvector, contact point, projector or normal
is formed. Only the single-direction queries, which run the same kernel on a
stack of one, solve for the one zero eigenvector that gives the point and
normal they return.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hermitian import (
    BipartiteShape,
    DensityMatrix,
    TracelessDirection,
    maximally_mixed,
    partial_transpose,
)

GAP_TOL = 1e-10
BODY_KINDS = ("full", "ppt")


class NonGenericDirectionError(RuntimeError):
    """The binding constraint is degenerate: repeated smallest eigenvalue or a
    tie between the direct and partial-transpose constraints (a corner)."""


@dataclass(frozen=True)
class BodySpec:
    """Which convex body: the full state body or its PPT section."""

    kind: str
    shape: BipartiteShape

    def __post_init__(self):
        if self.kind not in BODY_KINDS:
            raise ValueError(f"kind must be one of {BODY_KINDS}, got {self.kind!r}")
        if self.kind == "ppt" and not (self.shape.k >= 2 and self.shape.m >= 2):
            raise ValueError(
                f"ppt body needs k >= 2 and m >= 2, got {self.shape.k}x{self.shape.m}"
            )

    @property
    def center(self) -> np.ndarray:
        """The insphere center rho* = I/N, fixed by partial transposition."""
        return maximally_mixed(self.shape.n, self.shape.field)

    def __str__(self):
        return f"{self.kind}:{self.shape}"


def inscribed_radius(n: int) -> float:
    """Insphere radius 1/sqrt((N-1)N) of the state body around I/N."""
    if not n >= 2:
        raise ValueError(f"need n >= 2, got {n}")
    return 1.0 / np.sqrt((n - 1.0) * n)


def analytic_area_volume_ratio(shape: BipartiteShape) -> float:
    """Closed-form boundary-area to volume ratio D sqrt(N(N-1)) of the state
    body, D its dimension.

    Every constant-height body has A/V = D / r_in, and the state body has
    constant height in either field; with the insphere radius this gives
    r * A/V = D (N^2 - 1 for complex matrices).
    """
    n = shape.n
    return float(shape.dim_body * np.sqrt(n * (n - 1.0)))


@dataclass(frozen=True)
class BoundaryContact:
    """Boundary data along a direction: the point, the outward unit normal of
    its supporting hyperplane, and which constraint binds there."""

    point: DensityMatrix
    normal: TracelessDirection
    binding: str  # "direct" or "partial-transpose"
    zero_eigvec: np.ndarray


def _direction_stack(body: BodySpec, omega) -> np.ndarray:
    """One direction, validated as a TracelessDirection, as a stack of one."""
    if not isinstance(omega, TracelessDirection):
        omega = TracelessDirection(omega)
    if omega.dim != body.shape.n:
        raise ValueError(
            f"direction dimension {omega.dim} != body dimension {body.shape.n}"
        )
    return omega.mat[None]


def _radial_batch(body: BodySpec, omegas: np.ndarray):
    """Radial data ``(r, binding_pt, nongeneric, w_min)`` for a stack of
    directions, from eigenvalues alone: radii, where the partial-transpose
    constraint binds, where the touching face is not unique (degenerate
    smallest eigenvalue of the binding matrix, or both constraints within
    GAP_TOL: a corner), and the smallest eigenvalue of the binding matrix.
    """
    n = body.shape.n
    mats = [omegas]
    if body.kind == "ppt":
        mats.append(partial_transpose(omegas, body.shape))
    w = np.stack([np.linalg.eigvalsh(m) for m in mats])  # (constraints, B, N)
    if np.any(w[0, :, 0] >= 0):
        raise ValueError("direction with no negative eigenvalue; not traceless?")
    radii = 1.0 / (n * -w[..., 0])
    binding_pt = radii[-1] < radii[0]  # never true for the full body
    gap = w[..., 1] - w[..., 0]
    nongeneric = np.where(binding_pt, gap[-1], gap[0]) <= GAP_TOL
    if body.kind == "ppt":
        nongeneric |= np.abs(radii[0] - radii[1]) <= GAP_TOL
    w_min = np.where(binding_pt, w[-1, :, 0], w[0, :, 0])
    return np.where(binding_pt, radii[-1], radii[0]), binding_pt, nongeneric, w_min


def radial_function(body: BodySpec, omega) -> float:
    """Distance from I/N to the boundary of ``body`` along ``omega``."""
    r = _radial_batch(body, _direction_stack(body, omega))[0]
    return float(r[0])


def _contact_batch(body: BodySpec, omegas: np.ndarray):
    """``(r, heights, binding_pt, w_min, nongeneric)`` for a stack of directions.

    The outward unit normal at a generic contact is c (I/N - P), c =
    sqrt(N/(N-1)), P the projector onto the zero eigenvector phi of the
    binding matrix M (omega or T_A(omega)), partially transposed when M is.
    As <omega, T_A(P)> = <T_A(omega), P> and <phi|M|phi> = w_min, the smallest
    eigenvalue of M, the support height <r omega, normal> is
    c r (tr omega / N - w_min): no eigenvector, point, projector or normal is
    formed. Non-generic directions are returned flagged, not raised.
    """
    n = body.shape.n
    r, binding_pt, nongeneric, w_min = _radial_batch(body, omegas)
    trace = np.trace(omegas, axis1=-2, axis2=-1).real
    heights = np.sqrt(n / (n - 1.0)) * r * (trace / n - w_min)
    return r, heights, binding_pt, w_min, nongeneric


def _generic_contact(body: BodySpec, omega):
    """Point, normal, height, partial-transpose binding and zero eigenvector
    along one direction. Raises :class:`NonGenericDirectionError` when the
    touching face is not unique (degenerate smallest eigenvalue, or a corner
    of the PPT body where both constraints bind).
    """
    omegas = _direction_stack(body, omega)
    r, heights, binding_pt, _, nongeneric = _contact_batch(body, omegas)
    if bool(nongeneric[0]):
        raise NonGenericDirectionError(
            "direction is non-generic (degenerate smallest eigenvalue or "
            "constraint tie); supporting hyperplane not unique"
        )
    n = body.shape.n
    binding = partial_transpose(omegas[0], body.shape) if binding_pt[0] else omegas[0]
    phi = np.linalg.eigh(binding)[1][:, 0]
    proj = np.outer(phi, np.conj(phi))
    if binding_pt[0]:
        proj = partial_transpose(proj, body.shape)
    normal = np.sqrt(n / (n - 1.0)) * (np.eye(n) / n - proj)
    point = body.center + r[0] * omegas[0]
    return point, normal, float(heights[0]), bool(binding_pt[0]), phi


def boundary_contact(body: BodySpec, omega) -> BoundaryContact:
    """Contact data where the ray from I/N along ``omega`` leaves the body.

    Raises :class:`NonGenericDirectionError` on a non-generic direction;
    callers doing Monte Carlo may discard those.
    """
    point, normal, _, binding_pt, phi = _generic_contact(body, omega)
    return BoundaryContact(
        point=DensityMatrix(point),
        normal=TracelessDirection(normal),
        binding="partial-transpose" if binding_pt else "direct",
        zero_eigvec=np.ascontiguousarray(phi),
    )


def support_height(body: BodySpec, omega) -> float:
    """Height <x - rho*, n(x)> of the supporting hyperplane met along omega.

    Constant-height certificate: for both bodies this equals the insphere
    radius 1/sqrt((N-1)N) for every generic direction. Raises
    :class:`NonGenericDirectionError` on a non-generic direction.
    """
    return _generic_contact(body, omega)[2]


def tangency_state(psi: np.ndarray) -> DensityMatrix:
    """The state (I - |psi><psi|)/(N-1): one eigenvalue zero, the rest equal.

    It is the point where the face of states orthogonal to psi touches the
    insphere, at distance exactly 1/sqrt((N-1)N) from I/N. ``psi`` is one
    vector of length N >= 2; anything else is rejected.
    """
    v = np.asarray(psi, dtype=complex)
    if v.ndim != 1 or v.size < 2:
        raise ValueError(f"expected one vector of length >= 2, got shape {v.shape}")
    nrm = float(np.linalg.norm(v))
    if nrm < 1e-14:
        raise ValueError("zero vector")
    v = v / nrm
    n = v.size
    proj = np.outer(v, np.conj(v))
    return DensityMatrix((np.eye(n, dtype=complex) - proj) / (n - 1.0))
