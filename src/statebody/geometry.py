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
numerically. The single-direction queries run the batch kernels the
estimators use on a stack of one.
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


def _radial_batch(body: BodySpec, omegas: np.ndarray, *, want_vectors: bool):
    """Radial data for a stack of directions.

    Returns a dict with radii ``r``, binding masks, smallest-eigenvalue gaps
    and (optionally) the zero eigenvectors of the touching points, all as
    stacked arrays. Vectorized over the leading axis.
    """
    n = body.shape.n
    eig = np.linalg.eigh if want_vectors else np.linalg.eigvalsh

    def crunch(mats):
        if want_vectors:
            w, v = eig(mats)
            return w, v[..., 0]
        return eig(mats), None

    w1, phi1 = crunch(omegas)
    lmin1 = w1[..., 0]
    if np.any(lmin1 >= 0):
        raise ValueError("direction with no negative eigenvalue; not traceless?")
    r1 = 1.0 / (n * (-lmin1))
    gap1 = w1[..., 1] - w1[..., 0]

    if body.kind == "full":
        return {
            "r": r1,
            "binding_pt": np.zeros(r1.shape, dtype=bool),
            "gap": gap1,
            "phi": phi1,
            "corner": np.zeros(r1.shape, dtype=bool),
        }

    pt = partial_transpose(omegas, body.shape)
    w2, phi2 = crunch(pt)
    lmin2 = w2[..., 0]
    r2 = 1.0 / (n * (-lmin2))
    gap2 = w2[..., 1] - w2[..., 0]

    binding_pt = r2 < r1
    r = np.where(binding_pt, r2, r1)
    gap = np.where(binding_pt, gap2, gap1)
    corner = np.abs(r1 - r2) <= GAP_TOL
    phi = None
    if want_vectors:
        phi = np.where(binding_pt[..., None], phi2, phi1)
    return {"r": r, "binding_pt": binding_pt, "gap": gap, "phi": phi, "corner": corner}


def radial_function(body: BodySpec, omega) -> float:
    """Distance from I/N to the boundary of ``body`` along ``omega``."""
    r = _radial_batch(body, _direction_stack(body, omega), want_vectors=False)["r"]
    return float(r[0])


def _contact_batch(body: BodySpec, omegas: np.ndarray):
    """Points, normals and support heights for a stack of directions.

    The outward unit normal at a generic contact point is the normalized
    traceless part of -P_phi (direct binding) or of -T_A(P_phi) (partial
    transpose binding), phi being the zero eigenvector of the binding matrix.
    Non-generic directions (eigenvalue gap or constraint tie below GAP_TOL)
    are returned flagged, not raised.
    """
    n = body.shape.n
    data = _radial_batch(body, omegas, want_vectors=True)
    r, phi = data["r"], data["phi"]
    points = maximally_mixed(n, body.shape.field) + r[:, None, None] * omegas
    proj = phi[:, :, None] * np.conj(phi[:, None, :])
    if body.kind == "ppt":
        proj_pt = partial_transpose(proj, body.shape)
        proj = np.where(data["binding_pt"][:, None, None], proj_pt, proj)
    scale = 1.0 / np.sqrt((n - 1.0) / n)
    normals = scale * (np.eye(n, dtype=proj.dtype) / n - proj)
    # support height <point - center, normal>; equals the insphere radius
    # for constant-height bodies
    diff = points - np.eye(n, dtype=points.dtype) / n
    heights = np.sum(diff * np.conj(normals), axis=(-2, -1)).real
    nongeneric = (data["gap"] <= GAP_TOL) | data["corner"]
    return points, normals, heights, data, nongeneric


def _generic_contact(body: BodySpec, omega):
    """Point, normal, height, partial-transpose binding and zero eigenvector
    along one direction. Raises :class:`NonGenericDirectionError` when the
    touching face is not unique (degenerate smallest eigenvalue, or a corner
    of the PPT body where both constraints bind).
    """
    points, normals, heights, data, nongeneric = _contact_batch(
        body, _direction_stack(body, omega))
    if bool(nongeneric[0]):
        raise NonGenericDirectionError(
            f"direction is non-generic (eigenvalue gap {data['gap'][0]:.2e} "
            f"or constraint tie); supporting hyperplane not unique"
        )
    return (points[0], normals[0], float(heights[0]), bool(data["binding_pt"][0]),
            data["phi"][0])


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


def tangency_state(psi: np.ndarray, n: int | None = None) -> DensityMatrix:
    """The state (I - |psi><psi|)/(N-1): one eigenvalue zero, the rest equal.

    It is the point where the face of states orthogonal to psi touches the
    insphere, at distance exactly 1/sqrt((N-1)N) from I/N.
    """
    v = np.asarray(psi, dtype=complex).reshape(-1)
    if n is None:
        n = v.size
    if v.size != n:
        raise ValueError(f"vector length {v.size} != dimension {n}")
    nrm = float(np.linalg.norm(v))
    if nrm < 1e-14:
        raise ValueError("zero vector")
    v = v / nrm
    proj = np.outer(v, np.conj(v))
    return DensityMatrix((np.eye(n, dtype=complex) - proj) / (n - 1.0))
