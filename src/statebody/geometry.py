"""Radial geometry of the state body and its PPT (partial-transpose) section.

The body of trace-one positive matrices is star-shaped around the maximally
mixed state rho* = I/N, so everything here is phrased in terms of the radial
function r(omega) along unit traceless directions. Both bodies are sets of
PSD constraints, rho >= 0 and, on the PPT body, T_A(rho) >= 0, and
:func:`_constraint_minima` gives lambda_min of each. A constraint bounds the
ray by 1 / (N |lambda_min(omega)|), and r is the smallest of these radii.
Both bodies have constant height: every generic boundary point lies on a
face tangent to the insphere of radius 1/sqrt((N-1)N), so the batch kernel
yields radii and no height. Only the single-direction queries solve for the
zero eigenvector of the binding matrix, decide whether the face met is
unique, and form the contact point x, its normal n(x) and the height
<x - rho*, n(x)>, which tests hold against the insphere radius.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hermitian import (
    BipartiteShape,
    DensityMatrix,
    TracelessDirection,
    _integer,
    hs_inner,
    maximally_mixed,
    min_eigenvalues,
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
        if self.kind == "ppt" and not self.shape.is_bipartite:
            raise ValueError(f"ppt body needs k >= 2, got {self.shape.k}x{self.shape.m}")

    @property
    def center(self) -> np.ndarray:
        """The insphere center rho* = I/N, fixed by partial transposition."""
        return maximally_mixed(self.shape.n, self.shape.field)

    @property
    def dim(self) -> int:
        """Dimension D of the body: that of the trace-one matrices."""
        return self.shape.dim_body

    @property
    def r_in(self) -> float:
        """Insphere radius around I/N, shared by both kinds of body."""
        return inscribed_radius(self.shape.n)

    def __str__(self):
        return f"{self.kind}:{self.shape}"


def inscribed_radius(n: int) -> float:
    """Insphere radius 1/sqrt((N-1)N) of the state body around I/N."""
    n = _integer("n", n, 2)
    return 1.0 / np.sqrt((n - 1.0) * n)


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


def _constraint_minima(body: BodySpec, mats: np.ndarray):
    """lambda_min of each of the body's constraints on a (B, N, N) stack, as a
    (constraints, B) array: row 0 of the matrices themselves and, on a PPT
    body, row 1 of their partial transposes; and how many minima
    ``min_eigenvalues`` took from ``eigvalsh``."""
    lam, fallbacks = min_eigenvalues(mats)
    if body.kind == "full":
        return lam[None], fallbacks
    lam_pt, more = min_eigenvalues(partial_transpose(mats, body.shape))
    return np.stack([lam, lam_pt]), fallbacks + more


def _radial_batch(body: BodySpec, omegas: np.ndarray) -> np.ndarray:
    """Radii 1 / (N * -lambda_min) of each constraint along a stack of
    directions, a (constraints, B) array: its column minimum is r(omega), and
    row 0 alone bounds the full body."""
    lam, _ = _constraint_minima(body, omegas)
    if np.any(lam[0] >= 0):
        raise ValueError("direction with no negative eigenvalue; not traceless?")
    return 1.0 / (body.shape.n * -lam)


def radial_function(body: BodySpec, omega) -> float:
    """Distance from I/N to the boundary of ``body`` along ``omega``."""
    return float(_radial_batch(body, _direction_stack(body, omega)).min())


def _generic_contact(body: BodySpec, omega):
    """Point, normal, height, partial-transpose binding and zero eigenvector
    along one direction. Raises :class:`NonGenericDirectionError` when the
    touching face is not unique: the binding matrix's two smallest
    eigenvalues, or the radii of the two constraints of a PPT body (a
    corner), lie within GAP_TOL. The normal is c (I/N - P), c =
    sqrt(N/(N-1)), P the projector onto phi, partially transposed when
    T_A(omega) binds; the height is <r omega, normal>.
    """
    omega = _direction_stack(body, omega)[0]
    radii = _radial_batch(body, omega[None])[:, 0]
    binding_pt = bool(radii[-1] < radii[0])  # never true for the full body
    binding = partial_transpose(omega, body.shape) if binding_pt else omega
    w, vecs = np.linalg.eigh(binding)
    corner = body.kind == "ppt" and abs(radii[0] - radii[1]) <= GAP_TOL
    if corner or w[1] - w[0] <= GAP_TOL:
        raise NonGenericDirectionError(
            "direction is non-generic (degenerate smallest eigenvalue or "
            "constraint tie); supporting hyperplane not unique")
    n = body.shape.n
    phi = vecs[:, 0]
    proj = np.outer(phi, np.conj(phi))
    if binding_pt:
        proj = partial_transpose(proj, body.shape)
    normal = np.sqrt(n / (n - 1.0)) * (np.eye(n) / n - proj)
    ray = radii.min() * omega
    return body.center + ray, normal, hs_inner(ray, normal), binding_pt, phi


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
