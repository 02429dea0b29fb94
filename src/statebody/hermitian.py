"""Hermitian matrix algebra on bipartite systems: Hilbert-Schmidt geometry,
partial transposition and the PPT test.

The PPT test (Peres 1996; Horodecki^3 1996) decides whether the partial
transpose is positive semidefinite without computing its spectrum: an LDL^dag
sweep without pivoting on T_A(rho) + PPT_TOL * I keeps every pivot positive
exactly when that matrix is positive definite (Sylvester's criterion). It
agrees with the spectral test lambda_min(T_A(rho)) >= -PPT_TOL except for
states whose lambda_min lies within rounding of -PPT_TOL.

A caller that needs only how many eigenvalues lie below some thresholds (the
corner probe) uses :func:`eigen_counts`, Sturm counts on a Householder
tridiagonal. Callers that need the eigenvalues themselves (``negativity``,
``min_eigenvalue``, the radial kernels, ``inner_law`` and the sampler
battery) use ``eigvalsh``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PSD_TOL = 1e-10
PPT_TOL = 1e-12
HERM_ATOL = 1e-12
# rows per block of the three blocked stack kernels: eigen_counts, ppt_mask
# and the samplers' steps after their Gaussian draw. Each block's working set
# stays small while the output stack is written once. On a 2-core VM, 32,768
# 2x3 complex eigen_counts took 0.07 s in blocks of 2,048 and 0.14 s in one
# piece
COUNT_CHUNK = 2048


class DimensionMismatchError(ValueError):
    """Matrix size does not factor as the declared K x M system."""


def _as_matrix(a) -> np.ndarray:
    """The ndarray of one square matrix, given as a wrapper type or a bare
    array; a stack of matrices is rejected."""
    m = a.mat if isinstance(a, HermitianMatrix) else np.asarray(a)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected one square matrix, got shape {m.shape}")
    return m


def row_blocks(size: int) -> list:
    """Slices of at most COUNT_CHUNK consecutive rows that cover range(size),
    in order."""
    return [slice(lo, lo + COUNT_CHUNK) for lo in range(0, size, COUNT_CHUNK)]


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """Canonical Hermitian representative (A + A^dag)/2. Works on stacks."""
    a = np.asarray(a)
    return 0.5 * (a + np.conj(np.swapaxes(a, -1, -2)))


@dataclass(frozen=True)
class BipartiteShape:
    """A K x M tensor factorization, K >= 1 and M >= 2, over a matrix field."""

    k: int
    m: int
    field: str = "complex"

    def __post_init__(self):
        if not (isinstance(self.k, int) and self.k >= 1):
            raise ValueError(f"k must be an integer >= 1, got {self.k!r}")
        if not (isinstance(self.m, int) and self.m >= 2):
            raise ValueError(f"m must be an integer >= 2, got {self.m!r}")
        if self.field not in ("complex", "real"):
            raise ValueError(f"field must be 'complex' or 'real', got {self.field!r}")

    @property
    def n(self) -> int:
        return self.k * self.m

    @property
    def dim_body(self) -> int:
        """Dimension of the set of trace-one Hermitian (symmetric) matrices."""
        n = self.n
        if self.field == "complex":
            return n * n - 1
        return n * (n + 1) // 2 - 1

    @property
    def is_bipartite(self) -> bool:
        """True when partial transposition acts nontrivially (K >= 2)."""
        return self.k >= 2

    def __str__(self):
        return f"{self.k}x{self.m} {self.field}"


class HermitianMatrix:
    """A Hermitian matrix, canonicalized to (A + A^dag)/2 on construction."""

    __slots__ = ("mat",)

    def __init__(self, mat):
        m = _as_matrix(mat)
        m = hermitian_part(m.astype(np.result_type(m.dtype, np.float64)))
        m.setflags(write=False)
        object.__setattr__(self, "mat", m)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        # validated again; the constructor leaves a stored matrix unchanged,
        # so the copy is equal bit for bit
        return type(self), (self.mat,)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim})"


class DensityMatrix(HermitianMatrix):
    """Hermitian, trace renormalized to one, positive semidefinite up to tol."""

    __slots__ = ()

    def __init__(self, mat):
        super().__init__(mat)
        tr = float(np.trace(self.mat).real)
        if abs(tr) < 1e-14:
            raise ValueError(f"trace {tr:.3e} too small to renormalize")
        # dividing by a trace already within rounding of one would only move
        # last bits, so normalizing stays idempotent
        if abs(tr - 1.0) > 4 * self.dim * np.finfo(float).eps:
            m = self.mat / tr
            m.setflags(write=False)
            object.__setattr__(self, "mat", m)
        lo = float(np.linalg.eigvalsh(self.mat)[0])
        if lo < -PSD_TOL:
            raise ValueError(
                f"matrix is not positive semidefinite: min eigenvalue {lo:.3e} "
                f"< -{PSD_TOL:.1e}"
            )


class TracelessDirection(HermitianMatrix):
    """A traceless Hermitian matrix of unit Hilbert-Schmidt norm.

    Construction validates rather than repairs; use :meth:`toward` to project
    an arbitrary Hermitian matrix onto the direction sphere.
    """

    __slots__ = ()

    def __init__(self, mat):
        super().__init__(mat)
        tr = complex(np.trace(self.mat))
        if abs(tr) > HERM_ATOL:
            raise ValueError(f"direction is not traceless: trace = {tr:.3e}")
        nrm = float(np.sqrt(np.sum(np.abs(self.mat) ** 2)))
        if abs(nrm - 1.0) > HERM_ATOL:
            raise ValueError(f"direction is not unit norm: |omega| = {nrm:.16f}")

    @classmethod
    def toward(cls, target) -> "TracelessDirection":
        """Unit direction from the maximally mixed state toward ``target``."""
        m = hermitian_part(_as_matrix(target))
        n = m.shape[0]
        m = m - (np.trace(m).real / n) * np.eye(n, dtype=m.dtype)
        nrm = float(np.sqrt(np.sum(np.abs(m) ** 2)))
        if nrm < 1e-14:
            raise ValueError("target is proportional to the identity")
        return cls(m / nrm)


def hs_inner(a, b) -> float:
    """Hilbert-Schmidt inner product Tr(A B) of Hermitian A, B (real)."""
    am, bm = _as_matrix(a), _as_matrix(b)
    if am.shape != bm.shape:
        raise ValueError(f"shape mismatch {am.shape} vs {bm.shape}")
    # Tr(A B) = sum_ij A_ij conj(B_ij) for Hermitian B
    return float(np.sum(am * np.conj(bm)).real)


def hs_norm(a) -> float:
    """Hilbert-Schmidt norm sqrt(Tr A^2)."""
    am = _as_matrix(a)
    return float(np.sqrt(np.sum(np.abs(am) ** 2)))


def hs_distance(a, b) -> float:
    """Hilbert-Schmidt distance sqrt(Tr (A - B)^2)."""
    am, bm = _as_matrix(a), _as_matrix(b)
    if am.shape != bm.shape:
        raise ValueError(f"shape mismatch {am.shape} vs {bm.shape}")
    return float(np.sqrt(np.sum(np.abs(am - bm) ** 2)))


def _pt_blocks(m: np.ndarray, shape: BipartiteShape) -> np.ndarray:
    """The partial transpose of a stack of N x N matrices as a (..., K, M, K, M)
    view of ``m``, the first tensor factor's indices swapped."""
    n = shape.n
    if m.shape[-2:] != (n, n):
        raise DimensionMismatchError(
            f"matrix shape {m.shape[-2:]} is not {shape.k}*{shape.m} = {n} square"
        )
    r = m.reshape(m.shape[:-2] + (shape.k, shape.m, shape.k, shape.m))
    return np.swapaxes(r, -4, -2)


def partial_transpose(a, shape: BipartiteShape) -> np.ndarray:
    """Transpose the first tensor factor of a K x M system.

    Acts on stacks of matrices along leading axes and accepts wrapper types,
    but always returns a bare array: the partial transpose of a state need not
    be a state (a Bell state's has eigenvalue -1/2).
    """
    m = a.mat if isinstance(a, HermitianMatrix) else np.asarray(a)
    return np.ascontiguousarray(_pt_blocks(m, shape).reshape(m.shape))


def min_eigenvalue(a) -> float:
    """Smallest eigenvalue of a Hermitian matrix."""
    m = hermitian_part(_as_matrix(a))
    try:
        w = np.linalg.eigvalsh(m)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"eigensolver failed on a {m.shape[-1]}x{m.shape[-1]} matrix: {exc}"
        ) from exc
    return float(w[0])


def ppt_mask(states: np.ndarray, shape: BipartiteShape) -> np.ndarray:
    """Batched PPT test on stacks of exactly Hermitian states, as the samplers
    return them: True where T_A(rho) + PPT_TOL * I is positive definite.

    The test is an LDL^dag sweep without pivoting: the k-th pivot is the first
    diagonal entry of the Schur complement left by the first k steps, and every
    pivot is > 0 exactly when the matrix is positive definite (Sylvester). As
    the LAPACK Hermitian eigensolvers do, it reads one triangle, the lower: the
    row of each Schur update is the conjugate of the pivot column. A state with
    a failed pivot stays False. The result agrees with "no eigenvalue of T_A(rho) below -PPT_TOL"
    except within rounding of -PPT_TOL. The sweep runs on blocks of
    COUNT_CHUNK states, each on its own copy, so it never copies the stack.
    """
    m = np.asarray(states)
    n = shape.n
    blocks = _pt_blocks(m, shape).reshape((-1, shape.k, shape.m, shape.k, shape.m))
    ok = np.ones(len(blocks), dtype=bool)
    diag = np.arange(n)
    for rows in row_blocks(len(blocks)):
        # a private copy of the block with the stack on the last axis, so each
        # step works on contiguous runs; the sweep writes only to this copy,
        # never to the caller's states that _pt_blocks views
        a = np.moveaxis(blocks[rows], 0, -1).copy().reshape(n, n, -1)
        a[diag, diag] += PPT_TOL
        good = ok[rows]  # a view: the sweep fills ok in place
        for k in range(n):
            d = a[k, k].real
            good &= d > 0
            # states with a failed pivot get a zero update and stay finite
            row = np.conj(a[k + 1:, k]) / np.where(good, d, np.inf)
            for i in range(k + 1, n):
                a[i, k + 1:i + 1] -= a[i, k] * row[:i - k]
    return ok.reshape(m.shape[:-2])


def eigen_counts(mats: np.ndarray, xs) -> np.ndarray:
    """Number of eigenvalues below each threshold, for a stack of Hermitian
    matrices: a (len(xs), B) integer array for a (B, n, n) stack.

    No spectrum is computed. Batched Householder steps reduce each matrix to a
    real symmetric tridiagonal with the same eigenvalues; only its diagonal and
    squared subdiagonal are kept, a column already zero takes no reflector.
    Sylvester's law of inertia then counts the eigenvalues below x as the
    negative pivots of the Sturm recurrence
    d_k = (a_k - x) - e_{k-1}^2 / d_{k-1}, as LAPACK's bisection does
    (Barth, Martin & Wilkinson 1967): a pivot smaller in magnitude than
    pivmin is taken as -pivmin, as in ``dstebz``. Both triangles are read.
    A non-finite entry raises ``np.linalg.LinAlgError``.
    """
    m = np.asarray(mats)
    n = m.shape[-1]
    xs = np.asarray(xs, dtype=float).reshape(-1, 1)
    m = m.reshape(-1, n, n)
    counts = np.zeros((len(xs), len(m)), dtype=np.int64)
    for rows in row_blocks(len(m)):
        # a private batch-last copy, so each step works on contiguous runs
        a = np.array(np.moveaxis(m[rows], 0, -1),
                     dtype=np.result_type(m.dtype, np.float64))
        if not np.isfinite(a).all():
            raise np.linalg.LinAlgError(
                f"non-finite entry in a stack of {n}x{n} matrices")
        diag, e2 = _tridiagonal(a)
        pivmin = np.finfo(float).tiny * np.maximum(1.0, e2.max(axis=0, initial=0.0))
        c = counts[:, rows]
        for k in range(n):
            d = diag[k] - xs if k == 0 else diag[k] - xs - e2[k - 1] / d
            d = np.where(np.abs(d) < pivmin, -pivmin, d)
            c += d < 0
    return counts


def _tridiagonal(a: np.ndarray):
    """Diagonal (n, b) and squared subdiagonal (n - 1, b) of the Householder
    tridiagonal of a batch-last (n, n, b) Hermitian stack, which it overwrites.

    Step k maps column k below the diagonal to a multiple of e_1 of norm
    alpha with the reflector H = I - tau v v^dag, v = x + e^{i arg x_0} alpha e_1,
    tau = 1 / (alpha (alpha + |x_0|)), and updates the trailing block to
    H A H = A - v w^dag - w v^dag with p = tau A v,
    w = p - (tau / 2) (v^dag p) v.
    """
    n = a.shape[0]
    e2 = np.empty((max(n - 1, 0), a.shape[-1]))
    for k in range(n - 1):
        x = a[k + 1:, k]
        e2[k] = (x * np.conj(x)).real.sum(axis=0)
        alpha = np.sqrt(e2[k])
        live = alpha > 0
        # the last column needs no reflector, nor does one already zero
        if k == n - 2 or not live.any():
            continue
        r0 = np.abs(x[0])
        # phase of x_0, taken as 1 where x_0 = 0; tau = 0 leaves H = I
        phase = np.where(r0 > 0, x[0] / np.where(r0 > 0, r0, 1.0), 1.0)
        tau = np.where(live, 1.0 / np.where(live, alpha * (alpha + r0), 1.0), 0.0)
        v = x.copy()
        v[0] += phase * alpha
        t = a[k + 1:, k + 1:]
        p = tau * (t * v).sum(axis=1)
        w = p - (0.5 * tau * (np.conj(v) * p).sum(axis=0)) * v
        t -= v[:, None] * np.conj(w)[None] + w[:, None] * np.conj(v)[None]
    # step k leaves row and column k alone from then on
    i = np.arange(n)
    return a[i, i].real, e2


def is_ppt(rho, shape: BipartiteShape) -> bool:
    """Whether T_A of the Hermitian part of ``rho``, plus PPT_TOL * I, is
    positive definite: the LDL^dag pivot test of :func:`ppt_mask`."""
    return bool(ppt_mask(hermitian_part(_as_matrix(rho)), shape))


def negativity(rho, shape: BipartiteShape) -> float:
    """Sum of the absolute values of negative partial-transpose eigenvalues.

    Zero exactly when the state is PPT; positive for every entangled pure
    state of a bipartite system.
    """
    pt = partial_transpose(hermitian_part(_as_matrix(rho)), shape)
    w = np.linalg.eigvalsh(pt)
    return float(-np.sum(np.minimum(w, 0.0)))


def maximally_mixed(n: int, field: str = "complex") -> np.ndarray:
    """The fixed point I/N of partial transposition."""
    dtype = np.complex128 if field == "complex" else np.float64
    return np.eye(n, dtype=dtype) / n
