"""Stacks of Hermitian matrices on bipartite systems: partial transposition,
the PPT test and the eigen kernels.

The PPT test (Peres 1996; Horodecki^3 1996) decides whether the partial
transpose is positive semidefinite without computing its spectrum: an LDL^dag
sweep without pivoting on T_A(rho) + PPT_TOL * I keeps every pivot positive
exactly when that matrix is positive definite (Sylvester's criterion). It
agrees with the spectral test lambda_min(T_A(rho)) >= -PPT_TOL except for
states whose lambda_min lies within rounding of -PPT_TOL.

Two batch eigen paths serve the stacks. The corner probe needs only how
many eigenvalues lie below some thresholds and uses :func:`eigen_counts`,
Sturm counts on a batched Householder tridiagonal. Every other batch
caller needs only the smallest eigenvalue per constraint of a state body,
and reads it from :func:`min_eigenvalues`, a Newton iteration on the same
tridiagonal that the same Sturm counts certify: the interior draws of both
interior laws and the direction sweeps of the radial kernel. A row of
either path gets the same bits alone as in any stack. ``eigvalsh`` is left
for whole spectra (the sampler battery), the one ``eigh`` of
``geometry.support_height`` and the rows ``min_eigenvalues`` cannot certify.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

PPT_TOL = 1e-12
# rows per row_blocks block of the blocked stack kernels: eigen_counts,
# min_eigenvalues, ppt_mask and the samplers, each on a batch-last copy of its
# block (a sampler's helper also fills the Gaussian parts a block at a time).
# Each block's working set stays small while the output stack is written once. On a 2-core VM, 32,768 2x3 complex
# eigen_counts took 0.07 s in blocks of 2,048 and 0.14 s in one piece
COUNT_CHUNK = 2048


class DimensionMismatchError(ValueError):
    """Matrix size does not factor as the declared K x M system."""


def row_blocks(size: int, block: int = COUNT_CHUNK) -> list:
    """Slices of ``block`` consecutive rows that cover range(size) in order,
    the last one shorter, except that a lone last row joins the block before
    it: BLAS and einsum take a one-row batch through another loop, which
    rounds differently, so that row's bits would depend on its block."""
    starts = list(range(0, size, block))
    if len(starts) > 1 and size - starts[-1] == 1:
        starts.pop()
    return [slice(lo, hi) for lo, hi in zip(starts, starts[1:] + [size])]


def _batch_last(block: np.ndarray) -> np.ndarray:
    """A private C-order copy of a block of a stack with the stack on the
    last axis, in at least float64, so each step of a batched kernel works
    on contiguous runs and writes only to this copy."""
    return np.array(np.moveaxis(block, 0, -1),
                    dtype=np.result_type(block.dtype, np.float64), order="C")


def _hs_norms(a: np.ndarray) -> np.ndarray:
    """Hilbert-Schmidt norm of each matrix of a stack (0-d for one matrix)."""
    return np.sqrt(np.sum(np.abs(a) ** 2, axis=(-2, -1)))


def _integer(name: str, value, low: int, high: int | None = None) -> int:
    """``value`` as a Python int: a count, seed or index. A bool, a
    non-integer, or a value below ``low`` or above ``high`` raises ValueError
    naming the argument; a numpy integer is accepted."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if value < low or (high is not None and value > high):
        upper = "" if high is None else f" and <= {high}"
        raise ValueError(f"{name} must be >= {low}{upper}, got {value}")
    return value


def _dtype(field: str):
    """complex128 for the "complex" field, float64 for "real"; any other
    field raises ValueError."""
    if field not in ("complex", "real"):
        raise ValueError(f"field must be 'complex' or 'real', got {field!r}")
    return np.complex128 if field == "complex" else np.float64


@dataclass(frozen=True)
class BipartiteShape:
    """A K x M tensor factorization, K >= 1 and M >= 2, over the "complex"
    or "real" field. K and M may be any integers but bools and are stored as
    Python ints, so a shape built from numpy integers equals, hashes and
    prints like one built from Python ints."""

    k: int
    m: int
    field: str = "complex"

    def __post_init__(self):
        object.__setattr__(self, "k", _integer("k", self.k, 1))
        object.__setattr__(self, "m", _integer("m", self.m, 2))
        _dtype(self.field)

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
    """Transpose the first tensor factor of a K x M system: a contiguous
    array of the shape of ``a``, one N x N matrix or a stack of them along
    leading axes.
    """
    m = np.asarray(a)
    return np.ascontiguousarray(_pt_blocks(m, shape).reshape(m.shape))


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
        # the sweep writes only to this copy, never to the caller's states
        # that _pt_blocks views
        a = _batch_last(blocks[rows]).reshape(n, n, -1)
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
    pivmin is taken as -pivmin, as in ``dstebz``. Both triangles are read. A
    non-finite entry raises ``np.linalg.LinAlgError``, a NaN threshold ValueError.
    """
    m = _stack(mats)
    xs = np.asarray(xs, dtype=float).reshape(-1, 1)
    if np.isnan(xs).any():
        raise ValueError("a threshold is NaN; no eigenvalue count is defined")
    counts = np.zeros((len(xs), len(m)), dtype=np.int64)
    for rows, diag, e2 in _tridiagonal_blocks(m):
        counts[:, rows] = _sturm_counts(diag, e2, xs)
    return counts


def min_eigenvalues(mats: np.ndarray):
    """Smallest eigenvalue of each matrix in a stack of Hermitian matrices,
    without computing the spectrum: an array of the stack's leading shape,
    and the number of its entries taken from ``eigvalsh``.

    On the tridiagonal of :func:`eigen_counts` (scaled by a power of two to
    norm <= 1, which is exact), Newton's method on det(T - x) starts from the
    Gershgorin lower bound, NEWTON_ROWS rows at a time. Its step is
    1 / tr((T - x)^{-1}), the diagonal of the inverse read off the forward
    and backward pivots of T - x (a twisted factorization), so left of
    lambda_min every quantity stays bounded and the step never passes
    lambda_min: the iterates rise monotonically. A row
    stops once a step is at most MIN_EIG_STEP or a forward pivot is no
    longer positive. Two Sturm counts under ``eigen_counts``' pivmin rule
    certify each stopped row, none below x - MIN_EIG_TOL and at least one
    below x + MIN_EIG_TOL (in units of the scale); a row that fails, or that
    has not stopped after NEWTON_SWEEPS sweeps, is sent to ``eigvalsh``.
    Both triangles are read; a non-finite entry raises
    ``np.linalg.LinAlgError``.
    """
    lead = np.shape(mats)[:-2]
    m = _stack(mats)
    n = m.shape[-1]
    out, ok = np.empty(len(m)), np.empty(len(m), dtype=bool)
    groups = row_blocks(len(m), NEWTON_ROWS)
    # one workspace, as wide as the largest group, serves every group: the
    # tridiagonal, its compacted copy and the scratch rows every step writes
    work = np.empty((7, n, max((g.stop - g.start for g in groups), default=0)))
    for group in groups:
        sub = m[group]
        w = work[:, :, :len(sub)]
        for rows, diag, e2 in _tridiagonal_blocks(sub):
            w[0, :, rows], w[1, :-1, rows] = diag, e2
        out[group], ok[group] = _newton_min(w)
    fallback = np.flatnonzero(~ok)
    if len(fallback):
        out[fallback] = np.linalg.eigvalsh(m[fallback])[:, 0]
    return out.reshape(lead), len(fallback)


def _stack(mats) -> np.ndarray:
    """A stack of square matrices as a (B, n, n) array, else ValueError."""
    m = np.asarray(mats)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a stack of square matrices, got shape {m.shape}")
    n = m.shape[-1]
    return m.reshape(-1, n, n)


# a matrix with its largest entry within 2^(+-SCALE_EXP) is reduced
# unscaled: its squared column norms stay far from under- and overflow
SCALE_EXP = 100


def _tridiagonal_blocks(m: np.ndarray):
    """For each block of COUNT_CHUNK rows of a (B, n, n) Hermitian stack: its
    row slice and its tridiagonal's diagonal and squared subdiagonal."""
    n = m.shape[-1]
    for rows in row_blocks(len(m)):
        a = _batch_last(m[rows])
        if not np.isfinite(a).all():
            raise np.linalg.LinAlgError(
                f"non-finite entry in a stack of {n}x{n} matrices")
        # a matrix whose largest entry lies outside 2^(+-SCALE_EXP) is
        # scaled by a power of two near it, which is exact, so no reflector
        # of a tiny or a huge matrix under- or overflows. The float view holds
        # a complex entry's two parts side by side on the batch axis
        parts = np.abs(a.view(np.float64)).max(axis=(0, 1))
        _, exp = np.frexp(parts.reshape(a.shape[-1], -1).max(axis=1))
        exp[np.abs(exp) <= SCALE_EXP] = 0
        if exp.any():
            a *= np.ldexp(1.0, -exp)
        diag, e2 = _tridiagonal(a)
        if exp.any():
            diag, e2 = np.ldexp(diag, exp), np.ldexp(e2, 2 * exp)
        yield rows, diag, e2


def _sturm_counts(diag: np.ndarray, e2: np.ndarray, xs) -> np.ndarray:
    """Number of negative Sturm pivots of T - x for each x of ``xs``, an
    array broadcast against the b rows of the (n, b) tridiagonals: a pivot
    smaller in magnitude than pivmin is taken as -pivmin, as in ``dstebz``."""
    pivmin = np.finfo(float).tiny * np.maximum(1.0, e2.max(axis=0, initial=0.0))
    shape = np.broadcast_shapes(np.shape(xs), diag.shape[1:])
    d, t = np.empty(shape), np.empty(shape)
    small = np.empty(shape, dtype=bool)
    c = np.zeros(shape, dtype=np.int64)
    for k in range(len(diag)):
        # d_k = (a_k - x) - e_{k-1}^2 / d_{k-1}
        if k:
            np.divide(e2[k - 1], d, out=t)
        np.subtract(diag[k], xs, out=d)
        if k:
            d -= t
        np.less(np.abs(d, out=t), pivmin, out=small)
        np.copyto(d, -pivmin, where=small)
        c += d < 0
    return c


# rows per Newton iteration: its steps are short loops over (n, rows)
# arrays, and per 65,536 1x3 complex rows (2-core VM, one BLAS thread,
# median of 9) groups of 16,384 took 50 ms against 77 ms in groups of
# COUNT_CHUNK, and eigvalsh about 100 ms
NEWTON_ROWS = 8 * COUNT_CHUNK
# Newton sweeps before an unconverged row goes to eigvalsh; rows of random
# states take 5 to 12, an exactly double minimum about 55
NEWTON_SWEEPS = 64
# in units of the power-of-two scale, at least ||T||_inf: a row stops once a
# step is at most MIN_EIG_STEP (at 8 eps an exactly double minimum stopped up
# to 8 eps short, which read 19 eps ||A||_F off eigvalsh; at eps, 4.6), and
# the certificate brackets lambda_min within MIN_EIG_TOL
MIN_EIG_STEP = np.finfo(float).eps
MIN_EIG_TOL = 8 * np.finfo(float).eps
# pivots and inverse-diagonal terms are clamped to at least this (in units of
# the scale), so no reciprocal, and no sum of n of them, overflows
_PIVOT_FLOOR = np.finfo(float).tiny / np.finfo(float).eps


def _newton_min(w: np.ndarray):
    """lambda_min of each tridiagonal by the Newton iteration of
    :func:`min_eigenvalues`, and whether the row stopped and was certified.
    ``w`` is a (7, n, b) workspace holding the diagonal in ``w[0]`` and the
    squared subdiagonal in ``w[1, :-1]``, which are overwritten."""
    n, b = w.shape[1:]
    d, e2, dw, e2w = w[0], w[1, :-1], w[2], w[3, :-1]
    radius, tmp = w[4], w[5]
    vec = np.empty((4, b))
    x, xw, step, low = vec
    flags = np.empty((3, b), dtype=bool)
    live, moving, big = flags
    radius[:] = 0.0
    e = np.sqrt(e2, out=tmp[:-1])
    radius[:-1] += e
    radius[1:] += e
    # a power of two at least the infinity norm, 1 for a zero matrix
    np.add(np.abs(d, out=tmp), radius, out=tmp)
    _, exp = np.frexp(np.max(tmp, axis=0, initial=0.0, out=x))
    np.ldexp(d, -exp, out=d)
    np.ldexp(e2, -2 * exp, out=e2)
    np.ldexp(radius, -exp, out=radius)
    # the Gershgorin lower bound
    np.min(np.subtract(d, radius, out=tmp), axis=0, initial=np.inf, out=x)
    # the working set: rows[i] is iterated at xw[i] while live[i]; whenever
    # at most half of it is live it is cut down to its live rows, gathered
    # from d and e2 into the front of dw and e2w
    rows, dr, e2r = np.arange(b), d, e2
    xw[:] = x
    live[:] = True
    for _ in range(NEWTON_SWEEPS):
        r = len(rows)
        _newton_step(dr, e2r, xw[:r], w[4:, :, :r], step[:r], low[:r], moving[:r])
        np.logical_and(live[:r], moving[:r], out=moving[:r])
        np.add(xw[:r], step[:r], out=xw[:r], where=moving[:r])
        np.logical_and(moving[:r], np.greater(step[:r], MIN_EIG_STEP, out=big[:r]),
                       out=live[:r])
        k = np.count_nonzero(live[:r])
        if 2 * k <= r:
            x[rows] = xw[:r]
            rows = rows[live[:r]]
            if not k:
                break
            # indices are in range; mode "clip" writes out unbuffered
            dr, e2r = np.take(d, rows, axis=1, out=dw[:, :k], mode="clip"), e2w[:, :k]
            np.take(e2, rows, axis=1, out=e2r, mode="clip")
            np.take(x, rows, out=xw[:k], mode="clip")
            live[:k] = True
    else:
        x[rows] = xw[:len(rows)]
    stopped = np.ones(b, dtype=bool)
    stopped[rows[live[:len(rows)]]] = False
    below = _sturm_counts(d, e2, np.stack([x - MIN_EIG_TOL, x + MIN_EIG_TOL]))
    ok = stopped & (below[0] == 0) & (below[1] >= 1)
    return np.ldexp(x, exp), ok


def _newton_step(d, e2, x, work, step, low, valid):
    """Into ``step``, the Newton step 1 / tr((T - x)^{-1}) of each (n, b)
    tridiagonal of norm <= 1, and into ``valid``, whether every forward
    pivot of T - x is above the floor. ``work`` is a (3, n, b) scratch array
    and ``low`` a (b,) one."""
    n = len(d)
    dx, fwd, bwd = work
    np.subtract(d, x, out=dx)
    np.maximum(dx[0], _PIVOT_FLOOR, out=fwd[0])
    np.maximum(dx[-1], _PIVOT_FLOOR, out=bwd[-1])
    for k in range(1, n):
        # fwd_k = dx_k - e_{k-1}^2 / fwd_{k-1}, bwd_j = dx_j - e_j^2 / bwd_{j+1}
        np.divide(e2[k - 1], fwd[k - 1], out=fwd[k])
        np.subtract(dx[k], fwd[k], out=fwd[k])
        np.maximum(fwd[k], _PIVOT_FLOOR, out=fwd[k])
        j = n - 1 - k
        np.divide(e2[j], bwd[j + 1], out=bwd[j])
        np.subtract(dx[j], bwd[j], out=bwd[j])
        np.maximum(bwd[j], _PIVOT_FLOOR, out=bwd[j])
    np.min(fwd, axis=0, out=low)
    np.greater(low, _PIVOT_FLOOR, out=valid)
    # 1 / ((T - x)^{-1})_kk = bwd_k - e_{k-1}^2 / fwd_{k-1}
    inv = bwd
    np.divide(e2, fwd[:-1], out=dx[1:])
    np.subtract(inv[1:], dx[1:], out=inv[1:])
    np.maximum(inv, _PIVOT_FLOOR, out=inv)
    np.reciprocal(inv, out=inv)
    step[:] = _sum_in_order(inv)
    np.reciprocal(step, out=step)


def _sum_in_order(x: np.ndarray) -> np.ndarray:
    """The sum of ``x`` over its first axis, added in index order, as numpy
    adds a reduction over b >= 2 batch columns. Over one column it would add
    pairwise, and a row alone would round unlike its row in a stack."""
    return functools.reduce(np.add, x)


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
        e2[k] = _sum_in_order((x * np.conj(x)).real)
        alpha = np.sqrt(e2[k])
        # the last column needs no reflector, nor does one already zero
        if k == n - 2 or not alpha.any():
            continue
        r0 = np.abs(x[0])
        den = alpha * (alpha + r0)
        # nor does one so small that 1 / den would overflow
        live = den > np.finfo(float).tiny
        # phase of x_0, taken as 1 where x_0 = 0; tau = 0 leaves H = I
        phase = np.where(r0 > 0, x[0] / np.where(r0 > 0, r0, 1.0), 1.0)
        tau = np.where(live, 1.0 / np.where(live, den, 1.0), 0.0)
        v = x.copy()
        v[0] += phase * alpha
        t = a[k + 1:, k + 1:]
        p = tau * _sum_in_order(np.swapaxes(t * v, 0, 1))
        w = p - (0.5 * tau * _sum_in_order(np.conj(v) * p)) * v
        t -= v[:, None] * np.conj(w)[None] + w[:, None] * np.conj(v)[None]
    # step k leaves row and column k alone from then on
    i = np.arange(n)
    return a[i, i].real, e2


def maximally_mixed(n: int, field: str = "complex") -> np.ndarray:
    """The fixed point I/N of partial transposition."""
    return np.eye(n, dtype=_dtype(field)) / n
