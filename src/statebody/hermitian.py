"""Stacks of Hermitian matrices on bipartite systems: partial transposition,
the PPT test and the eigen kernels.

The PPT test (Peres 1996; Horodecki^3 1996) decides whether the partial
transpose is positive semidefinite without computing its spectrum: an LDL^dag
sweep without pivoting on T_A(rho) + PPT_TOL * I keeps every pivot positive
exactly when that matrix is positive definite (Sylvester's criterion). It
agrees with the spectral test lambda_min(T_A(rho)) >= -PPT_TOL except for
states whose lambda_min lies within rounding of -PPT_TOL.

Every kernel here but :func:`partial_transpose` is a per-block kernel: it
reads a batch-last (N, N, b) block as the samplers' block sources yield it,
and the sweeps stream those blocks through it, one at a time; no kernel
takes a stack-first stack. The PPT test is :func:`_ppt_block`. Two batch
eigen paths serve the blocks. The corner probe needs only how many
eigenvalues lie below some thresholds and uses :func:`_count_block`, Sturm
counts on a batched Householder tridiagonal. Every other batch caller needs
only the smallest eigenvalue per constraint of a state body, and reads it
from :func:`_block_minima`, a Newton iteration on the same tridiagonal that
the same Sturm counts certify: the interior draws of both interior laws and
the direction sweeps of the radial kernel. A row of either path gets the
same bits alone as in any block. The whole nonzero spectra of production
boundary states at N <= 4, which the sampler battery reads, come in closed
form from their power sums (:func:`_spectrum_block`). ``eigvalsh`` is left
for the spectra of the battery's beta-Laguerre oracle, the one ``eigh`` of
``geometry.support_height`` and the rows :func:`_block_minima` cannot
certify.

No per-block kernel writes its block. All but :func:`_spectrum_block` work
on their own C-order copy (:func:`_batch_last`), which can hold the
block's partial transposes, so no transposed stack is built.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

PPT_TOL = 1e-12
# rows per row_blocks block of the samplers' block sources, and so of the
# blocks the per-block kernels take, each on a batch-last copy of its block
# (a sampler's helper also fills every Gaussian part a block at a time), so
# each block's working set stays small. On a 2-core VM, the eigen counts of
# 32,768 2x3 complex matrices took 0.07 s in blocks of 2,048 and 0.14 s in
# one piece
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


def _batch_last(pieces: list, shape: BipartiteShape | None = None) -> np.ndarray:
    """A private C-order (n, n, b) copy of a list of batch-last (n, n, b_i)
    pieces joined along the last axis, in at least float64, so each step of
    a batched kernel works on contiguous runs and writes only to this copy.
    With a ``shape`` the copy holds the partial transposes of the pieces,
    and a piece whose leading axes are not (shape.n, shape.n) raises
    DimensionMismatchError; without one, pieces whose leading axes are not
    square and equal raise ValueError. A stack-first (N, N, N) array cannot
    be told from a block by its shape: it is read as a block."""
    n = pieces[0].shape[0] if shape is None else shape.n
    if any(a.shape[:-1] != (n, n) for a in pieces):
        error = ValueError if shape is None else DimensionMismatchError
        raise error(f"expected batch-last blocks of square {n}x{n} matrices, got "
                    f"shapes {[a.shape for a in pieces]}")
    out = np.empty((n, n, sum(a.shape[-1] for a in pieces)),
                   dtype=np.result_type(pieces[0].dtype, np.float64))
    dest, split = out, (n, n)
    if shape is not None:
        # the first factor's indices swapped: out[i, k, j, l] = a[j, k, i, l]
        split = (shape.k, shape.m) * 2
        dest = np.swapaxes(out.reshape(*split, out.shape[-1]), 0, 2)
    lo = 0
    for a in pieces:
        hi = lo + a.shape[-1]
        dest[..., lo:hi] = a.reshape(*split, a.shape[-1])
        lo = hi
    return out


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


def _ppt_block(block: np.ndarray, shape: BipartiteShape) -> np.ndarray:
    """Batched PPT test on one batch-last (N, N, b) block of exactly
    Hermitian states, as the samplers yield them: a (b,) mask, True where
    T_A(rho) + PPT_TOL * I is positive definite.

    The test is an LDL^dag sweep without pivoting: the k-th pivot is the first
    diagonal entry of the Schur complement left by the first k steps, and every
    pivot is > 0 exactly when the matrix is positive definite (Sylvester). As
    the LAPACK Hermitian eigensolvers do, it reads one triangle, the lower: the
    row of each Schur update is the conjugate of the pivot column. A state with
    a failed pivot stays False. The result agrees with "no eigenvalue of
    T_A(rho) below -PPT_TOL" except within rounding of -PPT_TOL. The block
    is read but never written: the sweep runs on its own copy of the
    partial transposes, and a block whose leading axes are not (N, N)
    raises DimensionMismatchError.
    """
    n = shape.n
    a = _batch_last([block], shape)
    diag = np.arange(n)
    a[diag, diag] += PPT_TOL
    good = np.ones(a.shape[-1], dtype=bool)
    for k in range(n):
        d = a[k, k].real
        good &= d > 0
        # states with a failed pivot get a zero update and stay finite
        row = np.conj(a[k + 1:, k]) / np.where(good, d, np.inf)
        for i in range(k + 1, n):
            a[i, k + 1:i + 1] -= a[i, k] * row[:i - k]
    return good


def _count_block(block: np.ndarray, xs: np.ndarray, shape: BipartiteShape | None = None):
    """Number of eigenvalues below each threshold of the (len(xs), 1) array
    ``xs`` of each matrix of a batch-last (n, n, b) Hermitian block, a
    (len(xs), b) integer array; with a ``shape``, of the block's partial
    transposes, formed in the kernel's own copy.

    No spectrum is computed. Batched Householder steps reduce each matrix to a
    real symmetric tridiagonal with the same eigenvalues; only its diagonal and
    squared subdiagonal are kept, a column already zero takes no reflector.
    Sylvester's law of inertia then counts the eigenvalues below x as the
    negative pivots of the Sturm recurrence
    d_k = (a_k - x) - e_{k-1}^2 / d_{k-1}, as LAPACK's bisection does
    (Barth, Martin & Wilkinson 1967): a pivot smaller in magnitude than
    pivmin is taken as -pivmin, as in ``dstebz``. Both triangles are read. A
    non-finite entry raises ``np.linalg.LinAlgError``, a NaN threshold
    ValueError.
    """
    if np.isnan(xs).any():
        raise ValueError("a threshold is NaN; no eigenvalue count is defined")
    return _sturm_counts(*_tridiagonal_block(_batch_last([block], shape)), xs)


def _power_sums(block: np.ndarray):
    """The power sums (p1, p2, p3), p_k = Tr rho^k, of each matrix of a
    batch-last (n, n, b) Hermitian block, as (b,) arrays: p1 the diagonal
    summed in index order, p2 = sum |rho_ij|^2 and, for n = 4 only (else
    None), p3 = Re sum_ik (rho rho)_ik rho_ki, one contraction per row of
    rho rho. Each runs per column, so a matrix's sums do not depend on its
    block."""
    n = block.shape[0]
    d = np.arange(n)
    p1 = _sum_in_order(block[d, d].real)
    sq = block.real ** 2
    if np.iscomplexobj(block):
        sq += block.imag ** 2
    p2 = _sum_in_order(sq.reshape(n * n, -1))
    p3 = None
    if n == 4:
        p3 = sum(np.einsum("kb,kb->b", np.einsum("jb,jkb->kb", block[i], block),
                           block[:, i]).real for i in range(n))
    return p1, p2, p3


def _spectrum_block(block: np.ndarray) -> np.ndarray:
    """The nonzero eigenvalues of each state of a batch-last (N, N, b) block
    of trace-one rank-(N - 1) Hermitian states, N = 2..4, as a (b, N - 1)
    array of rows sorted ascending, read off the :func:`_power_sums`.

    A row has at most three nonzero eigenvalues, so Newton's identities
    give them in closed form. N = 2 gives p1, and N = 3
    (p1 -+ sqrt(2 p2 - p1^2)) / 2. N = 4 takes the elementary symmetric
    sums e2 = (p1^2 - p2) / 2 and e3 = (p1^3 - 3 p1 p2 + 2 p3) / 6 to the
    trigonometric roots of the cubic (Smith, Comm. ACM 4, 168 (1961)) and
    sorts them: at a tie the formula's own order can be off by an ulp. On
    production boundary states a row lies within 1e-12 of ``eigvalsh``'s;
    a double root costs about sqrt(eps). A state's row does not depend on
    its block."""
    n = block.shape[0]
    p1, p2, p3 = _power_sums(block)
    if n == 2:
        return p1[:, None]
    if n == 3:
        half_gap = 0.5 * np.sqrt(np.maximum(2.0 * p2 - p1 * p1, 0.0))
        return np.stack([0.5 * p1 - half_gap, 0.5 * p1 + half_gap], axis=1)
    e2 = 0.5 * (p1 * p1 - p2)
    e3 = (p1 * (p1 * p1 - 3.0 * p2) + 2.0 * p3) / 6.0
    # t^3 + p t + q = 0 for t = lambda - p1 / 3, with p <= 0 for a real
    # spectrum; t = 2 r cos(angle - 2 pi k / 3), r = sqrt(-p / 3)
    shift = p1 / 3.0
    p = e2 - p1 * shift
    q = shift * (e2 - 2.0 * shift * shift) - e3
    r = np.sqrt(np.maximum(-p / 3.0, 0.0))
    cos3 = np.divide(q, -2.0 * r ** 3, out=np.zeros_like(q), where=r > 0)
    angle = np.arccos(np.clip(cos3, -1.0, 1.0)) / 3.0
    roots = shift + 2.0 * r * np.cos(angle - (2.0 * np.pi / 3.0) * np.arange(3)[:, None])
    return np.sort(roots.T, axis=1)


def _block_minima(blocks, shapes=(None,)):
    """Smallest eigenvalue of each matrix of a sequence of batch-last
    (n, n, b) Hermitian blocks, read but never written, under each entry of
    ``shapes``: None for the matrices themselves, a :class:`BipartiteShape`
    for their partial transposes. Returns a (len(shapes), rows) array over
    the rows of all blocks in order, and how many entries came from
    ``eigvalsh``. No spectrum is computed.

    On the tridiagonal of :func:`_count_block` (scaled by a power of two to
    norm <= 1, which is exact), Newton's method on det(T - x) starts from the
    Gershgorin lower bound. Its step is 1 / tr((T - x)^{-1}), the diagonal
    of the inverse read off the forward and backward pivots of T - x (a
    twisted factorization), so left of lambda_min every quantity stays
    bounded and the step never passes lambda_min: the iterates rise
    monotonically. A row stops once a step is at most MIN_EIG_STEP or a
    forward pivot is no longer positive. Two Sturm counts under
    :func:`_count_block`'s pivmin rule certify each stopped row, none below
    x - MIN_EIG_TOL and at least one below x + MIN_EIG_TOL (in units of the
    scale); a row that fails, or that has not stopped after NEWTON_SWEEPS
    sweeps, is sent to ``eigvalsh``. Both triangles are read; a non-finite
    entry raises ``np.linalg.LinAlgError``.

    The rows run through the Newton iteration in groups of at least
    NEWTON_ROWS (:func:`_newton_groups`), and only the current group's
    blocks are held, so a caller that streams its blocks holds
    O(NEWTON_ROWS) matrices. No row's result depends on its block or its
    group.
    """
    parts = [_group_minima(group, shapes) for group in _newton_groups(blocks)]
    if not parts:
        return np.empty((len(shapes), 0)), 0
    return np.concatenate([lam for lam, _ in parts], axis=1), sum(f for _, f in parts)


def _newton_groups(blocks):
    """The COUNT_CHUNK-row pieces of a sequence of batch-last (n, n, b)
    blocks, in order, gathered into lists of at least NEWTON_ROWS rows; the
    last list may hold fewer."""
    group, held = [], 0
    for block in blocks:
        for rows in row_blocks(block.shape[-1]):
            group.append(block[..., rows])
            held += rows.stop - rows.start
            if held >= NEWTON_ROWS:
                yield group
                group, held = [], 0
    if group:
        yield group


def _group_minima(group: list, shapes):
    """lambda_min under each entry of ``shapes`` of the rows of one Newton
    group of batch-last (n, n, b) pieces, as a (len(shapes), rows) array,
    and how many came from ``eigvalsh``: consecutive pieces are gathered
    into C-order copies of at most COUNT_CHUNK rows, each reduced at once
    into one workspace (on a PPT body a piece holds only a block's few
    kept rows: reducing each on its own took 18 ms against 9 ms for the
    1,763 kept of 65,536 2x3 complex draws, one BLAS thread), and the rows
    the Newton kernel cannot certify are sent to ``eigvalsh``."""
    n, rows = group[0].shape[0], sum(piece.shape[-1] for piece in group)
    batches, held = [[]], 0
    for piece in group:
        if batches[-1] and held + piece.shape[-1] > COUNT_CHUNK:
            batches.append([])
            held = 0
        batches[-1].append(piece)
        held += piece.shape[-1]
    lam, fallbacks = np.empty((len(shapes), rows)), 0
    for c, shape in enumerate(shapes):
        # the tridiagonals, their compacted copies and the scratch rows
        # every Newton step writes
        w = np.empty((7, n, rows))
        lo = 0
        for batch in batches:
            hi = lo + sum(piece.shape[-1] for piece in batch)
            w[0, :, lo:hi], w[1, :-1, lo:hi] = _tridiagonal_block(_batch_last(batch, shape))
            lo = hi
        lam[c], ok = _newton_min(w)
        bad = np.flatnonzero(~ok)
        if len(bad):
            mats = np.moveaxis(np.concatenate(group, axis=-1)[..., bad], -1, 0)
            if shape is not None:
                mats = partial_transpose(mats, shape)
            lam[c, bad] = np.linalg.eigvalsh(mats)[:, 0]
            fallbacks += len(bad)
    return lam, fallbacks


# a matrix with its largest entry within 2^(+-SCALE_EXP) is reduced
# unscaled: its squared column norms stay far from under- and overflow
SCALE_EXP = 100


def _tridiagonal_block(a: np.ndarray):
    """The diagonal and squared subdiagonal of the tridiagonals of a
    batch-last (n, n, b) Hermitian copy, which it overwrites. A non-finite
    entry raises ``np.linalg.LinAlgError``."""
    n = a.shape[0]
    # one pass gives each matrix's largest entry, and a NaN or an inf
    # propagates through it. A matrix whose largest entry lies outside
    # 2^(+-SCALE_EXP) is scaled by a power of two near it, which is exact,
    # so no reflector of a tiny or a huge matrix under- or overflows. The
    # float view holds a complex entry's two parts side by side on the
    # batch axis; their count per column is given, so an empty block
    # reshapes too
    parts = np.abs(a.view(np.float64)).max(axis=(0, 1))
    top = parts.reshape(a.shape[-1], 1 + np.iscomplexobj(a)).max(axis=1)
    if not np.isfinite(top).all():
        raise np.linalg.LinAlgError(f"non-finite entry in a stack of {n}x{n} matrices")
    _, exp = np.frexp(top)
    exp[np.abs(exp) <= SCALE_EXP] = 0
    if exp.any():
        a *= np.ldexp(1.0, -exp)
    diag, e2 = _tridiagonal(a)
    if exp.any():
        diag, e2 = np.ldexp(diag, exp), np.ldexp(e2, 2 * exp)
    return diag, e2


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
    :func:`_block_minima`, and whether the row stopped and was certified.
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
