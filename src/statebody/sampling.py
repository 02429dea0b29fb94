"""Seeded samplers for the Hilbert-Schmidt ensemble.

Every sampler is a pure function of an :class:`RngStream` value: calling it
twice with the same stream and size returns bit-identical output. Distinct
draws therefore need distinct streams, usually obtained via
:meth:`RngStream.child`. Samplers always return (size, N, N) stacks; a single
draw is ``sample_*(shape, rng, 1)[0]``, on the same stream. Each call starts
and joins one helper thread (below), about 0.37 ms whatever its size, so a
caller that wants many draws should draw one stack, not loop over single
draws.

Draws stream through row blocks. A stack sampler allocates the real and
imaginary Gaussian parts of its whole stack, and its output, once. One helper
thread per call fills the parts from the generator in the order and with the
numbers of an unblocked draw: the real part of a complex draw in one call,
then the last part one block of ``hermitian.row_blocks`` per call. Meanwhile
the boundary sampler draws psi from its own stream, and the calling thread
runs everything after the draw on each block whose fills are done, copying it
once into a batch-last real buffer. The helper runs only the generator, so
every line of this package runs on the caller's thread, and it is joined
before the sampler returns. The state samplers project the block off psi
and form the lower triangle of its Gram matrices with one contraction per
row, batched along the last axis, so no matrix takes a BLAS call of its own.
The mirror image fills the upper triangle, so every state is exactly
Hermitian, and the trace is the diagonal summed in index order. They write
into an (N, N, size) output and return its (size, N, N) view. The direction
sampler forms (G + G^dag)/2 from the same buffers. No full-stack temporary
is formed, and no row's bits depend on its block: the output equals the
same steps run on the whole stack at once, bit for bit.

========================  =====================================================
sampler                   distribution
========================  =====================================================
sample_state_hs           Hilbert-Schmidt (flat) measure on the state body
sample_boundary_state_hs  induced surface measure on the boundary (one
                          eigenvalue exactly zero), with the zero
                          eigenvectors
sample_direction          uniform on the unit sphere of traceless Hermitian
                          (or real symmetric) matrices
========================  =====================================================

Both state samplers normalize a Ginibre Gram matrix G G^dag. For the interior
a square G reproduces the flat measure in the complex case, and an N x (N+1)
real G in the real case. A boundary draw takes one column more and projects
G off a uniform unit vector psi before forming the Gram matrix, so psi is the
zero eigenvector. Its nonzero eigenvalues then carry the density obtained by
setting the smallest eigenvalue to zero in the flat-measure eigenvalue
density:

    f(lambda) ~ prod_{i<j} |l_i - l_j|^beta * prod_i l_i^beta

with beta = 2 (complex) or 1 (real), and its eigenvectors form a Haar frame.
The beta-Laguerre bidiagonal model draws f directly, i.i.d. and exactly; it
is kept only as an independent oracle: the sampler battery and the test
suite compare its spectra with those of production boundary states.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, replace
from itertools import chain, islice

import numpy as np

from .hermitian import (BipartiteShape, _dtype, _hs_norms, _integer, _sum_in_order,
                        row_blocks)

_MASK64 = (1 << 64) - 1
_ALGORITHM = "philox4x64"
# fills a sampler keeps queued on its helper thread: enough to keep it busy
# while the caller works on a block. Each queued fill holds a numpy view of
# its part, and queuing all of a call's fills at once fragmented glibc's heap:
# the gamma-radial benchmark cases peaked at 143 MB RSS instead of 139 MB
_FILLS_AHEAD = 4


def _splitmix64(x: int) -> int:
    """One splitmix64 round; mixes stream ids for child derivation."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


@dataclass(frozen=True)
class RngStream:
    """A named pseudorandom stream: (seed, stream id, fixed algorithm).

    The pair (seed, stream) keys a counter-based Philox generator, so streams
    never overlap and results do not depend on evaluation order. The seed and
    the stream id are one 64-bit word of the key each, stored as Python ints:
    a bool, a non-integer or a value outside [0, 2^64) raises ValueError
    rather than draw the numbers of another key, and so does such a child
    index. Numpy integers are accepted and draw their value's numbers.
    """

    seed: int
    stream: int = 0

    def __post_init__(self):
        object.__setattr__(self, "seed", _integer("seed", self.seed, 0, _MASK64))
        object.__setattr__(self, "stream", _integer("stream", self.stream, 0, _MASK64))

    def generator(self) -> np.random.Generator:
        """A fresh generator positioned at the start of this stream."""
        key = (self.stream << 64) | self.seed
        return np.random.Generator(np.random.Philox(key=key))

    def child(self, index: int) -> "RngStream":
        """Derived stream for sub-task ``index``; deterministic and disjoint."""
        index = _integer("index", index, 0, _MASK64)
        return replace(self, stream=_splitmix64(self.stream ^ _splitmix64(index)))

    def describe(self) -> str:
        return f"{_ALGORITHM}:{self.seed}:{self.stream}"


def _ginibre(gen: np.random.Generator, shape: tuple, field: str) -> np.ndarray:
    """Independent standard Gaussian entries; complex ones get i.i.d. parts."""
    if field == "complex":
        return gen.standard_normal(shape) + 1j * gen.standard_normal(shape)
    return gen.standard_normal(shape)


@contextmanager
def _ginibre_blocks(gen: np.random.Generator, shape: tuple, field: str):
    """Blocks of a (size, n, cols) Ginibre draw, filled on a helper thread.

    The real part and, for the complex field, the imaginary part are
    allocated whole here. One helper thread fills them with
    ``gen.standard_normal`` in the order of _ginibre's whole draw, and so
    with its numbers: every part but the last in one call, then the last one
    ``row_blocks`` block by block. The managed value iterates the pairs
    (rows, x) in block order, x being the block copied batch-last into a
    real (n, cols, b) buffer, or (n, 2 cols, b) with the imaginary parts
    after the real ones, as soon as its fills are done. The caller's work on
    a block overlaps the fills of later ones, and the with body may draw from
    another stream, as the boundary sampler's psi, before it iterates. The
    helper runs nothing but ``standard_normal``. On leaving, fills not yet
    started are cancelled and the helper is joined, so an error in a fill or
    in the caller's work leaves no thread behind.
    """
    size, n, cols = shape
    parts = [np.empty(shape) for _ in range(1 + (field == "complex"))]
    blocks = row_blocks(size)
    outs = chain(parts[:-1], (parts[-1][rows] for rows in blocks))
    queued = deque()
    pool = ThreadPoolExecutor(1)

    def fill_ahead():
        for out in islice(outs, _FILLS_AHEAD - len(queued)):
            queued.append(pool.submit(gen.standard_normal, out=out))

    def next_fill():
        fill_ahead()
        queued.popleft().result()

    def copies():
        for _ in parts[:-1]:
            next_fill()
        for rows in blocks:
            next_fill()
            x = np.empty((n, len(parts) * cols, rows.stop - rows.start))
            for i, part in enumerate(parts):
                x[:, i * cols:(i + 1) * cols] = np.moveaxis(part[rows], 0, -1)
            yield rows, x

    try:
        fill_ahead()
        yield copies()
    finally:
        pool.shutdown(cancel_futures=True)


def _gram_stack(gen: np.random.Generator, field: str, size: int, n: int,
                cols: int, psi_rng: RngStream | None = None):
    """The (size, n, n) stack G G^dag / Tr G G^dag of n x cols Ginibre
    matrices G: a view of the (n, n, size) array that the blocks are written
    into. Given ``psi_rng``, each G is first projected off a unit vector
    drawn from that stream while the helper fills G, and the pair (states,
    psi) is returned."""
    out = np.empty((n, n, size), dtype=_dtype(field))
    with _ginibre_blocks(gen, (size, n, cols), field) as blocks:
        psi = None
        if psi_rng is not None:
            psi = _ginibre(psi_rng.generator(), (size, n), field)
            psi = psi / np.linalg.norm(psi, axis=-1, keepdims=True)
        for rows, x in blocks:
            if psi is not None:
                _project(x, psi[rows])
            _gram(x, out[..., rows])
    states = np.moveaxis(out, -1, 0)
    return states if psi is None else (states, psi)


def _project(x: np.ndarray, psi: np.ndarray):
    """G -= psi (psi^dag G) on a batch-last block x of G, in place, for the
    (b, n) unit vectors psi of the block."""
    if np.iscomplexobj(psi):
        cols = x.shape[1] // 2
        pr, pi = np.ascontiguousarray(psi.real.T), np.ascontiguousarray(psi.imag.T)
        # c = psi^dag G: with G = A + iB, Re c = pr A + pi B, Im c = pr B - pi A
        s_r = np.einsum("ib,ikb->kb", pr, x)
        s_i = np.einsum("ib,ikb->kb", pi, x)
        c = np.concatenate([s_r[:cols] + s_i[cols:], s_r[cols:] - s_i[:cols]])
        # psi c: Re = pr Re c - pi Im c, Im = pr Im c + pi Re c
        terms = [(pr, c), (pi, np.concatenate([-c[cols:], c[:cols]]))]
    else:
        p = np.ascontiguousarray(psi.T)
        terms = [(p, np.einsum("ib,ikb->kb", p, x))]
    t = np.empty(x.shape[1:])
    for i in range(len(x)):
        for coef, v in terms:
            x[i] -= np.multiply(v, coef[i], out=t)


def _gram(x: np.ndarray, out: np.ndarray):
    """Write G G^dag / Tr G G^dag for a batch-last block x of G into the
    (n, n, b) block ``out``.

    Each row i of the lower triangle is one contraction of row i with rows
    0..i: the real part sums a_i a_j + b_i b_j, the imaginary part
    b_i a_j - a_i b_j over the columns. Its mirror image fills the upper
    triangle, so every matrix is exactly Hermitian, and the trace is the
    diagonal summed in index order.
    """
    n = len(x)
    re = np.empty(out.shape)
    for i in range(n):
        np.einsum("kb,jkb->jb", x[i], x[:i + 1], out=re[i, :i + 1])
    d = np.arange(n)
    tr = _sum_in_order(re[d, d])
    if np.iscomplexobj(out):
        cols = x.shape[1] // 2
        a, b = x[:, :cols], x[:, cols:]
        im = np.empty(out.shape)
        im[d, d] = 0.0
        for i in range(1, n):
            np.einsum("kb,jkb->jb", b[i], a[:i], out=im[i, :i])
            im[i, :i] -= np.einsum("kb,jkb->jb", a[i], b[:i])
            im[:i, i] = -im[i, :i]
        np.divide(im, tr, out=out.imag)
    for i in range(n):
        re[:i, i] = re[i, :i]
    np.divide(re, tr, out=out.real)


def sample_state_hs(shape: BipartiteShape, rng: RngStream, size: int) -> np.ndarray:
    """A (size, N, N) stack of states distributed by the flat Hilbert-Schmidt
    measure on the body."""
    size = _integer("size", size, 0)
    n = shape.n
    cols = n if shape.field == "complex" else n + 1
    return _gram_stack(rng.generator(), shape.field, size, n, cols)


def boundary_eigenvalues_laguerre(
    n: int, field: str, rng: RngStream, size: int
) -> np.ndarray:
    """Nonzero boundary eigenvalues drawn exactly from f by a bidiagonal model.

    The beta-Laguerre matrix model of Dumitriu and Edelman (J. Math. Phys. 43,
    5830 (2002)), with m = N-1 and a = beta + 1 + beta (m-1)/2: B is m x m
    lower bidiagonal with independent entries, chi_{2a - beta i} on the
    diagonal (i = 0..m-1) and chi_{beta (m-1)}, ..., chi_beta below it. The
    eigenvalues of B B^T have density prod |l_i - l_j|^beta prod l_i^beta
    exp(-sum l_i / 2); f is homogeneous, so dividing a spectrum by its sum
    gives exactly the law f on the simplex. Rows are i.i.d. and share no
    Ginibre draw, projection or Gram matrix with production; they share only
    ``eigvalsh``. It is the independent oracle for the spectra of production
    boundary states, used only by the sampler battery and the tests. Returns
    a (size, N-1) array of eigenvalue rows summing to one, sorted ascending.
    """
    m = _integer("n", n, 2) - 1
    _dtype(field)
    size = _integer("size", size, 0)
    if m == 1:
        return np.ones((size, 1))
    if size == 0:
        return np.empty((0, m))
    beta = 2 if field == "complex" else 1
    two_a = 2 * beta + 2 + beta * (m - 1)  # 2(N+1) complex, N+2 real
    i = np.arange(m)
    dof = np.concatenate([two_a - beta * i, beta * i[:0:-1]])
    # the 2m-1 variates of a row are consecutive draws of the one generator
    chi = np.sqrt(rng.generator().chisquare(dof, size=(size, 2 * m - 1)))
    b = np.zeros((size, m, m))
    b[:, i, i] = chi[:, :m]
    b[:, i[1:], i[:-1]] = chi[:, m:]
    lam = np.linalg.eigvalsh(b @ np.swapaxes(b, -1, -2))
    return lam / lam.sum(axis=1, keepdims=True)


def boundary_eigenvalues_wishart(
    n: int, field: str, rng: RngStream, size: int
) -> np.ndarray:
    """Nonzero eigenvalues of production boundary states on one N-level body.

    The spectra of ``sample_boundary_state_hs`` with the zero eigenvalue
    dropped: those of a normalized (N-1) x (N+1) complex (or (N-1) x (N+2)
    real) Ginibre Gram matrix, distributed exactly by f. Returns (size, N-1)
    rows sorted ascending.
    """
    states, _ = sample_boundary_state_hs(BipartiteShape(1, n, field), rng, size)
    return np.linalg.eigvalsh(states)[:, 1:]


def sample_boundary_state_hs(shape: BipartiteShape, rng: RngStream, size: int):
    """Boundary states under the induced Hilbert-Schmidt surface measure.

    rho = P G G^dag P / Tr(P G G^dag P) with P = I - psi psi^dag, psi a
    normalized Gaussian vector and G a Ginibre matrix with one column more
    than the interior draw. psi is the zero eigenvector up to rounding, and
    P does not depend on the phase of psi. Returns the pair (states,
    zero_eigvecs) of (size, N, N) and (size, N) stacks.
    """
    size = _integer("size", size, 0)
    n = shape.n
    cols = n + 1 if shape.field == "complex" else n + 2
    return _gram_stack(rng.child(0).generator(), shape.field, size, n, cols, rng.child(1))


def sample_direction(shape: BipartiteShape, rng: RngStream, size: int) -> np.ndarray:
    """A (size, N, N) stack of uniform directions on the traceless unit sphere
    of the body's span.

    A Gaussian Hermitian (real symmetric) matrix with i.i.d. standard-normal
    coefficients on any Hilbert-Schmidt orthonormal basis, projected traceless
    and normalized; equivalent to drawing Gaussian coefficients on a
    generalized Gell-Mann basis without materializing the basis.
    """
    size = _integer("size", size, 0)
    n = shape.n
    out = np.empty((size, n, n), dtype=_dtype(shape.field))
    eye = np.eye(n, dtype=out.dtype)
    with _ginibre_blocks(rng.generator(), (size, n, n), shape.field) as blocks:
        for rows, x in blocks:
            h = out[rows]
            # the Hermitian part (G + G^dag) / 2, written batch-last
            hb, a = np.moveaxis(h, 0, -1), x[:, :n]
            hb.real[...] = 0.5 * (a + np.swapaxes(a, 0, 1))
            if shape.field == "complex":
                b = x[:, n:]
                hb.imag[...] = 0.5 * (b - np.swapaxes(b, 0, 1))
            tr = np.trace(h, axis1=-2, axis2=-1).real
            h -= (tr / n)[:, None, None] * eye
            h /= _hs_norms(h)[:, None, None]
    return out
