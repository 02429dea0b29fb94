"""Seeded samplers for the Hilbert-Schmidt ensemble.

Every sampler is a pure function of an :class:`RngStream` value: calling it
twice with the same stream and size returns bit-identical output. Distinct
draws therefore need distinct streams, usually obtained via
:meth:`RngStream.child`. Samplers return (size, N, N) stacks; a single draw
is ``sample_*(shape, rng, 1)[0]``, on the same stream. Each call starts and
joins one helper thread (below), about 0.37 ms whatever its size, so a
caller that wants many draws should draw one stack, not loop over single
draws. The state draws also come as block sources, :func:`state_blocks`
and :func:`boundary_blocks`: iterators of the same states, bit for bit, as
batch-last (N, N, b) blocks, one per ``hermitian.row_blocks`` slice. The
stack samplers copy exactly these blocks into their stack, so there is one
code path, and a sweep that only counts can consume each block before it
asks for the next, holding O(block) states.

Draws stream through row blocks. One helper thread per call fills the
Gaussian parts from the generator in the order and with the numbers of an
unblocked draw: every part but the last whole, one call each, then the last
part one block of ``hermitian.row_blocks`` per call, each into a buffer of
its own (:func:`_filled_blocks`), so only the parts drawn in one call are
held whole. Meanwhile the boundary sampler draws the real and imaginary
normals of psi from its own stream into real buffers, and the calling
thread runs everything after the draw on each block whose fills are done,
copying it once into a batch-last real buffer. The helper runs only the
generator, so every line of this package runs on the caller's thread, and
it is joined once the draw is consumed, or its iterator closed or
collected. The state samplers form the lower triangle of the block's Gram
matrices with one contraction per row, batched along the last axis, so no
matrix takes a BLAS call of its own. The mirror image fills the upper
triangle, so every state is exactly Hermitian, and the trace is the
diagonal summed in index order. Each block is an (N, N, b) array; a stack
sampler returns the (size, N, N) view of the (N, N, size) array it copies
the blocks into. The direction sampler forms (G + G^dag)/2 from Ginibre
blocks. No full-stack temporary is formed, and no row's bits depend on its
block: the output equals the same steps run on the whole stack at once, bit
for bit.

========================  =====================================================
sampler                   distribution and draw
========================  =====================================================
sample_state_hs           Hilbert-Schmidt (flat) measure on the state body:
                          L L^dag / Tr of a Bartlett factor L (diagonal
                          gammas, then the normals below the diagonal)
sample_boundary_state_hs  induced surface measure on the boundary (one
                          eigenvalue exactly zero), with the zero
                          eigenvectors: a projected Ginibre Gram matrix
                          (the real, then the imaginary Gaussian parts)
state_blocks,             the states of the two samplers above, as
boundary_blocks           batch-last blocks
sample_direction          uniform on the unit sphere of traceless Hermitian
                          (or real symmetric) matrices: the traceless
                          Hermitian part of a Ginibre matrix
========================  =====================================================

The flat measure is the law of a normalized Ginibre Gram matrix G G^dag, with
a square G in the complex case and an N x (N+1) real G in the real case. The
interior sampler draws the Bartlett factor L of G G^dag instead, which has
the same law with N (N-1) normals and N gammas in place of 2 N^2 normals
(complex). A boundary draw forms the Gram matrix of a Ginibre G with one
column more, projected off a uniform unit vector psi, so psi is the zero
eigenvector. Its nonzero eigenvalues then carry the density obtained by
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
from functools import partial
from itertools import chain, islice, starmap
from operator import itemgetter

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


@contextmanager
def _filled_blocks(whole: list, last: tuple, size: int):
    """Row blocks of a draw whose Gaussian parts are filled on a helper thread.

    ``whole`` lists (fill, out) pairs in stream order: ``out`` an array
    allocated whole with the stack on its first axis, ``fill`` a generator
    method called as ``fill(out=...)``. ``last`` is the (fill, row shape)
    pair of the part drawn after them. One helper thread fills every part of
    ``whole`` in one call each, then the last part one ``row_blocks`` block
    per call, each into a (b, *row shape) buffer of its own, allocated when
    its fill is queued. So each part gets the numbers of one whole call, and
    only the parts drawn in one call are held whole: the last part's buffers
    live from their fill until the caller drops them. The managed value
    iterates (rows, buffer) pairs in block order, each as soon as its fills
    are done. The caller's work on a block overlaps the fills of later ones,
    and the with body may draw from another stream, as the boundary
    sampler's psi, before it iterates. The helper runs nothing but the
    fills. On leaving, fills not yet started are cancelled and the helper is
    joined, so an error in a fill or in the caller's work leaves no thread
    behind.
    """
    last_fill, row_shape = last
    blocks = row_blocks(size)
    fills = chain(whole, ((last_fill, np.empty((rows.stop - rows.start, *row_shape)))
                          for rows in blocks))
    queued = deque()
    pool = ThreadPoolExecutor(1)

    def fill_ahead():
        for fill, out in islice(fills, _FILLS_AHEAD - len(queued)):
            queued.append((pool.submit(fill, out=out), out))

    def next_fill():
        fill_ahead()
        future, out = queued.popleft()
        future.result()
        return out

    def ready():
        for _ in whole:
            next_fill()
        for rows in blocks:
            yield rows, next_fill()

    try:
        fill_ahead()
        yield ready()
    finally:
        pool.shutdown(cancel_futures=True)


def _ginibre_parts(gen: np.random.Generator, shape: tuple, field: str):
    """The parts of a Ginibre draw of ``shape`` for :func:`_filled_blocks`:
    the whole real part first for the complex field, then the last part,
    the imaginary part (complex) or the real part (real), by blocks."""
    whole = [(gen.standard_normal, np.empty(shape))] if field == "complex" else []
    return whole, (gen.standard_normal, shape[1:])


def _batch_last_block(whole: list, rows: slice, last: np.ndarray) -> np.ndarray:
    """Block ``rows`` of a Ginibre draw copied batch-last into a real
    (n, cols, b) buffer, or (n, 2 cols, b) with the imaginary parts after
    the real ones: the rows of the ``whole`` parts, then the last part's
    (b, n, cols) block buffer ``last``."""
    parts = [out[rows] for _, out in whole] + [last]
    b, n, cols = last.shape
    x = np.empty((n, len(parts) * cols, b))
    for i, part in enumerate(parts):
        x[:, i * cols:(i + 1) * cols] = np.moveaxis(part, 0, -1)
    return x


def _unit_rows(normals: list, rows: slice, field: str) -> np.ndarray:
    """Rows ``rows`` of the unit vectors psi / |psi|: the real, then for the
    complex field the imaginary, parts of psi are the whole real buffers
    ``normals``, assembled here without a complex temporary."""
    re = normals[0][rows]
    psi = np.empty(re.shape, dtype=_dtype(field))
    psi.real[...] = re
    if field == "complex":
        psi.imag[...] = normals[1][rows]
    psi /= np.linalg.norm(psi, axis=-1, keepdims=True)
    return psi


def _stacked(blocks, size: int, n: int, field: str) -> np.ndarray:
    """The (size, n, n) stack of a draw's batch-last (n, n, b) blocks, in
    row order: a view of the (n, n, size) array they are copied into."""
    out = np.empty((n, n, size), dtype=_dtype(field))
    lo = 0
    for block in blocks:
        hi = lo + block.shape[-1]
        out[..., lo:hi] = block
        lo = hi
    return np.moveaxis(out, -1, 0)


def _gram_blocks(gen: np.random.Generator, field: str, size: int, n: int,
                 cols: int, psi_rng: RngStream):
    """For each row block, in order, the pair (states, psi): the batch-last
    (n, n, b) block of P G G^dag P / Tr of n x cols Ginibre matrices G
    projected by P = I - psi psi^dag off unit vectors psi, and the block's
    (b, n) rows of psi. While the helper fills G, the normals of psi are
    drawn whole from ``psi_rng`` into real buffers, as :func:`_unit_rows`
    reads them. No block's buffers are held once it is yielded."""
    whole, last = _ginibre_parts(gen, (size, n, cols), field)
    with _filled_blocks(whole, last, size) as blocks:
        psi_gen = psi_rng.generator()
        normals = [psi_gen.standard_normal((size, n)) for _ in range(1 + (field == "complex"))]

        def block(rows, z):
            psi = _unit_rows(normals, rows, field)
            x = _batch_last_block(whole, rows, z)
            _project(x, psi)
            out = np.empty((n, n, len(psi)), dtype=_dtype(field))
            _gram(x, out)
            return out, psi

        yield from starmap(block, blocks)


def _gram_stack(gen: np.random.Generator, field: str, size: int, n: int,
                cols: int, psi_rng: RngStream):
    """The pair (states, psi) of :func:`_gram_blocks` as whole stacks: the
    (size, n, n) states, a view of the (n, n, size) array the blocks are
    copied into, and the (size, n) unit vectors."""
    states = np.empty((n, n, size), dtype=_dtype(field))
    psi = np.empty((size, n), dtype=_dtype(field))
    lo = 0
    for block, rows_psi in _gram_blocks(gen, field, size, n, cols, psi_rng):
        hi = lo + len(rows_psi)
        states[..., lo:hi], psi[lo:hi] = block, rows_psi
        lo = hi
    return np.moveaxis(states, -1, 0), psi


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


def _bartlett_shapes(n: int, field: str) -> np.ndarray:
    """Gamma shapes k_i of the squared diagonal L_ii^2 / 2 of the Bartlett
    factor of an n x c Ginibre Gram matrix: c - i complex, (c - i) / 2 real,
    with c = n complex and n + 1 real, the flat measure's column counts."""
    i = np.arange(n)
    return n - i if field == "complex" else (n + 1 - i) / 2


def _bartlett_blocks(gen: np.random.Generator, field: str, size: int,
                     shapes: np.ndarray):
    """The batch-last (n, n, b) blocks, in row order, of the stack
    L L^dag / Tr L L^dag of n x n lower triangular factors L with
    L_ii = sqrt(2 Gamma(shapes[i])) and standard normal entries below the
    diagonal, complex ones with i.i.d. parts.

    One ``standard_gamma`` call fills the (size, n) diagonal gammas, then
    ``standard_normal`` fills the entries below the diagonal block by block,
    in the C order of the stack: matrix by matrix, row by row, a complex
    entry's real part before its imaginary part, as a complex array lies in
    memory. Each block is scattered into a zero-padded batch-last L, whose
    Gram matrices ``_gram`` forms as for a Ginibre block.
    """
    n = len(shapes)
    parts = 1 + (field == "complex")
    below_i, below_j = np.tril_indices(n, -1)
    at_i = np.repeat(below_i, parts)
    at_j = (below_j[:, None] + n * np.arange(parts)).ravel()
    d = np.arange(n)
    gam = np.empty((size, n))
    # one zero-padded L per block size, kept across blocks: each block writes
    # the same entries, so the zeros above the diagonal stay. A fresh zeroed
    # L per block made glibc trim and regrow its heap block after block: an
    # interior sweep of 32,768 2x3 complex states took 14,743 page faults
    # and 61 ms a call, against 1,345 and 43 ms with the L kept
    factors = {}

    def block(rows, z):
        b = len(z)
        if b not in factors:
            factors[b] = np.zeros((n, parts * n, b))
        x = factors[b]
        x[d, d] = np.sqrt(2.0 * gam[rows].T)
        x[at_i, at_j] = z.reshape(b, -1).T
        out = np.empty((n, n, b), dtype=_dtype(field))
        _gram(x, out)
        return out

    with _filled_blocks([(partial(gen.standard_gamma, shapes), gam)],
                        (gen.standard_normal, (len(below_i), parts)), size) as blocks:
        yield from starmap(block, blocks)


def _bartlett_stack(gen: np.random.Generator, field: str, size: int,
                    shapes: np.ndarray) -> np.ndarray:
    """The (size, n, n) stack of the :func:`_bartlett_blocks` of a draw."""
    return _stacked(_bartlett_blocks(gen, field, size, shapes), size, len(shapes), field)


def state_blocks(shape: BipartiteShape, rng: RngStream, size: int):
    """The states of ``sample_state_hs(shape, rng, size)``, bit for bit, as
    an iterator of batch-last (N, N, b) blocks, one per
    ``hermitian.row_blocks(size)`` slice, in order. The helper fills the
    normals of later blocks while the caller works on a block, and only
    the diagonal gammas are held whole: a sweep that consumes each block
    before it asks for the next holds O(block) states."""
    size = _integer("size", size, 0)
    return _bartlett_blocks(rng.generator(), shape.field, size,
                            _bartlett_shapes(shape.n, shape.field))


def sample_state_hs(shape: BipartiteShape, rng: RngStream, size: int) -> np.ndarray:
    """A (size, N, N) stack of states distributed by the flat Hilbert-Schmidt
    measure on the body.

    rho = L L^dag / Tr L L^dag, with L the Bartlett factor of the Gram matrix
    G G^dag of an N x N complex (N x (N+1) real) Ginibre matrix G, which has
    the same (Wishart) law (Bartlett 1933; Goodman, Ann. Math. Stat. 34, 152
    (1963) for the complex field): L is lower triangular, L_ii^2 / 2 is
    Gamma(N - i) distributed (Gamma((N + 1 - i) / 2) real), i = 0..N-1, and
    the entries below the diagonal are standard normal, with i.i.d. real and
    imaginary parts. All are independent. The stream gives first the (size,
    N) diagonal gammas, in one call, then the standard normals below the
    diagonal in the C order of the stack, each complex entry's real part
    before its imaginary part. A complex draw takes N (N-1) normals and N
    gammas, against 2 N^2 normals for G.
    """
    size = _integer("size", size, 0)
    return _bartlett_stack(rng.generator(), shape.field, size,
                           _bartlett_shapes(shape.n, shape.field))


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
    Ginibre draw, projection or Gram matrix with the route they check, the
    boundary sampler's projected Ginibre Gram matrix; they share only
    ``eigvalsh``. Like the interior sampler's Bartlett factor, B is a
    triangular factor with chi-distributed entries, but it checks only the
    boundary route. It is the independent oracle for the spectra of
    production boundary states, used only by the sampler battery and the
    tests. Returns a (size, N-1) array of eigenvalue rows summing to one,
    sorted ascending.
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


def _boundary_draw(shape: BipartiteShape, rng: RngStream, size: int) -> tuple:
    """The arguments of :func:`_gram_blocks` for a boundary draw: G from
    rng.child(0) with one column more than the interior draw's Ginibre
    matrix, psi from rng.child(1)."""
    size = _integer("size", size, 0)
    n = shape.n
    cols = n + 1 if shape.field == "complex" else n + 2
    return rng.child(0).generator(), shape.field, size, n, cols, rng.child(1)


def sample_boundary_state_hs(shape: BipartiteShape, rng: RngStream, size: int):
    """Boundary states under the induced Hilbert-Schmidt surface measure.

    rho = P G G^dag P / Tr(P G G^dag P) with P = I - psi psi^dag, psi a
    normalized Gaussian vector and G a Ginibre matrix with one column more
    than the interior draw. psi is the zero eigenvector up to rounding, and
    P does not depend on the phase of psi. Returns the pair (states,
    zero_eigvecs) of (size, N, N) and (size, N) stacks.
    """
    return _gram_stack(*_boundary_draw(shape, rng, size))


def boundary_blocks(shape: BipartiteShape, rng: RngStream, size: int):
    """The states of ``sample_boundary_state_hs(shape, rng, size)``, bit for
    bit and without psi, as an iterator of batch-last (N, N, b) blocks, one
    per ``hermitian.row_blocks(size)`` slice, in order. Only the real
    Ginibre part and the normals of psi are held whole (complex field; the
    real field holds only psi's): a sweep that consumes each block before
    it asks for the next holds O(block) states."""
    return map(itemgetter(0), _gram_blocks(*_boundary_draw(shape, rng, size)))


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
    whole, last = _ginibre_parts(rng.generator(), (size, n, n), shape.field)
    with _filled_blocks(whole, last, size) as blocks:
        for rows, z in blocks:
            x = _batch_last_block(whole, rows, z)
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
