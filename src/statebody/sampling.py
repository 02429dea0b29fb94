"""Seeded samplers for the Hilbert-Schmidt ensemble.

Every sampler is a pure function of an :class:`RngStream` value: calling it
twice with the same stream and size returns bit-identical output. Distinct
draws therefore need distinct streams, usually obtained via
:meth:`RngStream.child`. Samplers return (size, N, N) stacks; a single draw
is ``sample_*(shape, rng, 1)[0]``, on the same stream. Each call starts and
joins one helper thread (below): a one-row call took 0.33-0.55 ms for a
direction and 0.66-0.86 ms for a state on a 2-core VM, against 0.04-0.24 ms
with the fills run on the caller, so a caller that wants many draws should
draw one stack, not loop over single draws. Every draw also comes as a
block source, :func:`state_blocks`, :func:`boundary_blocks` and
:func:`direction_blocks`: iterators of the same matrices, bit for bit, as
batch-last (N, N, b) blocks, one per ``hermitian.row_blocks`` slice. The
stack samplers copy exactly these blocks into their stack, so there is one
code path, and a sweep can consume each block before it asks for the next,
holding O(block) matrices.

Draws stream through row blocks. Each random part of a draw, such as a
state draw's gammas, its normals and a boundary draw's psi, comes from a
generator of its own, and one helper thread per call fills every part one
``hermitian.row_blocks`` block per call, each into a buffer of its own
(:func:`_filled_blocks`). No part is ever held whole, and row i
of a draw depends only on its stream and i: the first s rows of a longer
draw are the size-s draw, bit for bit. A complex Gaussian part lies as a
complex array does, each entry's real part next to its imaginary part, so
psi is the complex view of its buffer. The calling thread runs everything
after the draw on each block whose fills are done, while the helper fills
later blocks, scattering a block's factors into a zero-padded batch-last
real buffer kept across blocks. The helper runs only the generators, so
every line of this package runs on the caller's thread, and it is joined
once the draw is consumed, or its iterator closed or collected. Both state
draws run one kernel, :func:`_bartlett_blocks`; the boundary draw adds psi
and projects the factors off it. The state samplers form the lower
triangle of the block's Gram matrices with one contraction per row,
batched along the last axis, so no matrix takes a BLAS call of its own. The mirror image
fills the upper triangle, so every state is exactly Hermitian, and the
trace is the diagonal summed in index order. Each block is an (N, N, b)
array; a stack sampler returns the (size, N, N) view of the (N, N, size)
array it copies the blocks into. The direction draw scatters its normals
into a block of Hermitian matrices and normalizes them column by column,
with no contraction. No full-stack temporary is formed, and
no row's bits depend on its block: the output equals the same steps run on
the whole stack at once, bit for bit.

========================  =====================================================
sampler                   distribution and draw
========================  =====================================================
sample_state_hs           Hilbert-Schmidt (flat) measure on the state body:
                          L L^dag / Tr of a Bartlett factor L (diagonal
                          gammas and the normals below the diagonal)
sample_boundary_state_hs  induced surface measure on the boundary (one
                          eigenvalue exactly zero): P L L^dag P / Tr of a
                          Bartlett factor L for one column more,
                          P = I - psi psi^dag
sample_direction          uniform on the unit sphere of traceless Hermitian
                          (or real symmetric) matrices: N(0, 1) diagonal
                          entries less their mean and N(0, 1/2) parts off
                          the diagonal, normalized; N^2 normals complex,
                          N (N + 1) / 2 real
state_blocks,             the matrices of the three samplers above, as
boundary_blocks,          batch-last blocks
direction_blocks
========================  =====================================================

The flat measure is the law of a normalized Ginibre Gram matrix G G^dag, with
a square G in the complex case and an N x (N+1) real G in the real case. The
interior sampler draws the Bartlett factor L of G G^dag instead, which has
the same law with N (N-1) normals and N gammas in place of 2 N^2 normals
(complex). A boundary state is the Gram matrix of a Ginibre G with one
column more, projected off a uniform unit vector psi, so psi is the zero
eigenvector; the boundary sampler draws the Bartlett factor of that G G^dag
and projects it, which has the same law, since psi is independent of both
(a 2x3 complex state takes 30 normals, 6 gammas and 12 normals for psi in
place of 84 and 12). Its nonzero eigenvalues then carry the density
obtained by setting the smallest eigenvalue to zero in the flat-measure
eigenvalue density:

    f(lambda) ~ prod_{i<j} |l_i - l_j|^beta * prod_i l_i^beta

with beta = 2 (complex) or 1 (real), and its eigenvectors form a Haar frame.
The beta-Laguerre bidiagonal model draws f directly, i.i.d. and exactly; it
is kept only as an independent oracle: the sampler battery and the test
suite compare its spectra, from ``eigvalsh``, with those of production
boundary states, which :func:`boundary_eigenvalues_wishart` reads off their
power sums in closed form.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import partial
from itertools import islice

import numpy as np

from .hermitian import (BipartiteShape, _dtype, _integer, _spectrum_block, _sum_in_order,
                        row_blocks)

_MASK64 = (1 << 64) - 1
_ALGORITHM = "philox4x64"
# blocks a sampler keeps queued on its helper thread, one fill per part
# each: enough to keep it busy while the caller works on a block. Each queued
# block holds its buffers, and queuing all of a call's fills at once
# fragmented glibc's heap: the gamma-radial benchmark cases peaked at 143 MB
# RSS instead of 139 MB
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
def _filled_blocks(parts: list, size: int):
    """Row blocks of a draw whose Gaussian parts are filled on a helper thread.

    ``parts`` lists one (fill, row shape) pair per random part of the draw:
    ``fill`` a method of the part's own generator, called as
    ``fill(out=...)``. For each ``row_blocks`` block, in order, one helper
    thread fills every part into a (b, *row shape) buffer of its own,
    allocated when its fill is queued. Each generator serves one part, so a
    part's blocks get the numbers of one whole call, row i of a draw depends
    only on its streams and i, and no part is ever held whole: a block's
    buffers live from their fill until the caller drops them. The managed
    value iterates (rows, buffers) pairs in block order, the buffers in the
    order of ``parts``, each as soon as its fills are done, while the helper
    fills later blocks. The helper runs nothing but the fills. On leaving,
    fills not yet started are cancelled and the helper is joined, so an
    error in a fill or in the caller's work leaves no thread behind.
    """
    blocks = iter(row_blocks(size))
    queued = deque()
    pool = ThreadPoolExecutor(1)

    def fill_ahead():
        for rows in islice(blocks, _FILLS_AHEAD - len(queued)):
            bufs = [np.empty((rows.stop - rows.start, *shape)) for _, shape in parts]
            queued.append((rows, bufs, [pool.submit(fill, out=buf)
                                        for (fill, _), buf in zip(parts, bufs)]))

    def ready():
        fill_ahead()
        while queued:
            rows, bufs, futures = queued.popleft()
            for future in futures:
                future.result()
            yield rows, bufs
            fill_ahead()

    try:
        yield ready()
    finally:
        pool.shutdown(cancel_futures=True)


def _parts(field: str) -> int:
    """Real numbers per entry: one real, two complex, the real part first,
    as a complex array lies in memory."""
    return 1 + (field == "complex")


def _batch_buffer(shape: tuple, b: int) -> np.ndarray:
    """An empty real (*shape, b) buffer, batch last, for the Gram kernel: a
    view of a two-row buffer when b is 1. einsum sums a contiguous run in
    another order than a strided one, so a lone row's contractions would
    round otherwise than the same row's in a longer block, and the first
    row of a one-row draw would differ from that of a longer draw."""
    return np.empty((*shape, max(b, 2)))[..., :b]


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


def _flat_cols(n: int, field: str) -> int:
    """Columns of the n-row Ginibre matrix whose normalized Gram matrix has
    the flat measure: n complex, n + 1 real. A boundary draw takes one
    more."""
    return n if field == "complex" else n + 1


def _bartlett_shapes(n: int, field: str, extra: int = 0) -> np.ndarray:
    """Gamma shapes k_i of the squared diagonal L_ii^2 / 2 of the Bartlett
    factor of an n x c Ginibre Gram matrix with c = ``_flat_cols(n, field)``
    + ``extra`` columns: c - i complex, (c - i) / 2 real. A boundary draw
    takes ``extra`` = 1."""
    k = _flat_cols(n, field) + extra - np.arange(n)
    return k if field == "complex" else k / 2


def _bartlett_blocks(rng: RngStream, field: str, size: int, shapes: np.ndarray,
                     project: bool = False):
    """For each row block, in order, the batch-last (n, n, b) block of the
    stack L L^dag / Tr L L^dag of n x n lower triangular factors L with
    L_ii = sqrt(2 Gamma(shapes[i])) and standard normal entries below the
    diagonal, complex ones with i.i.d. parts; with ``project``, of
    P L L^dag P / Tr with P = I - psi psi^dag, for unit vectors psi, the
    complex (or real) view of their normals' buffer.

    ``standard_gamma`` on rng.child(0) fills the (b, n) diagonal gammas,
    ``standard_normal`` on rng.child(1) the entries below the diagonal, and
    ``standard_normal`` on rng.child(2) the normals of psi, block by block,
    in the C order of the stack: matrix by matrix, row by row, a complex
    entry's real part before its imaginary part. Each block is scattered
    into a zero-padded batch-last L, projected off psi by ``_project``, and
    ``_gram`` forms its Gram matrices as for a Ginibre block.
    """
    n, parts = len(shapes), _parts(field)
    below_i, below_j = np.tril_indices(n, -1)
    at_i = np.repeat(below_i, parts)
    at_j = (below_j[:, None] + n * np.arange(parts)).ravel()
    d = np.arange(n)
    # the entries no scatter writes: the parts' strict upper triangles and
    # the imaginary diagonal, which the projection fills
    zero = np.ones((n, parts * n), dtype=bool)
    zero[d, d] = zero[at_i, at_j] = False
    zero_i, zero_j = np.nonzero(zero)
    # one zero-padded L per block size, kept across blocks: each block writes
    # the same entries, so the zeros above the diagonal stay, and a projected
    # block re-zeroes only them. A fresh zeroed L per block made glibc trim
    # and regrow its heap block after block: an interior sweep of 32,768 2x3
    # complex states took 14,743 page faults and 61 ms a call, against 1,345
    # and 43 ms with the L kept
    factors = {}
    fills = [(partial(rng.child(0).generator().standard_gamma, shapes), (n,)),
             (rng.child(1).generator().standard_normal, (len(below_i), parts))]
    if project:
        fills.append((rng.child(2).generator().standard_normal, (n, parts)))
    with _filled_blocks(fills, size) as blocks:
        for _, (gam, z, *normals) in blocks:
            b = len(z)
            if b not in factors:
                factors[b] = _batch_buffer((n, parts * n), b)
                factors[b][...] = 0.0
            x = factors[b]
            x[d, d] = np.sqrt(2.0 * gam.T)
            x[at_i, at_j] = z.reshape(b, -1).T
            if project:
                x[zero_i, zero_j] = 0.0
                psi = normals[0].view(_dtype(field)).reshape(b, n)
                psi /= np.linalg.norm(psi, axis=-1, keepdims=True)
                _project(x, psi)
            out = np.empty((n, n, b), dtype=_dtype(field))
            _gram(x, out)
            yield out


def state_blocks(shape: BipartiteShape, rng: RngStream, size: int):
    """The states of ``sample_state_hs(shape, rng, size)``, bit for bit, as
    an iterator of batch-last (N, N, b) blocks, one per
    ``hermitian.row_blocks(size)`` slice, in order. The helper fills the
    gammas and normals of later blocks while the caller works on a block:
    a sweep that consumes each block before it asks for the next holds
    O(block) states."""
    size = _integer("size", size, 0)
    return _bartlett_blocks(rng, shape.field, size, _bartlett_shapes(shape.n, shape.field))


def sample_state_hs(shape: BipartiteShape, rng: RngStream, size: int) -> np.ndarray:
    """A (size, N, N) stack of states distributed by the flat Hilbert-Schmidt
    measure on the body.

    rho = L L^dag / Tr L L^dag, with L the Bartlett factor of the Gram matrix
    G G^dag of an N x N complex (N x (N+1) real) Ginibre matrix G, which has
    the same (Wishart) law (Bartlett 1933; Goodman, Ann. Math. Stat. 34, 152
    (1963) for the complex field): L is lower triangular, L_ii^2 / 2 is
    Gamma(N - i) distributed (Gamma((N + 1 - i) / 2) real), i = 0..N-1, and
    the entries below the diagonal are standard normal, with i.i.d. real and
    imaginary parts. All are independent. rng.child(0) gives the diagonal
    gammas, row by row, and rng.child(1) the standard normals below the
    diagonal in the C order of the stack, each complex entry's real part
    before its imaginary part, so the first s states of a draw are the
    states of a size-s draw. A complex draw takes N (N-1) normals and N
    gammas, against 2 N^2 normals for G.
    """
    size = _integer("size", size, 0)
    return _stacked(state_blocks(shape, rng, size), size, shape.n, shape.field)


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
    draw, projection, Gram matrix or eigen kernel with the route they check,
    the boundary sampler's projected Bartlett factor: the oracle's spectra
    come from LAPACK's ``eigvalsh``, production's from the power sums of
    ``hermitian._spectrum_block``. Like
    the samplers' N x N Bartlett factors, B is a triangular factor with
    chi-distributed entries, but it is (N-1)-dimensional and bidiagonal,
    projected off nothing, and takes no gamma shape from them, so a wrong
    shape in ``_bartlett_shapes`` cannot move both. It is the independent
    oracle for the spectra of production boundary states, used only by the
    sampler battery and the tests. Returns a (size, N-1) array of
    eigenvalue rows summing to one, sorted ascending, drawn and solved one
    ``row_blocks`` block at a time, so only the output is held whole.
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
    gen, out = rng.generator(), np.empty((size, m))
    for rows in row_blocks(size):
        # the 2m-1 variates of a row are consecutive draws of the one
        # generator, so each block continues where the one before stopped
        chi = np.sqrt(gen.chisquare(dof, size=(rows.stop - rows.start, 2 * m - 1)))
        b = np.zeros((len(chi), m, m))
        b[:, i, i] = chi[:, :m]
        b[:, i[1:], i[:-1]] = chi[:, m:]
        lam = np.linalg.eigvalsh(b @ np.swapaxes(b, -1, -2))
        out[rows] = lam / lam.sum(axis=1, keepdims=True)
    return out


def boundary_eigenvalues_wishart(
    n: int, field: str, rng: RngStream, size: int
) -> np.ndarray:
    """Nonzero eigenvalues of production boundary states on one N-level body,
    N = 2..4.

    The spectra of ``sample_boundary_state_hs`` with the zero eigenvalue
    dropped, drawn from its projected Bartlett factor: they have the law of
    the spectra of a normalized (N-1) x (N+1) complex (or (N-1) x (N+2)
    real) Wishart matrix, distributed exactly by f. The blocks of
    ``boundary_blocks`` stream through ``hermitian._spectrum_block``, which
    reads each spectrum off the power sums Tr rho^k in closed form, so no
    state stack is held and no matrix takes a LAPACK call. Returns
    (size, N-1) rows sorted ascending.
    """
    n = _integer("n", n, 2, 4)
    shape = BipartiteShape(1, n, field)
    size = _integer("size", size, 0)
    out = np.empty((size, n - 1))
    lo = 0
    for block in boundary_blocks(shape, rng, size):
        hi = lo + block.shape[-1]
        out[lo:hi] = _spectrum_block(block)
        lo = hi
    return out


def sample_boundary_state_hs(shape: BipartiteShape, rng: RngStream, size: int):
    """Boundary states under the induced Hilbert-Schmidt surface measure.

    rho = P L L^dag P / Tr(P L L^dag P) with P = I - psi psi^dag, psi a
    normalized Gaussian vector and L the Bartlett factor of the Gram matrix
    G G^dag of a Ginibre matrix G with one column more than the interior
    draw's: N + 1 complex, N + 2 real. L L^dag has the (Wishart) law of
    G G^dag, and psi is independent of both, so rho has the law of
    P G G^dag P / Tr: L_ii^2 / 2 is Gamma(N + 1 - i) distributed
    (Gamma((N + 2 - i) / 2) real), the entries below the diagonal standard
    normal. psi is the zero eigenvector up to rounding, and P does not
    depend on the phase of psi. rng.child(0) gives the diagonal gammas,
    rng.child(1) the normals below the diagonal and rng.child(2) the
    normals of psi, in the C order of the stack, each complex entry's real
    part before its imaginary part. A 2x3 complex draw takes 30 normals, 6
    gammas and 12 normals for psi, against 84 and 12 for the projected G.
    Returns a (size, N, N) stack.
    """
    size = _integer("size", size, 0)
    return _stacked(boundary_blocks(shape, rng, size), size, shape.n, shape.field)


def boundary_blocks(shape: BipartiteShape, rng: RngStream, size: int):
    """The states of ``sample_boundary_state_hs(shape, rng, size)``, bit for
    bit, as an iterator of batch-last (N, N, b) blocks, one per
    ``hermitian.row_blocks(size)`` slice, in order: the Bartlett factor of a
    Ginibre Gram matrix with one column more than the flat measure's,
    projected off psi. A sweep that consumes each block before it asks for
    the next holds O(block) states."""
    size = _integer("size", size, 0)
    return _bartlett_blocks(rng, shape.field, size, _bartlett_shapes(shape.n, shape.field, 1),
                            project=True)


def direction_blocks(shape: BipartiteShape, rng: RngStream, size: int):
    """The directions of ``sample_direction(shape, rng, size)``, bit for bit,
    as an iterator of batch-last (N, N, b) blocks, one per
    ``hermitian.row_blocks(size)`` slice, in order.

    ``standard_normal`` on rng itself fills each direction's N diagonal
    normals, then its entries below the diagonal row by row, a complex
    entry's real part before its imaginary part: N^2 normals complex,
    N (N + 1) / 2 real. The diagonal less its mean, summed in index order,
    and the entries below it scaled by sqrt(1/2), mirrored above it, are
    divided by the Hilbert-Schmidt norm, summed in index order. Every step
    acts on each column of a block alone, so row i depends only on rng and
    i."""
    size = _integer("size", size, 0)
    n, field = shape.n, shape.field
    parts = _parts(field)
    below_i, below_j = np.tril_indices(n, -1)
    d = np.arange(n)
    fills = [(rng.generator().standard_normal, (n + parts * len(below_i),))]
    with _filled_blocks(fills, size) as blocks:
        for _, (z,) in blocks:
            b = len(z)
            diag = z[:, :n].T
            off = np.sqrt(0.5) * z[:, n:].reshape(b, -1, parts).T
            out = np.empty((n, n, b), dtype=_dtype(field))
            out[d, d] = diag - _sum_in_order(diag) / n
            out.real[below_i, below_j] = out.real[below_j, below_i] = off[0]
            sq = out.real ** 2
            if field == "complex":
                out.imag[below_i, below_j] = off[1]
                out.imag[below_j, below_i] = -off[1]
                sq += out.imag ** 2
            out /= np.sqrt(_sum_in_order(sq.reshape(n * n, b)))
            yield out


def sample_direction(shape: BipartiteShape, rng: RngStream, size: int) -> np.ndarray:
    """A (size, N, N) stack of uniform directions on the traceless unit sphere
    of the body's span.

    A Gaussian Hermitian (real symmetric) matrix with i.i.d. standard-normal
    coefficients on any Hilbert-Schmidt orthonormal basis, projected traceless
    and normalized; equivalent to drawing Gaussian coefficients on a
    generalized Gell-Mann basis without materializing the basis. Its
    diagonal entries are N(0, 1) and each part of an entry off it N(0, 1/2),
    the law of the Hermitian part (G + G^dag) / 2 of a Ginibre matrix G, from
    half its normals. The directions are those of :func:`direction_blocks`.
    """
    size = _integer("size", size, 0)
    return _stacked(direction_blocks(shape, rng, size), size, shape.n, shape.field)
