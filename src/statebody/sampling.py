"""Seeded samplers for the Hilbert-Schmidt ensemble.

Every sampler is a pure function of an :class:`RngStream` value: calling it
twice with the same stream and size returns bit-identical output. Distinct
draws therefore need distinct streams, usually obtained via
:meth:`RngStream.child`. Samplers always return (size, N, N) stacks; a single
draw is ``sample_*(shape, rng, 1)[0]``, on the same stream.

Draws stream through row blocks. A stack sampler draws the real and then the
imaginary Gaussian parts of its whole stack from the generator, in the order
an unblocked draw would, and allocates its output once. Everything after the
draw (joining the parts, the projection, the Gram product, the Hermitian part
and the normalization) runs on blocks of ``hermitian.COUNT_CHUNK`` rows and
writes into that output, so no full-stack temporary is formed and the output
equals the full-stack formulas bit for bit.

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

from dataclasses import dataclass, replace

import numpy as np

from .hermitian import BipartiteShape, hermitian_part, row_blocks

_MASK64 = (1 << 64) - 1
_ALGORITHM = "philox4x64"


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
    the stream id are one 64-bit word of the key each: either outside
    [0, 2^64) raises ValueError rather than draw the numbers of its residue
    mod 2^64.
    """

    seed: int
    stream: int = 0

    def __post_init__(self):
        for name, value in (("seed", self.seed), ("stream", self.stream)):
            if not 0 <= value <= _MASK64:
                raise ValueError(f"{name} must lie in [0, 2**64), got {value!r}")

    def generator(self) -> np.random.Generator:
        """A fresh generator positioned at the start of this stream."""
        key = (int(self.stream) << 64) | int(self.seed)
        return np.random.Generator(np.random.Philox(key=key))

    def child(self, index: int) -> "RngStream":
        """Derived stream for sub-task ``index``; deterministic and disjoint."""
        mixed = _splitmix64(int(self.stream) ^ _splitmix64(index & _MASK64))
        return replace(self, stream=mixed)

    def describe(self) -> str:
        return f"{_ALGORITHM}:{self.seed}:{self.stream}"


def _check_field(field: str):
    if field not in ("complex", "real"):
        raise ValueError(f"field must be 'complex' or 'real', got {field!r}")


def _check_size(size: int):
    if size < 0:
        raise ValueError(f"size must be >= 0, got {size}")


def _ginibre(gen: np.random.Generator, shape: tuple, field: str) -> np.ndarray:
    """Independent standard Gaussian entries; complex ones get i.i.d. parts."""
    if field == "complex":
        return gen.standard_normal(shape) + 1j * gen.standard_normal(shape)
    return gen.standard_normal(shape)


def _ginibre_blocks(gen: np.random.Generator, shape: tuple, field: str):
    """Pairs (rows, block) whose blocks are the row blocks of
    ``_ginibre(gen, shape, field)``, bit for bit: both parts are drawn whole,
    in _ginibre's order, and joined one block at a time."""
    re = gen.standard_normal(shape)
    im = gen.standard_normal(shape) if field == "complex" else None
    for rows in row_blocks(shape[0]):
        yield rows, re[rows] if im is None else re[rows] + 1j * im[rows]


def _stack(shape: BipartiteShape, size: int) -> np.ndarray:
    """An uninitialised (size, N, N) output stack of the shape's field."""
    dtype = np.complex128 if shape.field == "complex" else np.float64
    return np.empty((size, shape.n, shape.n), dtype=dtype)


def _normalized_gram(g: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Trace-one Hermitian part of G G^dag for a (size, rows, cols) stack G,
    written to ``out`` when given."""
    w = hermitian_part(g @ np.conj(np.swapaxes(g, -1, -2)))
    tr = np.trace(w, axis1=-2, axis2=-1).real
    return np.divide(w, tr[:, None, None], out=out)


def sample_state_hs(shape: BipartiteShape, rng: RngStream, size: int) -> np.ndarray:
    """A (size, N, N) stack of states distributed by the flat Hilbert-Schmidt
    measure on the body."""
    _check_size(size)
    n = shape.n
    cols = n if shape.field == "complex" else n + 1
    out = _stack(shape, size)
    for rows, g in _ginibre_blocks(rng.generator(), (size, n, cols), shape.field):
        _normalized_gram(g, out[rows])
    return out


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
    _check_field(field)
    m = n - 1
    if m < 1:
        raise ValueError(f"need n >= 2, got {n}")
    _check_size(size)
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
    _check_size(size)
    n = shape.n
    cols = n + 1 if shape.field == "complex" else n + 2
    psi = _ginibre(rng.child(1).generator(), (size, n), shape.field)
    psi = psi / np.linalg.norm(psi, axis=-1, keepdims=True)
    out = _stack(shape, size)
    for rows, g in _ginibre_blocks(rng.child(0).generator(), (size, n, cols), shape.field):
        p = psi[rows]
        g -= p[:, :, None] * (np.conj(p)[:, None, :] @ g)
        _normalized_gram(g, out[rows])
    return out, psi


def sample_direction(shape: BipartiteShape, rng: RngStream, size: int) -> np.ndarray:
    """A (size, N, N) stack of uniform directions on the traceless unit sphere
    of the body's span.

    A Gaussian Hermitian (real symmetric) matrix with i.i.d. standard-normal
    coefficients on any Hilbert-Schmidt orthonormal basis, projected traceless
    and normalized; equivalent to drawing Gaussian coefficients on a
    generalized Gell-Mann basis without materializing the basis.
    """
    _check_size(size)
    n = shape.n
    out = _stack(shape, size)
    eye = np.eye(n, dtype=out.dtype)
    for rows, g in _ginibre_blocks(rng.generator(), (size, n, n), shape.field):
        h = hermitian_part(g)
        tr = np.trace(h, axis1=-2, axis2=-1).real
        h -= (tr / n)[:, None, None] * eye
        nrm = np.sqrt(np.sum(np.abs(h) ** 2, axis=(-2, -1)))
        np.divide(h, nrm[:, None, None], out=out[rows])
    return out
