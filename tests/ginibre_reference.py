"""The Ginibre routes to interior states, boundary states and directions,
and stack samplers as block sources, kept for the tests only.

``sample_state_hs`` draws the Bartlett factor of a Ginibre Gram matrix, and
``sample_boundary_state_hs`` the Bartlett factor of one with a column more,
projected off psi. This module forms the Gram matrix G G^dag of the Ginibre
matrix G itself, projected off psi for a boundary state, with the
production kernels (``_filled_blocks``, ``_project``, ``_gram``). It is the
reference law of the Bartlett draws, and with a wrong column count the base
of the negative controls. Likewise ``sample_direction`` draws the entries of
a Gaussian Hermitian matrix, and :func:`ginibre_directions` forms the
traceless Hermitian part (G + G^dag) / 2 of a Ginibre G, the reference law
of the direction draw; :func:`scaled_directions` redraws the production
directions whole, and with the parts off the diagonal scaled by 1 in place
of sqrt(1/2) is the base of its negative controls. ``ginibre`` is the
whole-array Gaussian draw the samplers' blocked draws must match bit for
bit, and ``blocks_of`` turns any stack sampler into a block source, so a
negative control can replace the one the estimators stream from.
"""

import numpy as np

from statebody import sampling
from statebody.hermitian import _sum_in_order, row_blocks


def ginibre(gen, shape: tuple, field: str) -> np.ndarray:
    """Independent standard Gaussian entries of ``shape``, drawn whole in one
    call: for the complex field each entry's real part, then its imaginary
    part, as a complex array lies in memory."""
    if field == "complex":
        return gen.standard_normal((*shape, 2)).view(complex)[..., 0]
    return gen.standard_normal(shape)


def batch_last_block(z: np.ndarray) -> np.ndarray:
    """A (b, n, cols, parts) Gaussian block copied batch-last into a real
    (n, parts cols, b) buffer: row i holds the real parts of its entries,
    then for the complex field their imaginary parts."""
    b, n, cols, parts = z.shape
    x = sampling._batch_buffer((n, parts, cols), b)
    x[...] = z.transpose(1, 3, 2, 0)
    return x.reshape(n, parts * cols, b)


def ginibre_gram_states(gen, field: str, size: int, n: int, cols: int) -> np.ndarray:
    """The (size, n, n) stack G G^dag / Tr G G^dag of n x cols Ginibre
    matrices G drawn from ``gen``, one part filled block by block."""
    out = np.empty((n, n, size), dtype=complex if field == "complex" else float)
    parts = [(gen.standard_normal, (n, cols, sampling._parts(field)))]
    with sampling._filled_blocks(parts, size) as blocks:
        for rows, (z,) in blocks:
            sampling._gram(batch_last_block(z), out[..., rows])
    return np.moveaxis(out, -1, 0)


def ginibre_boundary_blocks(rng, field: str, size: int, n: int, cols: int):
    """For each row block, in order, the batch-last (n, n, b) block of
    P G G^dag P / Tr of n x cols Ginibre matrices G projected by
    P = I - psi psi^dag off unit vectors psi. G comes from rng.child(0) and
    psi from rng.child(1)."""
    parts = sampling._parts(field)
    dtype = complex if field == "complex" else float
    fills = [(rng.child(0).generator().standard_normal, (n, cols, parts)),
             (rng.child(1).generator().standard_normal, (n, parts))]
    with sampling._filled_blocks(fills, size) as blocks:
        for _, (z, normals) in blocks:
            psi = normals.view(dtype).reshape(len(z), n)
            psi /= np.linalg.norm(psi, axis=-1, keepdims=True)
            x = batch_last_block(z)
            sampling._project(x, psi)
            out = np.empty((n, n, len(z)), dtype=dtype)
            sampling._gram(x, out)
            yield out


def ginibre_sampler(extra: int = 0):
    """An interior sampler with the signature of ``sample_state_hs`` that
    forms the Ginibre Gram matrix with ``extra`` columns more than the flat
    measure's N (complex) or N + 1 (real)."""
    def sample(shape, rng, size):
        n = shape.n
        cols = (n if shape.field == "complex" else n + 1) + extra
        return ginibre_gram_states(rng.generator(), shape.field, size, n, cols)
    return sample


def ginibre_boundary_sampler(extra: int = 0):
    """A boundary sampler with the signature of ``sample_boundary_state_hs``
    that projects the Ginibre Gram matrix with ``extra`` columns more than
    the boundary measure's N + 1 (complex) or N + 2 (real)."""
    def sample(shape, rng, size):
        n = shape.n
        cols = sampling._flat_cols(n, shape.field) + 1 + extra
        blocks = ginibre_boundary_blocks(rng, shape.field, size, n, cols)
        return sampling._stacked(blocks, size, n, shape.field)
    return sample


def blocks_of(sample):
    """A block source with the signature of ``sampling.state_blocks`` and
    ``sampling.boundary_blocks``: the stack that ``sample(shape, rng, size)``
    returns, yielded batch-last, one (N, N, b) block per ``row_blocks(size)``
    slice."""
    def blocks(shape, rng, size):
        states = sample(shape, rng, size)
        for rows in row_blocks(size):
            yield np.moveaxis(states[rows], 0, -1)
    return blocks


def ginibre_directions(shape, rng, size):
    """The (size, N, N) stack of the traceless Hermitian parts
    (G + G^dag) / 2 of N x N Ginibre matrices G, normalized: uniform
    directions from 2 N^2 normals (complex) drawn from rng itself, one part
    filled block by block."""
    n = shape.n
    out = np.empty((size, n, n), dtype=complex if shape.field == "complex" else float)
    parts = [(rng.generator().standard_normal, (n, n, sampling._parts(shape.field)))]
    with sampling._filled_blocks(parts, size) as blocks:
        for rows, (z,) in blocks:
            g = z[..., 0] + 1j * z[..., 1] if shape.field == "complex" else z[..., 0]
            h = 0.5 * (g + np.conj(np.swapaxes(g, 1, 2)))
            tr = np.trace(h, axis1=-2, axis2=-1).real
            h -= (tr / n)[:, None, None] * np.eye(n)
            out[rows] = h / np.sqrt(np.sum(np.abs(h) ** 2, axis=(-2, -1)))[:, None, None]
    return out


def scaled_directions(off: float):
    """A direction sampler with the signature of ``sample_direction``: the
    production draw with its normals drawn whole in one call on rng and the
    directions formed stack-first, the parts off the diagonal scaled by
    ``off``. At sqrt(1/2) it gives ``sample_direction``'s directions bit for
    bit; at 1 the directions are no longer uniform."""
    def sample(shape, rng, size):
        n, parts = shape.n, sampling._parts(shape.field)
        i, j = np.tril_indices(n, -1)
        z = rng.generator().standard_normal((size, n + parts * len(i)))
        w = off * z[:, n:].reshape(size, len(i), parts)
        h = np.zeros((size, n, n), dtype=complex if shape.field == "complex" else float)
        diag = z[:, :n]
        h[:, np.arange(n), np.arange(n)] = diag - (_sum_in_order(diag.T) / n)[:, None]
        h.real[:, i, j] = h.real[:, j, i] = w[..., 0]
        sq = h.real ** 2
        if shape.field == "complex":
            h.imag[:, i, j] = w[..., 1]
            h.imag[:, j, i] = -w[..., 1]
            sq += h.imag ** 2
        return h / np.sqrt(_sum_in_order(sq.reshape(size, n * n).T))[:, None, None]
    return sample
