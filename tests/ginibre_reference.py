"""The Ginibre Gram route to interior states, and stack samplers as block
sources, kept for the tests only.

``sample_state_hs`` draws the Bartlett factor of a Ginibre Gram matrix. This
module forms the Gram matrix G G^dag of the Ginibre matrix G itself, with the
production kernels (``_filled_blocks``, ``_batch_last_block``, ``_gram``).
It is the reference law of the Bartlett draw, and with a wrong column count
the base of the negative controls. ``ginibre`` is the whole-array Gaussian
draw the samplers' blocked draws must match bit for bit, and ``blocks_of``
turns any stack sampler into a block source, so a negative control can
replace the one the estimators stream from.
"""

import numpy as np

from statebody import sampling
from statebody.hermitian import row_blocks


def ginibre(gen, shape: tuple, field: str) -> np.ndarray:
    """Independent standard Gaussian entries of ``shape``, drawn whole in one
    call: for the complex field each entry's real part, then its imaginary
    part, as a complex array lies in memory."""
    if field == "complex":
        return gen.standard_normal((*shape, 2)).view(complex)[..., 0]
    return gen.standard_normal(shape)


def ginibre_gram_states(gen, field: str, size: int, n: int, cols: int) -> np.ndarray:
    """The (size, n, n) stack G G^dag / Tr G G^dag of n x cols Ginibre
    matrices G drawn from ``gen``, one part filled block by block."""
    out = np.empty((n, n, size), dtype=complex if field == "complex" else float)
    parts = [(gen.standard_normal, (n, cols, sampling._parts(field)))]
    with sampling._filled_blocks(parts, size) as blocks:
        for rows, (z,) in blocks:
            sampling._gram(sampling._batch_last_block(z), out[..., rows])
    return np.moveaxis(out, -1, 0)


def ginibre_sampler(extra: int = 0):
    """An interior sampler with the signature of ``sample_state_hs`` that
    forms the Ginibre Gram matrix with ``extra`` columns more than the flat
    measure's N (complex) or N + 1 (real)."""
    def sample(shape, rng, size):
        n = shape.n
        cols = (n if shape.field == "complex" else n + 1) + extra
        return ginibre_gram_states(rng.generator(), shape.field, size, n, cols)
    return sample


def blocks_of(sample):
    """A block source with the signature of ``sampling.state_blocks`` and
    ``sampling.boundary_blocks``: the stack that ``sample(shape, rng, size)``
    returns (the first of a pair), yielded batch-last, one (N, N, b) block
    per ``row_blocks(size)`` slice."""
    def blocks(shape, rng, size):
        states = sample(shape, rng, size)
        if isinstance(states, tuple):
            states = states[0]
        for rows in row_blocks(size):
            yield np.moveaxis(states[rows], 0, -1)
    return blocks
