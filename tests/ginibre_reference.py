"""The Ginibre Gram route to interior states, kept for the tests only.

``sample_state_hs`` draws the Bartlett factor of a Ginibre Gram matrix. This
module forms the Gram matrix G G^dag of the Ginibre matrix G itself, with the
production kernels (``_ginibre_parts``, ``_filled_blocks``,
``_batch_last_block``, ``_gram``). It is the reference law of the Bartlett
draw, and with a wrong column count the base of the negative controls.
"""

import numpy as np

from statebody import sampling


def ginibre_gram_states(gen, field: str, size: int, n: int, cols: int) -> np.ndarray:
    """The (size, n, n) stack G G^dag / Tr G G^dag of n x cols Ginibre
    matrices G drawn from ``gen``."""
    out = np.empty((n, n, size), dtype=complex if field == "complex" else float)
    parts = sampling._ginibre_parts(gen, (size, n, cols), field)
    with sampling._filled_blocks(parts, size) as blocks:
        for rows in blocks:
            sampling._gram(sampling._batch_last_block(parts, rows), out[..., rows])
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
