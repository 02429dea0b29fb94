"""Matrix layer: shapes, partial transpose, the PPT test and the eigen kernels.

The kernels take batch-last (N, N, b) blocks; a test with a stack-first
(b, N, N) stack passes its batch-last view, ``np.moveaxis(stack, 0, -1)``.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statebody import (
    BipartiteShape,
    DimensionMismatchError,
    RngStream,
    boundary_eigenvalues_laguerre,
    maximally_mixed,
    partial_transpose,
    sample_boundary_state_hs,
    sample_direction,
    sample_state_hs,
)
from statebody import hermitian, polytopes, sampling
from statebody.hermitian import (
    COUNT_CHUNK,
    PPT_TOL,
    _block_minima,
    _count_block,
    _ppt_block,
    row_blocks,
)

ATOL = 1e-12


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """(A + A^dag)/2 of each matrix of a stack: the reference Hermitian matrices."""
    return 0.5 * (a + np.conj(np.swapaxes(a, -1, -2)))


def bell_state() -> np.ndarray:
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / np.sqrt(2.0)
    return np.outer(v, v.conj())


def werner(p: float) -> np.ndarray:
    return p * bell_state() + (1 - p) * np.eye(4) / 4


def random_hermitian(n, seed, field="complex"):
    gen = np.random.default_rng(seed)
    a = gen.standard_normal((n, n))
    if field == "complex":
        a = a + 1j * gen.standard_normal((n, n))
    return (a + a.conj().T) / 2


# ---------------------------------------------------------------------------
# shapes


class TestBipartiteShape:
    def test_dimension_table(self):
        # (k, m, field) -> (N, body dimension)
        cases = [
            ((1, 2, "complex"), (2, 3)),
            ((1, 3, "complex"), (3, 8)),
            ((2, 2, "complex"), (4, 15)),
            ((2, 3, "complex"), (6, 35)),
            ((1, 2, "real"), (2, 2)),
            ((1, 3, "real"), (3, 5)),
            ((2, 2, "real"), (4, 9)),
        ]
        for (k, m, field), (n, d) in cases:
            shape = BipartiteShape(k, m, field)
            assert shape.n == n
            assert shape.dim_body == d

    def test_is_bipartite(self):
        assert BipartiteShape(2, 3).is_bipartite
        assert not BipartiteShape(1, 4).is_bipartite

    def test_str(self):
        assert str(BipartiteShape(2, 3)) == "2x3 complex"
        assert str(BipartiteShape(1, 2, "real")) == "1x2 real"

    def test_rejects_bad_factors(self):
        with pytest.raises(ValueError):
            BipartiteShape(0, 2)
        with pytest.raises(ValueError):
            BipartiteShape(2, 1)
        with pytest.raises(ValueError):
            BipartiteShape(2, 2, "quaternion")

    def test_numpy_factors_act_as_python_ints(self):
        a = BipartiteShape(np.int64(2), np.uint8(3), "real")
        b = BipartiteShape(2, 3, "real")
        assert a == b and hash(a) == hash(b)
        assert str(a) == str(b) == "2x3 real" and repr(a) == repr(b)
        assert type(a.k) is int and type(a.m) is int

    def test_frozen(self):
        shape = BipartiteShape(2, 2)
        with pytest.raises(AttributeError):
            shape.k = 3


@pytest.mark.parametrize("call", [
    lambda field: maximally_mixed(2, field),
    lambda field: boundary_eigenvalues_laguerre(3, field, RngStream(1), 2),
], ids=["maximally_mixed", "laguerre"])
def test_unknown_field_is_rejected(call):
    for field in ("quaternion", "Complex", None):
        with pytest.raises(ValueError, match="field must be 'complex' or 'real'"):
            call(field)


def test_maximally_mixed():
    rho = maximally_mixed(4)
    assert np.allclose(rho, np.eye(4) / 4)
    assert rho.dtype == np.complex128
    assert maximally_mixed(3, "real").dtype == np.float64


# ---------------------------------------------------------------------------
# partial transpose


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1), st.sampled_from([(2, 2), (2, 3), (3, 2)]))
def test_partial_transpose_is_isometric_involution(seed, km):
    k, m = km
    shape = BipartiteShape(k, m)
    a = random_hermitian(k * m, seed)
    ta = partial_transpose(a, shape)
    assert np.allclose(partial_transpose(ta, shape), a, atol=ATOL)
    assert np.linalg.norm(ta) == pytest.approx(np.linalg.norm(a), abs=1e-10)
    assert np.trace(ta) == pytest.approx(np.trace(a), abs=ATOL)
    assert np.allclose(ta, ta.conj().T, atol=ATOL)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_partial_transpose_of_product(seed):
    # on A (x) B the map acts as transpose on the first factor only
    a = random_hermitian(2, seed)
    b = random_hermitian(3, seed + 1)
    shape = BipartiteShape(2, 3)
    assert np.allclose(
        partial_transpose(np.kron(a, b), shape), np.kron(a.T, b), atol=ATOL
    )


def test_partial_transpose_fixes_center():
    shape = BipartiteShape(2, 3)
    assert np.allclose(partial_transpose(np.eye(6) / 6, shape), np.eye(6) / 6)


def test_partial_transpose_on_stack():
    shape = BipartiteShape(2, 2)
    gen = np.random.default_rng(3)
    stack = gen.standard_normal((7, 4, 4)) + 1j * gen.standard_normal((7, 4, 4))
    out = partial_transpose(stack, shape)
    for i in range(7):
        assert np.allclose(out[i], partial_transpose(stack[i], shape))


def test_partial_transpose_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        partial_transpose(np.eye(5), BipartiteShape(2, 3))


def test_bell_partial_transpose_spectrum():
    """The Bell state's partial transpose has spectrum (-1/2, 1/2, 1/2, 1/2),
    one negative eigenvalue, and the state is not PPT."""
    shape = BipartiteShape(2, 2)
    ta = partial_transpose(bell_state()[None], shape)
    assert type(ta) is np.ndarray and ta.shape == (1, 4, 4)
    assert np.allclose(np.linalg.eigvalsh(ta), [[-0.5, 0.5, 0.5, 0.5]], atol=ATOL)
    assert _ppt_block(bell_state()[..., None], shape).tolist() == [False]


def test_werner_ppt_threshold():
    """The PT spectrum of p*Bell + (1-p)*I/4 has minimum (1-3p)/4, and no
    negative eigenvalue up to p = 1/3."""
    shape = BipartiteShape(2, 2)
    for p in np.linspace(0.0, 1.0, 21):
        rho = werner(float(p))[None]
        got = np.linalg.eigvalsh(partial_transpose(rho, shape))[0, 0]
        assert got == pytest.approx((1 - 3 * p) / 4, abs=1e-12)
        assert _ppt_block(np.moveaxis(rho, 0, -1), shape).tolist() == [p <= 1 / 3 + 1e-12]


def test_werner_ppt_decision_at_the_tolerance():
    """lambda_min(T_A) = (1 - 3p)/4 set 2 tol below and 0.5 tol below zero:
    margins of ~1e-12 against ~1e-16 of rounding."""
    shape = BipartiteShape(2, 2)
    for lam, want in ((-2 * PPT_TOL, False), (-0.5 * PPT_TOL, True)):
        rho = werner((1 - 4 * lam) / 3)[None]
        got = np.linalg.eigvalsh(partial_transpose(rho, shape))[0, 0]
        assert got == pytest.approx(lam, abs=1e-15)
        assert _ppt_block(np.moveaxis(rho, 0, -1), shape).tolist() == [want]


# Complex shapes catch a wrongly conjugated Schur update, which real ones
# cannot; 2x4 and 3x3 have the most pivots
EQUIVALENCE_CASES = [
    (BipartiteShape(2, 2, "complex"), 4101),
    (BipartiteShape(2, 2, "real"), 4102),
    (BipartiteShape(2, 3, "complex"), 4103),
    (BipartiteShape(2, 3, "real"), 4104),
    (BipartiteShape(2, 4, "complex"), 4105),
    (BipartiteShape(3, 3, "complex"), 4106),
]


@pytest.mark.parametrize("shape,seed", EQUIVALENCE_CASES,
                         ids=[str(shape) for shape, _ in EQUIVALENCE_CASES])
def test_ppt_mask_matches_spectral_test(shape, seed):
    """The pivot sweep decides as lambda_min(T_A) >= -PPT_TOL on 20,000
    interior and 20,000 boundary states, with no disagreement."""
    n = 20_000
    rng = RngStream(seed)
    for states in (sample_state_hs(shape, rng.child(0), n),
                   sample_boundary_state_hs(shape, rng.child(1), n)):
        spectral = np.linalg.eigvalsh(partial_transpose(states, shape))[:, 0] >= -PPT_TOL
        assert np.array_equal(_ppt_block(np.moveaxis(states, 0, -1), shape), spectral)


@pytest.mark.parametrize("shape", [
    BipartiteShape(1, 3, "complex"),
    BipartiteShape(2, 2, "complex"),
    BipartiteShape(2, 3, "real"),
], ids=str)
def test_ppt_mask_leaves_its_input_intact(shape):
    """The sweep runs on a private copy. For K = 1 the partial transpose is a
    view of the states, so a sweep in place would overwrite them. So do the
    per-block kernels the sweeps stream through, each on a sampler's blocks
    marked read-only: the PPT sweep, the Sturm counts with and without a
    partial transpose and lambda_min of both constraints."""
    # contiguous, as the sampler's batch-last view is not: for K = 1 the
    # partial transpose must view the states for the sweep to be at risk
    states = np.ascontiguousarray(sample_state_hs(shape, RngStream(4200), 500))
    before = states.tobytes()
    pt = partial_transpose(states, shape)
    assert np.shares_memory(pt, states) == (shape.k == 1)
    _ppt_block(np.moveaxis(states, 0, -1), shape)
    assert states.tobytes() == before
    xs = np.array([0.0, 0.01])[:, None]
    for source in (sampling.state_blocks, sampling.boundary_blocks):
        blocks = _read_only_blocks(source, shape, RngStream(4210), COUNT_CHUNK + 7)
        for block, _ in blocks:
            hermitian._ppt_block(block, shape)
            hermitian._count_block(block, xs)
            hermitian._count_block(block, xs, shape)
        hermitian._block_minima([block for block, _ in blocks], (None, shape))
        assert all(block.tobytes() == before for block, before in blocks)


def _read_only_blocks(source, shape, rng, size):
    """A sampler's batch-last blocks, each marked read-only, with its bytes."""
    blocks = list(source(shape, rng, size))
    for block in blocks:
        block.setflags(write=False)
    return [(block, block.tobytes()) for block in blocks]


@pytest.mark.parametrize("n", [3, 4])
def test_spectrum_block_leaves_the_sampler_blocks_intact(n):
    """The power sums read a read-only boundary block and leave its bytes."""
    for field in ("complex", "real"):
        blocks = _read_only_blocks(sampling.boundary_blocks, BipartiteShape(1, n, field),
                                   RngStream(4220), COUNT_CHUNK + 7)
        for block, before in blocks:
            hermitian._spectrum_block(block)
            assert block.tobytes() == before


def test_ppt_mask_raises_no_warning_on_failed_pivots():
    """States with a failed pivot (the Bell state's third, a first pivot of
    exactly zero) share a stack with PPT states; the sweep must not divide by
    a failed pivot."""
    shape = BipartiteShape(2, 2)
    zero_pivot = np.diag([-PPT_TOL, 1.0, 1.0, 1.0]).astype(complex)
    special = np.stack([bell_state(), zero_pivot, np.zeros((4, 4), complex), werner(0.2)])
    states = np.concatenate([special, sample_state_hs(shape, RngStream(4300), 200)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mask = _ppt_block(np.moveaxis(states, 0, -1), shape)
    assert mask[:4].tolist() == [False, False, True, True]
    assert mask.any() and not mask.all()


def _spectral_ppt(states, shape):
    return np.linalg.eigvalsh(partial_transpose(states, shape))[..., 0] >= -PPT_TOL


def test_ppt_mask_of_an_empty_stack():
    mask = _ppt_block(np.zeros((6, 6, 0), complex), BipartiteShape(2, 3))
    assert mask.shape == (0,) and mask.dtype == bool


@pytest.mark.parametrize("rho,want", [(bell_state(), False), (werner(0.2), True)],
                         ids=["bell", "werner"])
def test_ppt_mask_of_a_single_matrix(rho, want):
    """One (N, N) matrix, as a one-row block, gets a one-entry mask that
    decides as the spectral test does."""
    shape = BipartiteShape(2, 2)
    mask = _ppt_block(rho[..., None], shape)
    assert mask.shape == (1,) and mask.dtype == bool
    assert bool(mask[0]) is want
    assert bool(_spectral_ppt(rho, shape)) is want


def test_ppt_mask_fails_a_pivot_in_the_last_block_only():
    """A block one row longer than COUNT_CHUNK, PPT everywhere except its
    last row: that row keeps its own failed pivot, and no other row takes
    it."""
    shape = BipartiteShape(2, 2)
    ps = np.linspace(0.0, 0.3, COUNT_CHUNK)
    states = np.stack([werner(float(p)) for p in ps] + [bell_state()])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mask = _ppt_block(np.moveaxis(states, 0, -1), shape)
    assert np.array_equal(mask, _spectral_ppt(states, shape))
    assert mask[:-1].all() and not mask[-1]


def _counts_below(w: np.ndarray, xs) -> np.ndarray:
    """(len(xs), B) counts of the eigenvalues w (B, n) below each threshold
    of the (len(xs), 1) column ``xs``."""
    return (w[None] < xs[:, :, None]).sum(-1)


def _column(xs) -> np.ndarray:
    """Thresholds as the (len(xs), 1) column the Sturm kernel takes."""
    return np.array(xs, dtype=float)[:, None]


@pytest.mark.parametrize("field", ["complex", "real"])
@pytest.mark.parametrize("n", range(1, 9))
def test_eigen_counts_match_eigvalsh(n, field):
    """Sturm counts on the Householder tridiagonal equal eigvalsh counts on a
    stack longer than one chunk. Every threshold is kept 1e-9 clear of every
    eigenvalue, a million times the rounding of either method, so no count
    rests on a floating-point coincidence."""
    gen = np.random.default_rng(4400 + n)
    b = COUNT_CHUNK + 300
    a = gen.standard_normal((b, n, n))
    if field == "complex":
        a = a + 1j * gen.standard_normal((b, n, n))
    h = hermitian_part(a)
    w = np.linalg.eigvalsh(h)
    xs = np.linspace(-2.05, 2.05, 9)[:, None]
    assert np.min(np.abs(w[..., None] - xs[:, 0])) > 1e-9
    got = _count_block(np.moveaxis(h, 0, -1), xs)
    assert got.shape == (len(xs), b)
    assert np.array_equal(got, _counts_below(w, xs))


def test_eigen_counts_on_exact_inputs():
    """Diagonal matrices (every column already zero) alone and in a stack
    with full ones, multiples of I and the Bell state's partial transpose,
    eigenvalues -1/2 and 1/2 (three times)."""
    diag = np.stack([np.diag(v) for v in ([3.0, -1.0, 0.5, 2.0], [0.0, 0.0, 1.0, -2.0])])
    xs = _column([-2.5, -0.5, 0.25, 0.75, 2.5, 3.5])
    assert np.array_equal(_count_block(np.moveaxis(diag, 0, -1), xs),
                          _counts_below(np.sort(np.diagonal(diag, axis1=1, axis2=2)), xs))
    mixed = np.concatenate([diag, np.stack([random_hermitian(4, s) for s in (1, 2)])])
    w = np.linalg.eigvalsh(mixed)
    assert np.min(np.abs(w[..., None] - xs[:, 0])) > 1e-9
    assert np.array_equal(_count_block(np.moveaxis(mixed, 0, -1), xs), _counts_below(w, xs))
    for n in (1, 2, 5, 8):
        scalar = np.stack([c * np.eye(n) for c in (-1.0, 0.0, 0.7)])
        assert _count_block(np.moveaxis(scalar, 0, -1), _column([-0.5, 0.5])).tolist() == \
            [[n, 0, 0], [n, n, 0]]
    bell_pt = partial_transpose(bell_state(), BipartiteShape(2, 2))
    assert _count_block(bell_pt[..., None], _column([-0.75, -0.25, 0.25, 0.75])).tolist() == \
        [[0], [1], [1], [4]]


def test_eigen_counts_guard_a_zero_pivot():
    """At x = 0 the first Sturm pivot of [[0, 1], [1, 0]] (and of its 3x3
    analogue) is exactly zero; it is taken as -pivmin, so the recurrence
    divides by no zero and the count is right."""
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    chain = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 3.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for h in (swap, chain):
            want = _counts_below(np.linalg.eigvalsh(h)[None], _column([0.0]))
            assert np.array_equal(_count_block(h[..., None], _column([0.0])), want)


@pytest.mark.parametrize("scale", [1e150, 1e-150])
def test_eigen_counts_of_tiny_and_huge_matrices(scale):
    """A matrix whose largest entry lies outside 2^(+-100) is scaled by a
    power of two before its reflectors, so the squared column norms of
    1e-150-sized entries neither underflow nor overflow
    1 / (alpha (alpha + |x_0|)) into a non-finite reflector: at 1e-150 one
    row of this stack did so without the scaling."""
    h = _min_eig_stack("double minimum", 4, "complex", COUNT_CHUNK - 1, 0) * scale
    xs = _column([-0.5, 0.0, 0.5]) * scale
    w = np.linalg.eigvalsh(h)
    assert np.min(np.abs(w[..., None] - xs[:, 0])) > 1e-9 * scale
    assert np.array_equal(_count_block(np.moveaxis(h, 0, -1), xs), _counts_below(w, xs))


def test_eigen_counts_of_an_empty_stack():
    for field in (complex, float):
        assert _count_block(np.zeros((4, 4, 0), field), _column([0.1, -0.1])).shape == (2, 0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_eigen_counts_reject_non_finite_entries(bad):
    """A non-finite entry raises rather than returning counts: the CLI maps
    LinAlgError to exit code 3."""
    h = np.stack([random_hermitian(6, s) for s in range(5)])
    h[3, 4, 1] = bad
    with pytest.raises(np.linalg.LinAlgError, match="non-finite"):
        _count_block(np.moveaxis(h, 0, -1), _column([0.0]))


def test_eigen_counts_reject_a_nan_threshold():
    """No eigenvalue lies below NaN or not below it; infinite thresholds
    count none and all."""
    block = np.moveaxis(np.stack([random_hermitian(4, s) for s in range(3)]), 0, -1)
    with pytest.raises(ValueError, match="NaN"):
        _count_block(block, _column([0.0, np.nan]))
    assert np.array_equal(_count_block(block, _column([-np.inf, np.inf])),
                          [[0, 0, 0], [4, 4, 4]])


BLOCK_KERNELS = {
    "_ppt_block": (hermitian._ppt_block, DimensionMismatchError),
    "_count_block": (lambda b, shape: hermitian._count_block(b, np.zeros((1, 1))), ValueError),
    "_count_block pt": (lambda b, shape: hermitian._count_block(b, np.zeros((1, 1)), shape),
                        DimensionMismatchError),
    "_block_minima": (lambda b, shape: hermitian._block_minima([b]), ValueError),
    "_block_minima pt": (lambda b, shape: hermitian._block_minima([b], (shape,)),
                         DimensionMismatchError),
}


@pytest.mark.parametrize("kernel,error", BLOCK_KERNELS.values(), ids=BLOCK_KERNELS.keys())
def test_block_kernels_reject_a_stack_first_block(kernel, error):
    """The per-block kernels read batch-last (N, N, b) blocks: a stack-first
    (b, N, N) array with b != N is rejected, with a shape as a dimension
    mismatch, not read as matrices of another size; so is an array that
    holds no square matrix."""
    shape = BipartiteShape(2, 2)
    for bad in (sample_state_hs(shape, RngStream(4230), 6), np.arange(4.0)[:, None]):
        with pytest.raises(error, match="square"):
            kernel(bad, shape)


def test_batch_last_rejects_pieces_of_another_size():
    """A block of the wrong size for the shape, and blocks that do not agree."""
    with pytest.raises(DimensionMismatchError, match="square"):
        hermitian._batch_last([np.zeros((6, 6, 3))], BipartiteShape(2, 2))
    with pytest.raises(ValueError, match="square"):
        hermitian._batch_last([np.zeros((4, 4, 3)), np.zeros((6, 6, 3))])


@pytest.mark.parametrize("block", [COUNT_CHUNK, 5 * polytopes._BINDING_ROWS],
                         ids=["COUNT_CHUNK", "binding step"])
def test_row_blocks_join_a_lone_last_row(block):
    """Blocks of ``block`` rows, the last shorter, except that a lone last
    row joins the block before it."""
    b = block
    want = {
        0: [],
        1: [(0, 1)],
        b - 1: [(0, b - 1)],
        b: [(0, b)],
        b + 1: [(0, b + 1)],
        2 * b: [(0, b), (b, 2 * b)],
        2 * b + 1: [(0, b), (b, 2 * b + 1)],
    }
    for size, blocks in want.items():
        assert [(s.start, s.stop) for s in row_blocks(size, block)] == blocks, size


MIN_EIG_KINDS = ["state", "partial transpose", "traceless direction", "double minimum",
                 "diagonal", "zero"]


def _min_eig_stack(kind, n, field, rows, seed):
    """A (rows, n, n) stack of one kind of Hermitian matrix."""
    k = 2 if n % 2 == 0 and n >= 4 else 1
    shape = BipartiteShape(k, n // k, field)
    rng, gen = RngStream(seed), np.random.default_rng(seed)
    if kind == "state":
        return sample_state_hs(shape, rng, rows)
    if kind == "partial transpose":
        return partial_transpose(sample_state_hs(shape, rng, rows), shape)
    if kind == "traceless direction":
        return sample_direction(shape, rng, rows)
    if kind in ("diagonal", "zero"):
        out = np.zeros((rows, n, n))
        if kind == "diagonal":
            # small integers, so most diagonals repeat their minimum
            out[:, np.arange(n), np.arange(n)] = gen.integers(-3, 4, (rows, n))
        return out
    lam = np.sort(gen.uniform(-1.0, 1.0, (rows, n)), axis=1)
    lam[:, 1] = lam[:, 0]
    z = gen.standard_normal((rows, n, n))
    if field == "complex":
        z = z + 1j * gen.standard_normal((rows, n, n))
    q = np.linalg.qr(z)[0]
    return hermitian_part((q * lam[:, None, :]) @ np.conj(np.swapaxes(q, 1, 2)))


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(MIN_EIG_KINDS), n=st.integers(2, 8),
       field=st.sampled_from(["complex", "real"]),
       rows=st.sampled_from([0, 1, 37, COUNT_CHUNK - 1, COUNT_CHUNK + 1]),
       scale=st.sampled_from([1.0, 1e150, 1e-150]),
       seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_min_eigenvalues_match_eigvalsh(kind, n, field, rows, scale, seed):
    """The certified Newton minimum agrees with eigvalsh within 8 eps ||A||,
    ||A|| the entrywise 1-norm sum |a_ij|. Each route is only backward
    stable: against 40-digit eigenvalues of traceless complex rows, LAPACK
    erred by up to 4.5 and the Householder tridiagonal by up to 5 eps
    ||A||_F. So over 115,000 traceless rows (N = 2..8, both fields) the two
    differed by up to 9.5 eps ||A||_F, while over 790,000 rows of every kind
    below the difference stayed under 4.3 eps ||A||_1."""
    a = _min_eig_stack(kind, n, field, rows, seed) * scale
    (got,), fallbacks = _block_minima([np.moveaxis(a, 0, -1)])
    want = np.linalg.eigvalsh(a)[:, 0] if rows else np.zeros(0)
    assert got.shape == (rows,)
    norm = np.abs(a).sum(axis=(1, 2))
    assert np.all(np.abs(got - want) <= 8 * np.finfo(float).eps * norm)
    if kind in ("diagonal", "zero"):
        assert np.array_equal(got, want)
    if kind in ("state", "partial transpose", "traceless direction"):
        assert fallbacks == 0


def test_min_eigenvalues_across_newton_groups():
    """A block five rows longer than a Newton group: the last group is one
    short piece. One row longer, the lone last row joins the group before
    it, one row wider than the rest."""
    for extra in (5, 1):
        a = _min_eig_stack("state", 4, "complex", hermitian.NEWTON_ROWS + extra, 4501)
        (got,), fallbacks = _block_minima([np.moveaxis(a, 0, -1)])
        assert fallbacks == 0
        assert np.max(np.abs(got - np.linalg.eigvalsh(a)[:, 0])) < 1e-14


@pytest.mark.parametrize("shape", [BipartiteShape(2, 3), BipartiteShape(2, 4, "real")],
                         ids=str)
def test_a_row_alone_matches_its_row_in_the_stack(shape):
    """A one-row block rounds as every other row does, bit for bit. numpy
    adds a reduction over a one-row batch pairwise, which on these shapes
    moves most rows' minima by a few ulps unless the kernels sum in order."""
    states = sample_state_hs(shape, RngStream(4503), 64)
    xs = _column([0.0, 0.01, 0.05])
    lam, _ = _block_minima([np.moveaxis(states, 0, -1)])
    counts = _count_block(np.moveaxis(states, 0, -1), xs)
    for i in range(len(states)):
        row = np.moveaxis(states[i:i + 1], 0, -1)
        assert _block_minima([row])[0].tobytes() == lam[:, i:i + 1].tobytes()
        assert np.array_equal(_count_block(row, xs), counts[:, i:i + 1])


def test_min_eigenvalues_fall_back_to_eigvalsh(monkeypatch):
    """With no Newton sweep no row stops, so every row goes to eigvalsh and
    the result is its minimum bit for bit."""
    monkeypatch.setattr(hermitian, "NEWTON_SWEEPS", 0)
    for kind in MIN_EIG_KINDS:
        a = _min_eig_stack(kind, 6, "complex", COUNT_CHUNK + 1, 4502)
        (got,), fallbacks = _block_minima([np.moveaxis(a, 0, -1)])
        assert fallbacks == len(a)
        assert got.tobytes() == np.linalg.eigvalsh(a)[:, 0].tobytes()


def _joined(parts: list, like: np.ndarray, axis: int = 0) -> np.ndarray:
    """The per-block results ``parts`` joined along ``axis``; ``like`` with
    no rows when there is no block."""
    return np.concatenate(parts, axis=axis) if parts else like


def _same_bytes(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


KERNEL_SIZES = [0, 1, COUNT_CHUNK - 1, COUNT_CHUNK, COUNT_CHUNK + 1, 5000]


@pytest.mark.parametrize("sweeps", [hermitian.NEWTON_SWEEPS, 0], ids=["newton", "eigvalsh"])
@pytest.mark.parametrize("shape", [BipartiteShape(2, m, f) for m in (2, 3)
                                   for f in ("complex", "real")], ids=str)
def test_block_kernels_match_the_stack_kernels(monkeypatch, shape, sweeps):
    """On the samplers' batch-last blocks, the per-block kernels the sweeps
    stream through give what they give on the assembled stack as one block,
    byte for byte: the PPT mask, the eigen counts of the partial transposes
    (against those of the explicitly transposed stack) and lambda_min of
    both constraints, on every block and on each block's PPT rows, the
    inner law's groups. With no Newton sweep every minimum comes from
    eigvalsh. The blocks are the stacks' rows, one per row_blocks slice."""
    monkeypatch.setattr(hermitian, "NEWTON_SWEEPS", sweeps)
    xs = np.array([1e-1, 1e-3, -1e-3, -1e-1])[:, None]
    for size in KERNEL_SIZES:
        rng = RngStream(4850 + size, shape.n)
        draws = [(sampling.state_blocks(shape, rng, size), sample_state_hs(shape, rng, size)),
                 (sampling.boundary_blocks(shape, rng, size),
                  sample_boundary_state_hs(shape, rng, size))]
        for blocks, stack in draws:
            blocks = list(blocks)
            assert [b.shape[-1] for b in blocks] == [r.stop - r.start for r in row_blocks(size)]
            assert _same_bytes(_joined([np.moveaxis(b, -1, 0) for b in blocks], stack), stack)
            mask = _ppt_block(np.moveaxis(stack, 0, -1), shape)
            assert _same_bytes(_joined([hermitian._ppt_block(b, shape) for b in blocks],
                                       mask), mask)
            counts = _count_block(np.moveaxis(partial_transpose(stack, shape), 0, -1), xs)
            assert _same_bytes(_joined([hermitian._count_block(b, xs, shape) for b in blocks],
                                       counts, axis=1), counts)
            for stream, rows in ((blocks, stack),
                                 ([b[..., hermitian._ppt_block(b, shape)] for b in blocks],
                                  stack[mask])):
                lam, fallbacks = hermitian._block_minima(iter(stream), (None, shape))
                want = [_block_minima([np.moveaxis(rows, 0, -1)]),
                        _block_minima([np.moveaxis(partial_transpose(rows, shape), 0, -1)])]
                assert _same_bytes(lam, np.concatenate([w[0] for w in want]))
                assert fallbacks == sum(w[1] for w in want) == (0 if sweeps else 2 * len(rows))


@pytest.mark.parametrize("shape", [BipartiteShape(2, 2), BipartiteShape(2, 3),
                                   BipartiteShape(2, 3, "real")], ids=str)
def test_gathered_group_minima_equal_the_per_piece_minima(shape):
    """On a PPT sweep a Newton group holds each block's few kept rows as a
    piece of its own. The pieces are gathered into copies of at most
    COUNT_CHUNK rows before the tridiagonal reduction; the minima of both
    constraints equal those of each piece reduced alone, bit for bit, on
    groups that take one copy (2x3 complex) and several (2x2 complex, 2x3
    real), with pieces of one row among them."""
    blocks = list(sampling.state_blocks(shape, RngStream(4860), 8 * COUNT_CHUNK))
    pieces = [b[..., hermitian._ppt_block(b, shape)] for b in blocks]
    pieces[1:1] = [blocks[0][..., :1], blocks[1][..., 5:6]]
    lam, fallbacks = hermitian._group_minima(pieces, (None, shape))
    alone = [hermitian._group_minima([piece], (None, shape)) for piece in pieces]
    assert _same_bytes(lam, np.concatenate([got for got, _ in alone], axis=1))
    assert fallbacks == sum(f for _, f in alone) == 0
    assert (lam.shape[1] > COUNT_CHUNK) == (shape != BipartiteShape(2, 3))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_min_eigenvalues_reject_non_finite_entries(bad):
    h = np.stack([random_hermitian(6, s) for s in range(5)])
    h[3, 4, 1] = bad
    with pytest.raises(np.linalg.LinAlgError, match="non-finite"):
        _block_minima([np.moveaxis(h, 0, -1)])


# ---------------------------------------------------------------------------
# closed-form boundary spectra


@pytest.mark.parametrize("field", ["complex", "real"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_spectrum_block_matches_eigvalsh_on_production_states(n, field):
    """On 10^5 production boundary states the power-sum spectra lie within
    1e-11 of LAPACK's nonzero eigenvalues (the worst seen: 1.9e-13 at N =
    4 real), block by block."""
    shape, rng, size = BipartiteShape(1, n, field), RngStream(4800 + n), 100_000
    got = np.concatenate([hermitian._spectrum_block(b)
                          for b in sampling.boundary_blocks(shape, rng, size)])
    states = sample_boundary_state_hs(shape, rng, size)
    assert got.shape == (size, n - 1)
    assert np.max(np.abs(got - np.linalg.eigvalsh(states)[:, 1:])) <= 1e-11


def _unitaries(rng, size, n, field):
    g = rng.standard_normal((size, n, n))
    if field == "complex":
        g = g + 1j * rng.standard_normal((size, n, n))
    return np.linalg.qr(g)[0]


def _degenerate_cases(field, size=2048):
    """(N, batch-last block, exact nonzero spectrum) for trace-one rank-(N-1)
    states with a repeated nonzero eigenvalue: P / (N - 1) for
    P = I - psi psi^dag, the root of multiplicity N - 1, and at N = 4
    U diag(0, a, a, 1 - 2a) U^dag with a double root below or above the
    third."""
    rng = np.random.default_rng(4900)
    for n in (2, 3, 4):
        psi = _unitaries(rng, size, n, field)[:, :, 0]
        p = np.eye(n) - psi[:, :, None] * np.conj(psi)[:, None, :]
        yield n, hermitian_part(p) / (n - 1), np.full(n - 1, 1.0 / (n - 1))
    for spectrum in ([0.2, 0.2, 0.6], [0.1, 0.45, 0.45]):
        u = _unitaries(rng, size, 4, field)
        rho = (u * np.array([0.0, *spectrum])) @ np.conj(np.swapaxes(u, -1, -2))
        yield 4, hermitian_part(rho), np.array(spectrum)


@pytest.mark.parametrize("field", ["complex", "real"])
def test_spectrum_block_at_repeated_roots(field):
    """At a double or triple nonzero root the closed form stays sorted,
    sums to one and lies within 1e-7 of the exact roots: a repeated root
    costs about sqrt(eps), not more."""
    for n, states, exact in _degenerate_cases(field):
        got = hermitian._spectrum_block(np.ascontiguousarray(np.moveaxis(states, 0, -1)))
        assert got.shape == (len(states), n - 1)
        assert np.all(np.diff(got, axis=1) >= 0), n
        assert np.max(np.abs(got.sum(axis=1) - 1.0)) <= 1e-12, n
        assert np.max(np.abs(got - exact)) <= 1e-7, (n, exact)

