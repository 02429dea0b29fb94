"""Samplers: streams, interior/boundary measures, directions."""

import math
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import integrate, stats

from statebody import (
    BipartiteShape,
    BodySpec,
    RngStream,
    TangentBody,
    boundary_eigenvalues_laguerre,
    boundary_eigenvalues_wishart,
    corner_probe,
    cross_validate_area,
    cube_generators,
    estimate_omega,
    inner_law,
    inscribed_radius,
    mc_gamma,
    mc_volume,
    radius_law,
    sample_boundary_state_hs,
    sample_direction,
    sample_state_hs,
    sphere_area,
)
from statebody import sampling, validation
from statebody.hermitian import COUNT_CHUNK
from statebody.validation import boundary_lmax_cdf_n3

ZERO_EIG_TOL = 1e-12
KS_P_MIN = 1e-3


# ---------------------------------------------------------------------------
# streams


def test_stream_describe():
    assert RngStream(7).describe() == "philox4x64:7:0"
    assert RngStream(7, stream=3).describe() == "philox4x64:7:3"


def test_same_seed_same_bits():
    a = RngStream(123).generator().standard_normal(64)
    b = RngStream(123).generator().standard_normal(64)
    assert np.array_equal(a, b)


def test_children_are_distinct_and_reproducible():
    root = RngStream(99)
    draws = [root.child(i).generator().standard_normal(8) for i in range(100)]
    again = [root.child(i).generator().standard_normal(8) for i in range(100)]
    for d, e in zip(draws, again):
        assert np.array_equal(d, e)
    flat = np.array(draws)
    # no two child streams may collide
    assert len({tuple(row) for row in flat}) == 100


def test_child_differs_from_parent():
    root = RngStream(5)
    a = root.generator().standard_normal(16)
    b = root.child(0).generator().standard_normal(16)
    assert not np.allclose(a, b)


def test_stream_is_frozen():
    with pytest.raises(AttributeError):
        RngStream(1).seed = 2


def test_seed_outside_64_bits_is_rejected():
    # the seed is one 64-bit word of the Philox key: -1 and 5 + 2^64 would
    # alias 2^64 - 1 and 5
    for bad in (-1, 2**64, 5 + 2**64, np.int64(-1)):
        with pytest.raises(ValueError, match="seed"):
            RngStream(bad)
    assert RngStream(2**64 - 1).generator().standard_normal(8).shape == (8,)
    # so is the stream id: -1 and 3 + 2^64 would alias 2^64 - 1 and 3 under
    # another describe() string
    for bad in (-1, 2**64, 2**64 + 3):
        with pytest.raises(ValueError, match="stream"):
            RngStream(5, stream=bad)
    assert RngStream(5, stream=2**64 - 1).generator().standard_normal(8).shape == (8,)
    # and so is a child index: -1 and 2^64 would alias the children 2^64 - 1
    # and 0, two sub-tasks drawing one stream
    for bad in (-1, 2**64, 2**64 + 3):
        with pytest.raises(ValueError, match="index"):
            RngStream(1).child(bad)
    assert RngStream(1).child(2**64 - 1) != RngStream(1).child(0)
    assert RngStream(1).child(np.uint64(3)) == RngStream(1).child(3)
    # numpy integers pass the range check and draw their Python value's bits
    for seed in (np.int64(5), np.uint64(5)):
        assert np.array_equal(RngStream(seed).child(3).generator().standard_normal(8),
                              RngStream(5).child(3).generator().standard_normal(8))


# ---------------------------------------------------------------------------
# interior states


@pytest.mark.parametrize("field", ["complex", "real"])
def test_interior_states_are_density_matrices(field):
    shape = BipartiteShape(1, 3, field)
    stack = sample_state_hs(shape, RngStream(2), size=200)
    assert stack.shape == (200, 3, 3)
    assert np.allclose(np.trace(stack, axis1=-2, axis2=-1), 1.0, atol=1e-12)
    eigs = np.linalg.eigvalsh(stack)
    assert eigs.min() > -1e-12


def test_interior_pinned_sample():
    # frozen regression anchor for the counter-based stream layout
    rho = sample_state_hs(BipartiteShape(1, 3), RngStream(5), size=1)[0]
    assert np.diag(rho).real == pytest.approx(
        [0.19790234261912282, 0.4777206652342636, 0.3243769921466136], abs=1e-15
    )


def purity_tail_oracle(field: str) -> float:
    """P(Tr rho^2 > 3/4) for one qubit by quadrature over the eigenvalue law.

    The flat-measure eigenvalue density on [0, 1] is 3(2l-1)^2 in the complex
    case and 2|2l-1| in the real case; purity exceeds 3/4 iff |2l-1| > 1/sqrt2.
    """
    if field == "complex":
        dens = lambda l: 3 * (2 * l - 1) ** 2
    else:
        dens = lambda l: 2 * abs(2 * l - 1)
    hi = (1 + 1 / math.sqrt(2.0)) / 2
    val, err = integrate.quad(dens, hi, 1.0)
    assert err < 1e-12
    return 2 * val


def test_purity_tail_oracle_closed_forms():
    assert purity_tail_oracle("complex") == pytest.approx(1 - 2**-1.5, abs=1e-12)
    assert purity_tail_oracle("real") == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("field", ["complex", "real"])
def test_qubit_purity_tail(field):
    shape = BipartiteShape(1, 2, field)
    stack = sample_state_hs(shape, RngStream(31), size=40000)
    pur = np.einsum("sij,sji->s", stack, stack).real
    frac = np.mean(pur > 0.75)
    p = purity_tail_oracle(field)
    sd = math.sqrt(p * (1 - p) / 40000)
    assert abs(frac - p) < 4 * sd, f"{field}: {frac} vs {p} (sd {sd:.2g})"


# ---------------------------------------------------------------------------
# boundary states


@pytest.mark.parametrize("field", ["complex", "real"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_boundary_eigenvalue_rows(field, n):
    lam = boundary_eigenvalues_wishart(n, field, RngStream(41), 300)
    assert lam.shape == (300, n - 1)
    assert np.all(np.diff(lam, axis=1) >= 0)
    assert np.allclose(lam.sum(axis=1), 1.0, atol=1e-12)
    assert lam.min() > 0


def test_boundary_eigenvalues_qubit_degenerate_case():
    lam = boundary_eigenvalues_laguerre(2, "complex", RngStream(1), 10)
    assert np.array_equal(lam, np.ones((10, 1)))


class _NoDraws:
    """A stream stand-in that fails the test if anything draws from it."""

    def generator(self):
        raise AssertionError("drew from the stream")


# The ids below that say "metropolis" are kept from the Metropolis chain that
# boundary_eigenvalues_laguerre replaced, so the tests keep their names; each
# now checks the Laguerre oracle, which also runs no chain.


@pytest.mark.parametrize("n", [2, 4])
def test_metropolis_empty_size_runs_no_chain(n):
    lam = boundary_eigenvalues_laguerre(n, "complex", _NoDraws(), 0)
    assert lam.shape == (0, n - 1)


@pytest.mark.parametrize("n", [2, 4])
def test_metropolis_negative_size_is_rejected_before_any_draw(n):
    with pytest.raises(ValueError, match="size"):
        boundary_eigenvalues_laguerre(n, "real", _NoDraws(), -1)


_QUTRIT = BipartiteShape(1, 3)
SIZE_SITES = {
    "state": lambda rng, size: sample_state_hs(_QUTRIT, rng, size),
    "boundary": lambda rng, size: sample_boundary_state_hs(_QUTRIT, rng, size),
    "direction": lambda rng, size: sample_direction(_QUTRIT, rng, size),
    "wishart": lambda rng, size: boundary_eigenvalues_wishart(3, "real", rng, size),
    "metropolis": lambda rng, size: boundary_eigenvalues_laguerre(3, "real", rng, size),
}


@pytest.mark.parametrize("sampler", SIZE_SITES.values(), ids=SIZE_SITES.keys())
def test_negative_size_is_rejected_by_name(sampler):
    with pytest.raises(ValueError, match="size must be >= 0"):
        sampler(_NoDraws(), -1)


_MAX64 = 2**64 - 1
_QUBITS = BipartiteShape(2, 2)
_FULL = BodySpec("full", BipartiteShape(1, 2))
_CUBE = TangentBody(cube_generators(3))

# every count, seed and index: (argument name, call with the value, lowest
# and highest valid value, a valid value the call runs with)
INTEGER_SITES = {
    "shape k": ("k", lambda v: BipartiteShape(v, 2), 1, None, 2),
    "shape m": ("m", lambda v: BipartiteShape(1, v), 2, None, 3),
    "seed": ("seed", RngStream, 0, _MAX64, 5),
    "stream": ("stream", lambda v: RngStream(5, v), 0, _MAX64, 3),
    "child": ("index", lambda v: RngStream(1).child(v), 0, _MAX64, 3),
    **{f"size {name}": ("size", lambda v, f=f: f(RngStream(1), v), 0, None, 2)
       for name, f in SIZE_SITES.items()},
    "laguerre n": ("n", lambda v: boundary_eigenvalues_laguerre(v, "real", RngStream(1), 2),
                   2, None, 3),
    "inscribed_radius": ("n", inscribed_radius, 2, None, 3),
    "sphere_area": ("d", sphere_area, 1, None, 3),
    "mc_volume": ("n", lambda v: mc_volume(_FULL, v, RngStream(1)), 2, None, 4),
    "mc_gamma": ("n", lambda v: mc_gamma(_CUBE, v, RngStream(1)), 2, None, 4),
    "radius_law": ("n", lambda v: radius_law(_FULL, v, RngStream(1)), 2, None, 4),
    "inner_law": ("n", lambda v: inner_law(_FULL, v, RngStream(1)), 2, None, 20),
    "estimate_omega": ("n", lambda v: estimate_omega(_QUBITS, v, RngStream(1)),
                       2, None, 50),
    "corner_probe": ("n", lambda v: corner_probe(_QUBITS, v, [0.1, 0.01], RngStream(1)),
                     2, None, 4),
    "cross_validate_area": ("n", lambda v: cross_validate_area(_QUBITS, v, RngStream(1)),
                            2, None, 50),
    "shards": ("shards", lambda v: mc_volume(_FULL, 4, RngStream(1), shards=v),
               1, None, 2),
}


def _same(a, b) -> bool:
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


@pytest.mark.parametrize("site", INTEGER_SITES.values(), ids=INTEGER_SITES.keys())
def test_one_integer_rule(site):
    """A bool, a non-integer and a value out of range raise ValueError naming
    the argument; a numpy integer acts as its Python value."""
    name, call, low, high, good = site
    bad = [True, False, np.True_, 1.5, 2.0, "2", low - 1]
    for value in bad + ([] if high is None else [high + 1]):
        with pytest.raises(ValueError, match=rf"^{name} must be "):
            call(value)
    assert _same(call(np.int64(good)), call(good))


@pytest.mark.parametrize("field", ["complex", "real"])
@pytest.mark.parametrize("n", [3, 4])
def test_wishart_matches_metropolis(field, n):
    """Two independent routes to the boundary eigenvalue law must agree."""
    size = 4000
    lam_w = boundary_eigenvalues_wishart(n, field, RngStream(51), size)
    lam_m = boundary_eigenvalues_laguerre(n, field, RngStream(52), size)
    for col in range(n - 1):
        ks = stats.ks_2samp(lam_w[:, col], lam_m[:, col])
        assert ks.pvalue > KS_P_MIN, f"{field} n={n} col={col}: p={ks.pvalue:.3g}"


@pytest.mark.parametrize("field", ["complex", "real"])
@pytest.mark.parametrize("n", [3, 4])
def test_laguerre_reruns_are_byte_identical(field, n):
    a = boundary_eigenvalues_laguerre(n, field, RngStream(55), 300)
    b = boundary_eigenvalues_laguerre(n, field, RngStream(55), 300)
    assert a.shape == (300, n - 1)
    assert np.array_equal(a, b)
    assert np.all(np.diff(a, axis=1) >= 0)
    assert np.allclose(a.sum(axis=1), 1.0, atol=1e-12)
    assert a.min() > 0
    assert not np.array_equal(a, boundary_eigenvalues_laguerre(n, field, RngStream(56), 300))


@pytest.mark.parametrize("field", ["complex", "real"])
def test_laguerre_lmax_matches_exact_law_n3(field):
    """At N = 3 the largest eigenvalue has a closed-form law."""
    lam = boundary_eigenvalues_laguerre(3, field, RngStream(57), 4000)
    ks = stats.kstest(2.0 * lam[:, -1] - 1.0, lambda u: boundary_lmax_cdf_n3(u, field))
    assert ks.pvalue > KS_P_MIN, f"{field}: p={ks.pvalue:.3g}"


def _short_gram_eigenvalues(n, field, rng, size):
    """Nonzero boundary spectra from the production Gram kernel with one
    column too few."""
    cols = n if field == "complex" else n + 1
    return np.linalg.eigvalsh(sampling._gram_stack(rng.generator(), field, size, n - 1, cols))


@pytest.mark.parametrize("field", ["complex", "real"])
@pytest.mark.parametrize("n", [3, 4])
def test_short_gram_fails_against_laguerre(field, n):
    """The oracle comparison has power: a wrong column count is caught."""
    size = 4000
    lam_s = _short_gram_eigenvalues(n, field, RngStream(54), size)
    lam_m = boundary_eigenvalues_laguerre(n, field, RngStream(52), size)
    p = min(stats.ks_2samp(lam_s[:, col], lam_m[:, col]).pvalue for col in range(n - 1))
    assert p < 1e-12, f"{field} n={n}: p={p:.3g}"


@pytest.mark.parametrize("field", ["complex", "real"])
def test_battery_fails_a_short_gram(field, monkeypatch):
    """Both N = 3 tests of the battery reject a wrong boundary sampler."""
    monkeypatch.setattr(validation, "boundary_eigenvalues_wishart", _short_gram_eigenvalues)
    checks = validation.sampler_validation(field, 4000, RngStream(58))
    assert not checks["boundary_lmax_ks_n3"]["passed"]
    assert not checks["boundary_lmax_exact_ks_n3"]["passed"]
    assert not checks["boundary_joint_chi2_n4"]["passed"]
    assert not checks["all_passed"]


@pytest.mark.parametrize("field", ["complex", "real"])
def test_battery_spectrum_is_the_production_spectrum(field):
    """The oracle is compared with the spectra production draws."""
    lam = boundary_eigenvalues_wishart(4, field, RngStream(43), 50)
    states, _ = sample_boundary_state_hs(BipartiteShape(1, 4, field), RngStream(43), 50)
    assert np.array_equal(lam, np.linalg.eigvalsh(states)[:, 1:])


@pytest.mark.parametrize("field", ["complex", "real"])
def test_boundary_states_sit_on_the_boundary(field):
    shape = BipartiteShape(1, 4, field)
    states, psi = sample_boundary_state_hs(shape, RngStream(61), size=300)
    assert states.shape == (300, 4, 4)
    assert np.allclose(np.trace(states, axis1=-2, axis2=-1), 1.0, atol=1e-12)
    eigs = np.linalg.eigvalsh(states)
    assert np.max(np.abs(eigs[:, 0])) < ZERO_EIG_TOL
    assert eigs[:, 1].min() > 0
    # psi spans the kernel
    rp = np.einsum("sij,sj->si", states, psi)
    assert np.max(np.abs(rp)) < 1e-10
    assert np.allclose(np.sum(np.abs(psi) ** 2, axis=1), 1.0, atol=1e-12)


def test_boundary_pinned_sample():
    states, _ = sample_boundary_state_hs(BipartiteShape(1, 3), RngStream(5), size=2)
    eigs = np.linalg.eigvalsh(states[0])
    assert eigs == pytest.approx(
        [0.0, 0.37877330275764615, 0.6212266972423541], abs=1e-13
    )


def test_boundary_determinism():
    a, pa = sample_boundary_state_hs(BipartiteShape(2, 2), RngStream(3), size=50)
    b, pb = sample_boundary_state_hs(BipartiteShape(2, 2), RngStream(3), size=50)
    assert np.array_equal(a, b)
    assert np.array_equal(pa, pb)


# ---------------------------------------------------------------------------
# directions


@pytest.mark.parametrize("field", ["complex", "real"])
def test_directions_live_on_the_traceless_sphere(field):
    shape = BipartiteShape(2, 2, field)
    stack = sample_direction(shape, RngStream(71), size=500)
    assert np.allclose(np.trace(stack, axis1=-2, axis2=-1), 0.0, atol=1e-12)
    norms = np.sqrt(np.sum(np.abs(stack) ** 2, axis=(-2, -1)))
    assert np.allclose(norms, 1.0, atol=1e-12)
    assert np.allclose(stack, np.conj(np.swapaxes(stack, -1, -2)), atol=1e-12)


@pytest.mark.parametrize("field", ["complex", "real"])
def test_direction_isotropy(field):
    """Projections on any fixed axis of the sphere have variance 1/D."""
    shape = BipartiteShape(1, 3, field)
    d = shape.dim_body
    stack = sample_direction(shape, RngStream(81), size=20000)
    probes = [np.diag([1.0, -1.0, 0.0]) / np.sqrt(2.0)]
    off = np.zeros((3, 3), dtype=complex)
    off[0, 1] = off[1, 0] = 1 / np.sqrt(2.0)
    probes.append(off)
    for b in probes:
        proj = np.einsum("sij,ji->s", stack, np.conj(b).T).real
        assert abs(proj.mean()) < 6 / math.sqrt(d * 20000)
        assert abs(proj.var() - 1 / d) < 6 * (1 / d) * math.sqrt(2 / 20000)


def test_direction_pinned_sample():
    om = sample_direction(BipartiteShape(2, 2), RngStream(9), size=1)[0]
    assert om[0, 0] == pytest.approx(0.07555542490312417 + 0j, abs=1e-15)


# ---------------------------------------------------------------------------
# blocked draws
#
# Each sampler draws its Gaussian parts whole and runs every later step in
# row blocks of COUNT_CHUNK. The full-stack formulas below run the same
# kernels on the whole stack as one batch-last block (the direction one is
# the batch-first formula as it was before blocking); the blocked samplers
# must match them bit for bit.


def _one_block(gen, field, size, n, cols, psi=None):
    """The Gram kernel on a whole (size, n, cols) Ginibre draw as one block,
    projected off ``psi`` when given."""
    parts = [gen.standard_normal((size, n, cols)) for _ in range(1 + (field == "complex"))]
    # in C order, as the samplers' block buffers are: the sums of a
    # contraction follow the layout of its operands
    x = np.ascontiguousarray(np.concatenate([np.moveaxis(part, 0, -1) for part in parts], axis=1))
    if psi is not None:
        sampling._project(x, psi)
    out = np.empty((n, n, size), dtype=complex if field == "complex" else float)
    sampling._gram(x, out)
    return np.moveaxis(out, -1, 0)


def _full_stack_state(shape, rng, size):
    n = shape.n
    cols = n if shape.field == "complex" else n + 1
    return _one_block(rng.generator(), shape.field, size, n, cols)


def _full_stack_boundary(shape, rng, size):
    n = shape.n
    cols = n + 1 if shape.field == "complex" else n + 2
    psi = sampling._ginibre(rng.child(1).generator(), (size, n), shape.field)
    psi = psi / np.linalg.norm(psi, axis=-1, keepdims=True)
    return _one_block(rng.child(0).generator(), shape.field, size, n, cols, psi), psi


def _full_stack_direction(shape, rng, size):
    n = shape.n
    g = sampling._ginibre(rng.generator(), (size, n, n), shape.field)
    h = 0.5 * (g + np.conj(np.swapaxes(g, -1, -2)))
    tr = np.trace(h, axis1=-2, axis2=-1).real
    h = h - (tr / n)[:, None, None] * np.eye(n, dtype=h.dtype)
    nrm = np.sqrt(np.sum(np.abs(h) ** 2, axis=(-2, -1)))
    return h / nrm[:, None, None]


def _same_bytes(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


BLOCK_SIZES = [0, 1, COUNT_CHUNK - 1, COUNT_CHUNK, COUNT_CHUNK + 1, 5000]
BLOCK_SHAPES = [BipartiteShape(k, m, field) for k, m in ((1, 2), (2, 2), (2, 3), (3, 3))
                for field in ("complex", "real")]


@pytest.mark.parametrize("shape", BLOCK_SHAPES, ids=str)
def test_blocked_samplers_match_full_stack_formulas(shape):
    """Stacks shorter than, equal to and longer than one block, with a last
    block of one row, equal the full-stack formulas byte for byte."""
    for size in BLOCK_SIZES:
        rng = RngStream(4500 + size, shape.n)
        assert _same_bytes(sample_state_hs(shape, rng, size),
                           _full_stack_state(shape, rng, size))
        states, psi = sample_boundary_state_hs(shape, rng, size)
        want_states, want_psi = _full_stack_boundary(shape, rng, size)
        assert _same_bytes(states, want_states)
        assert _same_bytes(psi, want_psi)
        assert _same_bytes(sample_direction(shape, rng, size),
                           _full_stack_direction(shape, rng, size))


def _matmul_states(shape, rng, size):
    """Interior and boundary states by the batch-first matmul formulas, on
    the samplers' draws."""
    n = shape.n
    cols = n if shape.field == "complex" else n + 1
    g = sampling._ginibre(rng.generator(), (size, n, cols), shape.field)
    g_b = sampling._ginibre(rng.child(0).generator(), (size, n, cols + 1), shape.field)
    psi = sampling._ginibre(rng.child(1).generator(), (size, n), shape.field)
    psi = psi / np.linalg.norm(psi, axis=-1, keepdims=True)
    g_b = g_b - psi[:, :, None] * (np.conj(psi)[:, None, :] @ g_b)
    for h in (g, g_b):
        w = h @ np.conj(np.swapaxes(h, -1, -2))
        yield w / np.trace(w, axis1=-2, axis2=-1).real[:, None, None]


@pytest.mark.parametrize("field", ["complex", "real"])
@pytest.mark.parametrize("k,m", [(1, 2), (1, 3), (2, 2), (2, 3), (3, 3)])
def test_gram_states_are_hermitian_by_construction(k, m, field):
    """What the samplers guarantee without a Hermitian-part pass, also for a
    lone last row: every state equals its conjugate transpose bit for bit,
    its trace is one within 4 N eps, and a boundary state annihilates its
    psi. Their sums run in another order than a matmul's, so they agree with
    the matmul formulas to a few eps, not bit for bit."""
    shape = BipartiteShape(k, m, field)
    eps = np.finfo(float).eps
    for size in (1, 2, COUNT_CHUNK + 1):
        rng = RngStream(4700 + size, shape.n)
        boundary, psi = sample_boundary_state_hs(shape, rng, size)
        interior = sample_state_hs(shape, rng, size)
        for states, want in zip((interior, boundary), _matmul_states(shape, rng, size)):
            assert np.array_equal(states, np.conj(np.swapaxes(states, -1, -2)))
            tr = np.trace(states, axis1=-2, axis2=-1)
            assert np.max(np.abs(tr - 1.0)) <= 4 * shape.n * eps
            assert np.max(np.abs(states - want)) <= 8 * eps
        assert np.max(np.abs(np.einsum("sij,sj->si", boundary, psi))) <= 1e-14


# tracemalloc peak of one call over the bytes it returns, 2x3 complex. The
# Gaussian parts (as many bytes as the complex output) and the output are
# whole; everything else is per block. Measured: interior 2.27 (batch-first
# blocks: 2.40, full-stack samplers: 3.04), boundary 2.25 (2.36, 3.14),
# direction 2.07 (2.10, 4.03).
PEAK_CASES = [
    ("interior", lambda shape, rng, n: (sample_state_hs(shape, rng, n),), 16_384, 2.7),
    ("boundary", lambda shape, rng, n: sample_boundary_state_hs(shape, rng, n), 16_384, 2.75),
    ("direction", lambda shape, rng, n: (sample_direction(shape, rng, n),), 65_536, 3.0),
]


@pytest.mark.parametrize("draw,size,bound", [case[1:] for case in PEAK_CASES],
                         ids=[case[0] for case in PEAK_CASES])
def test_sampler_peak_memory_is_output_plus_blocks(draw, size, bound):
    shape = BipartiteShape(2, 3)
    draw(shape, RngStream(4600), 8)
    tracemalloc.start()
    try:
        out = draw(shape, RngStream(4601), size)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    ratio = peak / sum(a.nbytes for a in out)
    assert ratio < bound, f"peak {peak / 2**20:.1f} MiB is {ratio:.2f}x the output"


# ---------------------------------------------------------------------------
# the fill thread: a helper draws the Gaussian parts, the caller does the rest

SAMPLERS = (sample_state_hs, sample_boundary_state_hs, sample_direction)


def _modules_off_the_calling_thread(run) -> list:
    """The module of every Python frame that ran, while ``run()`` ran, on a
    thread it started. A thread only gets the hook if it starts after it is
    set, as each sampler call's helper does."""
    caller = threading.get_ident()
    seen = []

    def hook(frame, event, arg):
        if threading.get_ident() != caller:
            seen.append(frame.f_globals.get("__name__", ""))

    threading.setprofile(hook)
    try:
        run()
    finally:
        threading.setprofile(None)
    return seen


def test_no_statebody_code_runs_off_the_calling_thread():
    """The perfbench tracer keeps one span stack, so every statebody frame
    must run on the caller's thread: the helper runs only the generator's
    fills. The hook sees the helper's own frames, so it did watch it."""
    shape = BipartiteShape(2, 2)

    def run():
        estimate_omega(shape, 5000, RngStream(4900))
        sample_direction(shape, RngStream(4901), 2 * COUNT_CHUNK + 1)

    modules = _modules_off_the_calling_thread(run)
    assert "concurrent.futures.thread" in modules
    assert not [m for m in modules if m.split(".")[0] == "statebody"]


@pytest.mark.parametrize("size", [0, 1, 2, COUNT_CHUNK + 1])
def test_samplers_leave_no_thread(size):
    baseline = threading.active_count()
    for shape in (BipartiteShape(2, 2), BipartiteShape(2, 2, "real")):
        for draw in SAMPLERS:
            draw(shape, RngStream(4910, size), size)
            assert threading.active_count() == baseline, f"{draw.__name__} {shape}"


class _FailingGenerator:
    """A generator whose second standard_normal call raises."""

    def __init__(self, gen):
        self.gen, self.calls = gen, 0

    def standard_normal(self, *args, **kwargs):
        self.calls += 1
        if self.calls == 2:
            raise FloatingPointError("fill 2 failed")
        return self.gen.standard_normal(*args, **kwargs)


@pytest.mark.parametrize("psi_rng", [None, RngStream(4921)], ids=["interior", "boundary"])
@pytest.mark.parametrize("field", ["complex", "real"])
def test_a_failing_fill_raises_and_leaves_no_thread(field, psi_rng):
    """The error of a fill reaches the caller, and the fills after it are
    cancelled or finished before the helper is joined."""
    baseline = threading.active_count()
    gen = _FailingGenerator(RngStream(4920).generator())
    with pytest.raises(FloatingPointError, match="fill 2 failed"):
        sampling._gram_stack(gen, field, 3 * COUNT_CHUNK, 4, 5, psi_rng)
    assert threading.active_count() == baseline


def test_concurrent_callers_get_the_bits_of_serial_calls():
    """Three Python threads, more than the cores of a small machine, sample
    their own streams at once with a short switch interval: each call's
    helper fills only its own parts, from its own generator."""
    shape = BipartiteShape(2, 3)
    size = 2 * COUNT_CHUNK + 5
    seeds = (4930, 4931, 4932)
    start = threading.Barrier(len(seeds))

    def draw_all(seed, wait=False):
        if wait:
            start.wait(timeout=60)
        rng = RngStream(seed)
        states, psi = sample_boundary_state_hs(shape, rng, size)
        return [sample_state_hs(shape, rng, size), states, psi,
                sample_direction(shape, rng, size)]

    serial = [draw_all(seed) for seed in seeds]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(len(seeds)) as pool:
            concurrent = list(pool.map(draw_all, seeds, [True] * len(seeds), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for got, want in zip(concurrent, serial):
        assert all(_same_bytes(a, b) for a, b in zip(got, want))
