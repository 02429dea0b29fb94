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
    partial_transpose,
    radius_law,
    sample_boundary_state_hs,
    sample_direction,
    sample_state_hs,
    sphere_area,
)
from statebody import geometry, hermitian, sampling, validation
from statebody.hermitian import COUNT_CHUNK
from statebody.validation import boundary_lmax_cdf_n3

from ginibre_reference import (ginibre, ginibre_boundary_sampler, ginibre_directions,
                               ginibre_gram_states, ginibre_sampler, scaled_directions)

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
    # frozen regression anchor for the counter-based stream layout of the
    # Bartlett draw: the diagonal gammas from child 0, the normals below them
    # from child 1
    rho = sample_state_hs(BipartiteShape(1, 3), RngStream(5), size=1)[0]
    assert np.diag(rho).real == pytest.approx(
        [0.29707867868903953, 0.2347527386071463, 0.4681685827038142], abs=1e-15
    )


def _law_statistics(states, shape, zeros=0) -> dict:
    """Per-state statistics for the law tests: rho_00 (a Bartlett diagonal
    that is off moves it), the smallest of the eigenvalues above the
    ``zeros`` zero ones, the largest, the purity and, for a bipartite shape,
    lambda_min of the partial transpose."""
    lam = np.linalg.eigvalsh(states)
    out = {"rho_00": states[:, 0, 0].real, "lambda_min": lam[:, zeros],
           "lambda_max": lam[:, -1], "purity": np.sum(lam ** 2, axis=1)}
    if shape.k > 1:
        out["lambda_min_pt"] = np.linalg.eigvalsh(partial_transpose(states, shape))[:, 0]
    return out


def _gamma_shape_off_by_one(which, boundary=False):
    """The Bartlett draw, or with ``boundary`` the projected one, with
    diagonal gamma shape ``which`` one too large."""
    def sample(shape, rng, size):
        shapes = sampling._bartlett_shapes(shape.n, shape.field, int(boundary)).astype(float)
        shapes[which] += 1
        blocks = sampling._bartlett_blocks(rng, shape.field, size, shapes, project=boundary)
        return sampling._stacked(blocks, size, shape.n, shape.field)
    return sample


@pytest.mark.parametrize("shape", [BipartiteShape(1, 3), BipartiteShape(2, 2, "real"),
                                   BipartiteShape(2, 3), BipartiteShape(2, 3, "real")],
                         ids=str)
def test_bartlett_states_follow_the_ginibre_gram_law(shape):
    """Two-sample KS tests of the production (Bartlett) draw against the
    Ginibre Gram matrices it replaced, on independent streams, pass; the same
    tests fail for the same draws with the first or the last gamma shape one
    too large."""
    size = 20_000
    want = _law_statistics(ginibre_sampler()(shape, RngStream(6000, 1), size), shape)

    def min_p(sample):
        got = _law_statistics(sample(shape, RngStream(6000, 0), size), shape)
        return min(stats.ks_2samp(got[key], want[key]).pvalue for key in want)

    assert min_p(sample_state_hs) > KS_P_MIN
    for which in (0, -1):
        assert min_p(_gamma_shape_off_by_one(which)) < 1e-12, which


@pytest.mark.parametrize("shape", [BipartiteShape(1, 3), BipartiteShape(2, 2, "real"),
                                   BipartiteShape(2, 3), BipartiteShape(2, 3, "real")],
                         ids=str)
def test_projected_bartlett_states_follow_the_ginibre_boundary_law(shape):
    """Two-sample KS tests of the production boundary draw (a projected
    Bartlett factor) against the projected Ginibre Gram matrices it
    replaced, on independent streams, pass, with the smallest nonzero
    eigenvalue in place of lambda_min; the same tests fail for the same
    draws with the first or the last gamma shape one too large."""
    size = 20_000
    want = _law_statistics(ginibre_boundary_sampler()(shape, RngStream(6100, 1), size),
                           shape, zeros=1)

    def min_p(sample):
        got = _law_statistics(sample(shape, RngStream(6100, 0), size), shape, zeros=1)
        return min(stats.ks_2samp(got[key], want[key]).pvalue for key in want)

    assert min_p(sample_boundary_state_hs) > KS_P_MIN
    for which in (0, -1):
        assert min_p(_gamma_shape_off_by_one(which, boundary=True)) < 1e-12, which


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
    "wishart n": ("n", lambda v: boundary_eigenvalues_wishart(v, "real", RngStream(1), 2),
                  2, 4, 3),
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


def _whole_laguerre(n, field, rng, size):
    """The beta-Laguerre oracle's spectra with every variate drawn in one
    call and every B B^T solved in one eigvalsh call."""
    m, beta = n - 1, 2 if field == "complex" else 1
    i = np.arange(m)
    dof = np.concatenate([2 * beta + 2 + beta * (m - 1) - beta * i, beta * i[:0:-1]])
    chi = np.sqrt(rng.generator().chisquare(dof, size=(size, 2 * m - 1)))
    b = np.zeros((size, m, m))
    b[:, i, i] = chi[:, :m]
    b[:, i[1:], i[:-1]] = chi[:, m:]
    lam = np.linalg.eigvalsh(b @ np.swapaxes(b, -1, -2))
    return lam / lam.sum(axis=1, keepdims=True)


@pytest.mark.parametrize("field", ["complex", "real"])
@pytest.mark.parametrize("n", [3, 4])
def test_laguerre_blocks_match_the_whole_draw(field, n):
    """Drawn and solved block by block from its one generator, the oracle
    gives the spectra of the whole-stack draw bit for bit."""
    for size in (1, 2, COUNT_CHUNK + 1, 5000):
        got = boundary_eigenvalues_laguerre(n, field, RngStream(53, size), size)
        want = _whole_laguerre(n, field, RngStream(53, size), size)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), size


@pytest.mark.parametrize("size", [2**15, 2**17])
def test_laguerre_oracle_holds_only_its_output(size):
    """The oracle holds one row block of variates and matrices at a time:
    at N = 4 complex its tracemalloc peak exceeds the bytes it returns by
    less than 1 MiB (drawn and solved whole, by 5.75 and 23.0 MiB)."""
    boundary_eigenvalues_laguerre(4, "complex", RngStream(59), 8)
    tracemalloc.start()
    try:
        lam = boundary_eigenvalues_laguerre(4, "complex", RngStream(59), size)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - lam.nbytes < 2**20, f"peak {peak / 2**20:.2f} MiB"


def _short_gram_eigenvalues(n, field, rng, size):
    """Nonzero boundary spectra from the production Gram kernel with one
    column too few."""
    cols = n if field == "complex" else n + 1
    return np.linalg.eigvalsh(ginibre_gram_states(rng.generator(), field, size, n - 1, cols))


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


def test_battery_holds_one_check_at_a_time():
    """Each check's arrays go once its verdict is in: at complex n = 2^15 the
    tracemalloc peak was 8.5 MiB with every check's samples kept to the end
    and 4.4 MiB without."""
    validation.sampler_validation("complex", 64, RngStream(59))
    tracemalloc.start()
    try:
        checks = validation.sampler_validation("complex", 2**15, RngStream(59))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert checks["all_passed"]
    assert peak <= 6 * 2**20, f"peak {peak / 2**20:.2f} MiB"


def _one_power_sum_wrong(n):
    """hermitian._power_sums with one sum wrong at N = n only: at N = 3, p2
    raised by 0.01, so 2 p2 reads 2 p2 + 0.02 (half that fault passed the
    battery at 4,000 samples, p = 0.32 complex and 0.019 real); at N = 4,
    p3 negated, which flips the sign of the p3 term of e3."""
    power_sums = hermitian._power_sums

    def wrong(block):
        p1, p2, p3 = power_sums(block)
        if len(block) != n:
            return p1, p2, p3
        return (p1, p2 + 0.01, p3) if n == 3 else (p1, p2, -p3)
    return wrong


@pytest.mark.parametrize("field", ["complex", "real"])
@pytest.mark.parametrize("n,check", [(3, "boundary_lmax_exact_ks_n3"),
                                     (4, "boundary_joint_chi2_n4")])
def test_battery_fails_a_wrong_power_sum(field, n, check, monkeypatch):
    """The closed-form spectra are covered: at N = 3 by the closed-form law
    of lambda_max, at N = 4 by the chi-square against the LAPACK oracle."""
    monkeypatch.setattr(hermitian, "_power_sums", _one_power_sum_wrong(n))
    checks = validation.sampler_validation(field, 4000, RngStream(58))
    assert not checks[check]["passed"], checks[check]
    assert not checks["all_passed"]


@pytest.mark.parametrize("field", ["complex", "real"])
def test_battery_spectrum_is_the_production_spectrum(field):
    """The oracle is compared with the spectra of the states production
    draws: the power-sum kernel on the boundary blocks of the same stream,
    bit for bit, which lie within 1e-12 of LAPACK's spectra of the
    boundary sampler's states."""
    shape, rng = BipartiteShape(1, 4, field), RngStream(43)
    lam = boundary_eigenvalues_wishart(4, field, rng, 50)
    blocks = sampling.boundary_blocks(shape, rng, 50)
    assert np.array_equal(lam, np.concatenate([hermitian._spectrum_block(b) for b in blocks]))
    states = sample_boundary_state_hs(shape, rng, 50)
    assert np.max(np.abs(lam - np.linalg.eigvalsh(states)[:, 1:])) <= 1e-12


def test_only_the_oracle_calls_lapack(monkeypatch):
    """Production spectra take no eigvalsh call; the beta-Laguerre oracle
    does, so the two share no eigen kernel."""
    def no_lapack(*args, **kwargs):
        raise AssertionError("eigvalsh called")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_lapack)
    for n in (2, 3, 4):
        assert boundary_eigenvalues_wishart(n, "complex", RngStream(44), 300).shape == (300, n - 1)
    with pytest.raises(AssertionError, match="eigvalsh called"):
        boundary_eigenvalues_laguerre(3, "complex", RngStream(44), 300)


@pytest.mark.parametrize("field", ["complex", "real"])
def test_boundary_states_sit_on_the_boundary(field):
    shape = BipartiteShape(1, 4, field)
    states = sample_boundary_state_hs(shape, RngStream(61), size=300)
    assert states.shape == (300, 4, 4)
    assert np.allclose(np.trace(states, axis1=-2, axis2=-1), 1.0, atol=1e-12)
    eigs = np.linalg.eigvalsh(states)
    assert np.max(np.abs(eigs[:, 0])) < ZERO_EIG_TOL
    assert eigs[:, 1].min() > 0


def test_boundary_pinned_sample():
    # frozen regression anchor for the stream layout of the projected
    # Bartlett draw: the gammas from child 0, the normals below the diagonal
    # from child 1 and psi from child 2
    states = sample_boundary_state_hs(BipartiteShape(1, 3), RngStream(5), size=2)
    assert states.shape == (2, 3, 3)
    eigs = np.linalg.eigvalsh(states[0])
    assert eigs == pytest.approx(
        [0.0, 0.3323276018356594, 0.6676723981643398], abs=1e-13
    )


def test_boundary_determinism():
    a = sample_boundary_state_hs(BipartiteShape(2, 2), RngStream(3), size=50)
    b = sample_boundary_state_hs(BipartiteShape(2, 2), RngStream(3), size=50)
    assert a.shape == (50, 4, 4)
    assert np.array_equal(a, b)


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
    # frozen regression anchor for the stream layout of the direction draw:
    # the diagonal normals, then the entries below the diagonal row by row,
    # a complex entry's real part before its imaginary part, all on rng
    om = sample_direction(BipartiteShape(2, 2), RngStream(9), size=1)[0]
    assert om[0, 0] == pytest.approx(0.004080495541517412 + 0j, abs=1e-15)
    assert om[1, 0] == pytest.approx(-0.2805160757413559 - 0.006800530135303184j, abs=1e-15)


@pytest.mark.parametrize("shape", [BipartiteShape(1, 3), BipartiteShape(2, 2, "real"),
                                   BipartiteShape(2, 3), BipartiteShape(2, 3, "real")],
                         ids=str)
def test_direction_blocks_are_a_block_source(shape):
    """The blocks of a draw are the rows of ``sample_direction``, one per
    row_blocks slice; the first s rows of a longer draw are the size-s draw,
    bit for bit, across a block edge and for a one-row draw; and every
    direction is exactly Hermitian, traceless and of unit norm to 1e-12."""
    rng, size = RngStream(6300), 2 * COUNT_CHUNK + 3
    blocks = list(sampling.direction_blocks(shape, rng, size))
    assert [b.shape[-1] for b in blocks] == [r.stop - r.start for r in
                                             hermitian.row_blocks(size)]
    longer = np.concatenate(blocks, axis=-1)
    assert _same_bytes(np.moveaxis(longer, -1, 0), sample_direction(shape, rng, size))
    for s in (1, 2, COUNT_CHUNK - 1, COUNT_CHUNK + 1):
        got = np.concatenate(list(sampling.direction_blocks(shape, rng, s)), axis=-1)
        assert _same_bytes(got, np.ascontiguousarray(longer[..., :s])), s
    om = np.moveaxis(longer, -1, 0)
    assert np.array_equal(om, np.conj(np.swapaxes(om, -1, -2)))
    assert np.max(np.abs(np.trace(om, axis1=-2, axis2=-1))) <= 1e-12
    assert np.max(np.abs(np.sqrt(np.sum(np.abs(om) ** 2, axis=(-2, -1))) - 1.0)) <= 1e-12


def _direction_statistics(omegas, shape) -> dict:
    """Per-direction statistics for the direction law tests: r(omega) of the
    full body and, for a bipartite shape, of the PPT body, omega_00 and
    Tr omega^3."""
    blocks = [np.moveaxis(omegas, 0, -1)]
    out = {"r_full": geometry._radial_batch(BodySpec("full", shape), blocks)[0],
           "omega_00": omegas[:, 0, 0].real,
           "tr_cube": np.einsum("sij,sjk,ski->s", omegas, omegas, omegas).real}
    if shape.k > 1:
        out["r_ppt"] = geometry._radial_batch(BodySpec("ppt", shape), blocks).min(axis=0)
    return out


@pytest.mark.parametrize("seed", [6200, 6201])
@pytest.mark.parametrize("shape", [BipartiteShape(1, 3), BipartiteShape(2, 2, "real"),
                                   BipartiteShape(2, 3), BipartiteShape(2, 3, "real")],
                         ids=str)
def test_directions_follow_the_ginibre_law(shape, seed):
    """Two-sample KS tests of the production directions (N(0, 1) diagonal,
    N(0, 1/2) parts off it) against the traceless Hermitian parts of
    Ginibre matrices they replaced, on independent streams, pass; the same
    tests fail for the same draws with the parts off the diagonal scaled by
    1 in place of sqrt(1/2). omega_00 catches that fault; r(omega) of the
    full body and Tr omega^3 depend on the spectrum alone and barely move
    (KS p 0.4 to 0.9 at this size)."""
    size = 20_000
    want = _direction_statistics(ginibre_directions(shape, RngStream(seed, 1), size), shape)

    def min_p(sample):
        got = _direction_statistics(sample(shape, RngStream(seed, 0), size), shape)
        return min(stats.ks_2samp(got[key], want[key]).pvalue for key in want)

    assert min_p(sample_direction) > KS_P_MIN
    assert min_p(scaled_directions(1.0)) < 1e-12


# ---------------------------------------------------------------------------
# blocked draws
#
# Each sampler fills every random part from a generator of its own, one row
# block of COUNT_CHUNK at a time. The full-stack formulas below draw each part
# whole, in one call on its own generator, and run the same kernels on the
# whole stack as one batch-last block (the direction one forms the stack
# batch-first); the blocked samplers must match them bit for bit.


def _batch_last_zeros(shape, size):
    """A zeroed (*shape, size) buffer in C order, as the samplers' block
    buffers are: the sums of a contraction follow the layout of its
    operands, and a one-row stack is a view of a two-row buffer, since
    einsum sums a contiguous run in another order."""
    return np.zeros((*shape, max(size, 2)))[..., :size]


def _bartlett_factors(shape, rng, size, extra=0):
    """The Bartlett factors L of a whole stack, for ``extra`` Ginibre
    columns more than the flat measure's, the gammas drawn in one call on
    child 0 and the normals in one call on child 1, as a batch-last
    (n, n, size) buffer, (n, 2n, size) with the imaginary parts after the
    real ones."""
    n, parts = shape.n, sampling._parts(shape.field)
    gam = rng.child(0).generator().standard_gamma(
        sampling._bartlett_shapes(n, shape.field, extra), size=(size, n))
    below = rng.child(1).generator().standard_normal((size, n * (n - 1) // 2, parts))
    x = _batch_last_zeros((n, parts * n), size)
    d = np.arange(n)
    x[d, d] = np.sqrt(2.0 * gam).T
    i, j = np.tril_indices(n, -1)
    for p in range(parts):
        x[i, j + p * n] = below[:, :, p].T
    return x


def _full_stack_state(shape, rng, size):
    out = np.empty((shape.n, shape.n, size), dtype=complex if shape.field == "complex" else float)
    sampling._gram(_bartlett_factors(shape, rng, size), out)
    return np.moveaxis(out, -1, 0)


def _boundary_psi(shape, rng, size):
    """The boundary draw's unit vectors psi, redrawn whole from child 2."""
    psi = ginibre(rng.child(2).generator(), (size, shape.n), shape.field)
    return psi / np.linalg.norm(psi, axis=-1, keepdims=True)


def _full_stack_boundary(shape, rng, size):
    """The Bartlett factors with one column more, psi drawn in one call on
    child 2, projected off psi as one block."""
    n = shape.n
    x = _bartlett_factors(shape, rng, size, extra=1)
    sampling._project(x, _boundary_psi(shape, rng, size))
    out = np.empty((n, n, size), dtype=complex if shape.field == "complex" else float)
    sampling._gram(x, out)
    return np.moveaxis(out, -1, 0)


_full_stack_direction = scaled_directions(np.sqrt(0.5))


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
        assert _same_bytes(sample_boundary_state_hs(shape, rng, size),
                           _full_stack_boundary(shape, rng, size))
        assert _same_bytes(sample_direction(shape, rng, size),
                           _full_stack_direction(shape, rng, size))


@pytest.mark.parametrize("field", ["complex", "real"])
def test_a_draw_is_a_prefix_of_a_longer_draw(field):
    """Every random part comes from a generator of its own, filled block by
    block, so row i of a draw depends only on its stream and i: the first s
    rows of a longer draw equal a size-s draw byte for byte, a one-row draw
    included, and so do the production boundary spectra."""
    shape, rng = BipartiteShape(2, 3, field), RngStream(4550)
    draws = {"interior": lambda size: (sample_state_hs(shape, rng, size),),
             "boundary": lambda size: (sample_boundary_state_hs(shape, rng, size),),
             "direction": lambda size: (sample_direction(shape, rng, size),),
             "spectra": lambda size: (boundary_eigenvalues_wishart(4, field, rng, size),)}
    for name, draw in draws.items():
        longer = draw(6000)
        for size in (1, COUNT_CHUNK - 1, COUNT_CHUNK + 1, 5000):
            for got, want in zip(draw(size), longer, strict=True):
                assert _same_bytes(got, want[:size]), (name, size)


def _matmul_states(shape, rng, size):
    """Interior and boundary states by the batch-first matmul formulas, on
    the samplers' draws: L L^dag of the Bartlett factors L, and
    P L L^dag P of the Bartlett factors with one column more, projected by
    P = I - psi psi^dag."""
    n = shape.n

    def factors(extra):
        x = np.moveaxis(_bartlett_factors(shape, rng, size, extra), -1, 0)
        return x[:, :, :n] + 1j * x[:, :, n:] if shape.field == "complex" else x

    g, g_b = factors(0), factors(1)
    psi = _boundary_psi(shape, rng, size)
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
    psi, redrawn from its stream. Their sums run in another order than a
    matmul's, so they agree with the matmul formulas to a few eps, not bit
    for bit."""
    shape = BipartiteShape(k, m, field)
    eps = np.finfo(float).eps
    for size in (1, 2, COUNT_CHUNK + 1):
        rng = RngStream(4700 + size, shape.n)
        boundary = sample_boundary_state_hs(shape, rng, size)
        interior = sample_state_hs(shape, rng, size)
        for states, want in zip((interior, boundary), _matmul_states(shape, rng, size)):
            assert np.array_equal(states, np.conj(np.swapaxes(states, -1, -2)))
            tr = np.trace(states, axis1=-2, axis2=-1)
            assert np.max(np.abs(tr - 1.0)) <= 4 * shape.n * eps
            assert np.max(np.abs(states - want)) <= 8 * eps
        psi = _boundary_psi(shape, rng, size)
        assert np.max(np.abs(np.einsum("sij,sj->si", boundary, psi))) <= 1e-14


# tracemalloc peak of one call over the bytes it returns, 2x3 complex. Only
# the output is whole: every Gaussian part is filled block by block, and
# everything else is per block. Measured: interior 1.76, boundary 1.85,
# direction 1.17 (1.18 from the Ginibre part of the old direction draw).
# With the real Ginibre part, psi's normals and the Bartlett gammas drawn
# whole they read 1.80, 2.39 and 1.64, and 2.05 from a
# projected Ginibre G, those boundary ratios over its states and psi. The
# bounds are about 0.35 above the measured ratios, 0.25 for the boundary.
# The stack samplers copy each block into the stack, which holds one block
# more than writing in place.
PEAK_CASES = [
    ("interior", lambda shape, rng, n: (sample_state_hs(shape, rng, n),), 16_384, 2.1),
    ("boundary", lambda shape, rng, n: (sample_boundary_state_hs(shape, rng, n),), 16_384, 2.1),
    ("direction", lambda shape, rng, n: (sample_direction(shape, rng, n),), 65_536, 1.55),
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
        sample_state_hs(BipartiteShape(2, 2, "real"), RngStream(4902), 2 * COUNT_CHUNK + 1)

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


@pytest.mark.parametrize("source", [sampling.state_blocks, sampling.boundary_blocks,
                                    sampling.direction_blocks],
                         ids=["interior", "boundary", "direction"])
def test_a_block_source_left_early_leaves_no_thread(source):
    """A sweep that raises on its first block, or drops the iterator after
    one block, joins the helper: closing the iterator cancels the fills
    not yet started."""
    shape, size = BipartiteShape(2, 3), 4 * COUNT_CHUNK
    baseline = threading.active_count()
    with pytest.raises(FloatingPointError):
        for _ in source(shape, RngStream(4915), size):
            raise FloatingPointError("the caller's kernel failed")
    assert threading.active_count() == baseline
    blocks = source(shape, RngStream(4915), size)
    next(blocks)
    assert threading.active_count() == baseline + 1
    del blocks
    assert threading.active_count() == baseline


class _FailingStream:
    """A stream stand-in whose children share one generator, whose
    ``fails``-th fill raises, counting its standard_gamma and
    standard_normal calls together."""

    def __init__(self, fails):
        self.gen, self.fails, self.calls = RngStream(4920).generator(), fails, 0

    def child(self, index):
        return self

    def generator(self):
        return self

    def _fill(self, method, *args, **kwargs):
        self.calls += 1
        if self.calls == self.fails:
            raise FloatingPointError(f"fill {self.fails} failed")
        return getattr(self.gen, method)(*args, **kwargs)

    def standard_gamma(self, *args, **kwargs):
        return self._fill("standard_gamma", *args, **kwargs)

    def standard_normal(self, *args, **kwargs):
        return self._fill("standard_normal", *args, **kwargs)


# (sampler, the fill that fails): each block queues one fill per part, in
# the order of the parts, and the draw has three blocks. The interior draw's
# fills are a block's gammas, then its normals; the boundary draw's its
# gammas, its normals, then its psi; the direction draw's its one part of
# normals, so its second fill is the second block's
FAILING_FILLS = {
    "interior-gamma": (sample_state_hs, 1),
    "interior": (sample_state_hs, 2),
    "interior-later-gamma": (sample_state_hs, 5),
    "boundary-gamma": (sample_boundary_state_hs, 1),
    "boundary": (sample_boundary_state_hs, 2),
    "boundary-psi": (sample_boundary_state_hs, 3),
    "boundary-later-psi": (sample_boundary_state_hs, 6),
    "direction": (sample_direction, 2),
}


@pytest.mark.parametrize("draw,fails", FAILING_FILLS.values(), ids=FAILING_FILLS.keys())
@pytest.mark.parametrize("field", ["complex", "real"])
def test_a_failing_fill_raises_and_leaves_no_thread(field, draw, fails):
    """The error of a fill reaches the caller, and the fills after it are
    cancelled or finished before the helper is joined."""
    baseline = threading.active_count()
    with pytest.raises(FloatingPointError, match=f"fill {fails} failed"):
        draw(BipartiteShape(1, 4, field), _FailingStream(fails), 3 * COUNT_CHUNK)
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
        return [sample_state_hs(shape, rng, size), sample_boundary_state_hs(shape, rng, size),
                sample_direction(shape, rng, size),
                sample_state_hs(BipartiteShape(2, 3, "real"), rng, size)]

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
