"""Monte Carlo estimators over the state body and its PPT section.

Volume comes from the radial integral over uniform directions omega,

    V = S_{D-1}/D * E[r(omega)^D],

with D the body dimension. :func:`mc_volume` serves the state bodies and the
polytopes of :mod:`statebody.polytopes`; only the per-direction kernel that
yields log r differs. A polytope's kernel also measures the support height h
of the face met, so its area

    A = S_{D-1} * E[r(omega)^D / h(omega)]

and :func:`mc_gamma`, the radial ratio r_in * A / V, are measurements: that
ratio is both a polytope's gamma and its one test of constant height. A
state body's sweeps read lambda_min over its constraints off the kernel of
:mod:`statebody.geometry`: a direction's radius is 1 / (N |lambda_min|), a
state's depth N * lambda_min. No height is sampled, every generic face
touching the insphere, so :func:`mc_area` and :func:`mc_gamma` reject a
state body. Its gamma is measured by :func:`inner_law`: the inner parallel
body of a tangential body is a scaled copy, so the depth of a uniform state
is Beta(1, D) distributed. Constant height is tested by :func:`radius_law`,
boundary radii against interior radial values in a two-sample KS test. The
boundary-doubling identity V_ppt / V_full = 2 p_boundary is checked by
:func:`cross_validate_area`, one paired radial sweep against the boundary
sampler's PPT fraction.

Every sampling loop runs through :func:`_sweep`, which splits n samples into
shards and chunks, gives each its own child stream and concatenates results in
fixed index order. Within a chunk the state sweeps stream the samplers'
batch-last blocks (``state_blocks``, ``boundary_blocks``) through the
per-block kernels of :mod:`statebody.hermitian`, so omega and the corner
probe hold O(block) states and the interior laws one Newton group of kept
rows; no row's result depends on its block. Powers r^D are formed in the log
domain and reductions use pairwise summation, so estimates are deterministic
functions of (config, seed, shard count). Every stderr carries a relative floating-point resolution floor:
degenerate cases (the N = 2 body is a round ball, and the paired area and
volume samples of a polytope whose every height is r_in are proportional)
would otherwise report a noise-level stderr and turn acceptance bands into
rounding lotteries.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from . import polytopes
from .geometry import BodySpec, _constraint_minima, _radial_batch
from .hermitian import BipartiteShape, _count_block, _hs_norms, _integer
from .hermitian import _ppt_block as _ppt_mask
from .sampling import RngStream, boundary_blocks, sample_direction, state_blocks

BATCH = 1 << 16
STDERR_REL_FLOOR = 1e-12
NONGENERIC_WARN_FRACTION = 1e-3
LAW_BINS = 32
LAW_MIN_KEPT = 10


class InsufficientSamplesError(RuntimeError):
    """A ratio denominator collected zero hits; more samples are needed."""


@dataclass(frozen=True)
class Estimate:
    """A Monte Carlo estimate with its sampling provenance."""

    value: float
    stderr: float
    n_samples: int
    seed: str
    estimator_id: str


@dataclass(frozen=True)
class OmegaReport:
    """PPT probabilities in the interior and on the boundary and their ratio."""

    shape: BipartiteShape
    p_interior: Estimate
    p_boundary: Estimate
    omega: float
    stderr: float


@dataclass(frozen=True)
class CornerProbeResult:
    """Fractions of boundary samples within delta of the corner set."""

    shape: BipartiteShape
    n_samples: int
    seed: str
    rows: tuple  # of (delta, fraction, stderr)
    exponents: tuple  # of (exponent, stderr) per pair of neighbouring deltas


@dataclass(frozen=True)
class AreaCrossCheck:
    """The boundary-doubling identity V_ppt / V_full = 2 p_boundary.

    ``radial`` is the PPT volume fraction from one radial sweep, ``doubled``
    twice the PPT fraction of boundary samples, and ``discrepancy_sigma``
    their signed difference (radial - doubled) over the pooled stderr.
    """

    shape: BipartiteShape
    radial: Estimate
    doubled: Estimate
    discrepancy_sigma: float


@dataclass(frozen=True)
class RadiusLaw:
    """Two-sample KS test of the constant-height radius law on one state body.

    ``p_value`` compares ``n_boundary`` boundary radii with ``n_interior``
    interior radii; a small value refutes constant height or one of the
    samplers.
    """

    body: str
    n_boundary: int
    n_interior: int
    p_value: float
    seed: str


@dataclass(frozen=True)
class InnerLaw:
    """The inner-parallel law s = N * lambda_min ~ Beta(1, D) on one state body.

    ``gamma`` is the estimate of D from the ``n_kept`` rows of ``n_samples``
    interior draws that lie in the body; ``p_value`` is a chi-square test of
    the law at the body's own D. A small value refutes constant height or
    the interior sampler. ``n_fallback`` counts the eigenvalues that
    :func:`~statebody.hermitian.min_eigenvalues` could not certify and took
    from ``eigvalsh``; it is not part of any record.
    """

    body: str
    n_samples: int
    n_kept: int
    gamma: Estimate
    p_value: float
    seed: str
    n_fallback: int


def _require_generic(n_gen: int, n: int):
    """Raise :class:`InsufficientSamplesError` when the n - n_gen non-generic
    directions, a measure-zero set on a sound body, make up at least
    NONGENERIC_WARN_FRACTION of n."""
    if (n - n_gen) / max(n, 1) >= NONGENERIC_WARN_FRACTION:
        raise InsufficientSamplesError(
            f"non-generic fraction {(n - n_gen) / n:.2e} too large; "
            "the body looks degenerate"
        )


def sphere_area(d: int) -> float:
    """Surface area 2 pi^{d/2} / Gamma(d/2) of the unit sphere in R^d."""
    d = _integer("d", d, 1)
    return math.exp(math.log(2.0) + 0.5 * d * math.log(math.pi) - math.lgamma(0.5 * d))


def _shard_sizes(n: int, shards: int):
    shards = _integer("shards", shards, 1)
    base, extra = divmod(n, shards)
    return [base + (1 if k < extra else 0) for k in range(shards)]


def _sweep(n: int, rng: RngStream, shards: int, kernel, batch: int = BATCH):
    """Run ``kernel(stream, count)`` over n samples in shards and chunks.

    Shard k draws from rng.child(k), or from rng itself when there is one
    shard; chunk j of a shard draws from that stream's child(j) and holds at
    most ``batch`` samples. The kernel returns a tuple of arrays; each is
    concatenated over chunks in fixed index order. Kernels whose caller only
    counts return per-chunk counts, so memory grows with the number of chunks
    rather than with n.
    """
    parts = []
    for k, n_k in enumerate(_shard_sizes(n, shards)):
        stream = rng.child(k) if shards > 1 else rng
        for j, start in enumerate(range(0, n_k, batch)):
            parts.append(kernel(stream.child(j), min(batch, n_k - start)))
    return tuple(np.concatenate(column) for column in zip(*parts))


def _floor_stderr(value: float, stderr: float) -> float:
    return float(max(stderr, abs(value) * STDERR_REL_FLOOR))


def _mean_estimate(x: np.ndarray, scale: float) -> tuple[float, float]:
    value = scale * float(np.mean(x))
    stderr = abs(scale) * float(np.std(x, ddof=1)) / math.sqrt(len(x))
    return value, _floor_stderr(value, stderr)


def _ratio_estimate(num: np.ndarray, den: np.ndarray, scale: float) -> tuple[float, float]:
    """Delta-method estimate of scale * mean(num)/mean(den) on paired samples.

    The residual form num - R*den avoids the catastrophic cancellation the
    textbook variance expansion suffers when the pairs are near-proportional.
    """
    nm, dm = float(np.mean(num)), float(np.mean(den))
    ratio = nm / dm
    resid = num - ratio * den
    var = float(np.mean(resid * resid)) / (len(num) * dm * dm)
    value = scale * ratio
    stderr = abs(scale) * math.sqrt(max(var, 0.0))
    return value, _floor_stderr(value, stderr)


def _binomial_estimate(hits: int, n: int) -> tuple[float, float]:
    p = hits / n
    if hits == 0 or hits == n:
        # rule-of-three scale keeps the stderr positive at the extremes
        return p, 1.0 / n
    return p, math.sqrt(p * (1.0 - p) / n)


def _radial(body: BodySpec | polytopes.TangentBody, n: int, rng: RngStream,
            shards: int):
    """log r(omega) of n uniform directions, first of a tuple.

    A polytope sweeps in chunks of polytopes._SWEEP_BATCH and adds the
    support height of the face met and whether that face is unique; a state
    body draws traceless directions in chunks of BATCH and adds log r of
    the full body along the same directions.
    """
    if isinstance(body, polytopes.TangentBody):
        return _sweep(
            n, rng, shards,
            lambda stream, count: polytopes._radial_sweep(body, count, stream),
            batch=polytopes._SWEEP_BATCH)

    def kernel(stream, count):
        radii = _radial_batch(body, sample_direction(body.shape, stream, count))
        return np.log(radii.min(axis=0)), np.log(radii[0])

    return _sweep(n, rng, shards, kernel)


def _generic_terms(body: polytopes.TangentBody, n: int, rng: RngStream,
                   shards: int, name: str, instead: str):
    """Volume and area integrands r^D and r^D / h of n sampled directions of
    a polytope; directions that meet a tie of faces are discarded.

    A state body raises ValueError naming the caller ``name`` and what to
    use ``instead``: its heights are not sampled but are r_in by
    construction, so its area is D / r_in times its volume.
    """
    if not isinstance(body, polytopes.TangentBody):
        raise ValueError(f"{name} takes a polytope, got {body}; {instead}")
    n = _integer("n", n, 2)
    logr, h, generic = _radial(body, n, rng, shards)
    _require_generic(int(np.sum(generic)), n)
    v = np.exp(body.dim * logr[generic])
    return v, v / h[generic]


def mc_volume(body: BodySpec | polytopes.TangentBody, n: int, rng: RngStream,
              shards: int = 1) -> Estimate:
    """Volume of a state body or polytope by the radial integral over
    uniform directions."""
    n = _integer("n", n, 2)
    logr = _radial(body, n, rng, shards)[0]
    d = body.dim
    value, stderr = _mean_estimate(np.exp(d * logr), sphere_area(d) / d)
    return Estimate(value, stderr, n, rng.describe(), f"mc_volume[{body}]")


def mc_area(body: polytopes.TangentBody, n: int, rng: RngStream,
            shards: int = 1) -> Estimate:
    """Boundary area of a polytope by the radial surface integral over
    generic directions. A state body is rejected: its area is D / r_in
    times its :func:`mc_volume`."""
    _, a = _generic_terms(body, n, rng, shards, "mc_area",
                          "a state body's area is D / r_in times its mc_volume")
    value, stderr = _mean_estimate(a, sphere_area(body.dim))
    return Estimate(value, stderr, len(a), rng.describe(), f"mc_area[{body}]")


def mc_gamma(body: polytopes.TangentBody, n: int, rng: RngStream,
             shards: int = 1) -> Estimate:
    """The dimensionless ratio gamma = r_in * A / V of a polytope on shared
    direction samples, and its test of constant height.

    A and V share the same radial samples, so gamma is a correlated ratio; the
    stderr comes from the paired delta method. A polytope's volume is
    (1/D) * sum_i h_i * A_i over its exposed facets (Schneider, Convex Bodies,
    2nd ed., 2014), and r_in = min_i h_i, so gamma = D exactly when every
    exposed facet lies at height r_in: the body has constant height when the
    estimate equals D within a few stderr, and a face exposed off the
    insphere pulls it below D.

    A state body is rejected: its heights are not sampled but taken as the
    insphere radius, so the ratio would read D at any n; :func:`inner_law`
    measures its gamma.
    """
    v, a = _generic_terms(body, n, rng, shards, "mc_gamma",
                          "measure a state body's gamma with inner_law")
    value, stderr = _ratio_estimate(a, v, body.r_in * body.dim)
    return Estimate(value, stderr, len(v), rng.describe(), f"mc_gamma[{body}]")


def _in_body(body: BodySpec, blocks):
    """For each batch-last (N, N, b) state block, the batch-last block of
    its states that lie in ``body``: the block itself for the full body, a
    copy of those that pass the PPT test for a PPT body."""
    if body.kind == "full":
        return blocks
    return (block[..., _ppt_mask(block, body.shape)] for block in blocks)


def _depths(body: BodySpec, blocks):
    """The depth s = N * lambda_min over the body's constraints of each
    state of a stream of batch-last state blocks that lie in ``body`` (down
    to -N * PPT_TOL on a PPT body), and how many minima ``eigvalsh`` gave."""
    lam, fallbacks = _constraint_minima(body, blocks)
    return body.shape.n * lam.min(axis=0), fallbacks


def radius_law(body: BodySpec, n: int, rng: RngStream, shards: int = 1) -> RadiusLaw:
    """KS test of the radius law on n boundary and n interior draws.

    Under the surface measure the direction of a boundary point has density
    r^{D-1} / cos(theta) = r^D / h, which for constant height h is the volume
    measure's r^D. So the radius |x - I/N| of a sample_boundary_state_hs
    state (stream child 0) has the law of r(omega) along an interior state
    rho = I/N + t omega (child 1): its depth s from :func:`_depths`
    is 1 - t / r(omega), so r(omega) = t / (1 - s). A PPT body keeps the PPT
    rows of both sides: the partial transpose is an isometry fixing I/N, so
    the reflected faces the boundary sampler never reaches carry the same
    radius law. No kept row on either side raises :class:`InsufficientSamplesError`.
    A polytope is rejected: :func:`mc_gamma` tests its sampled heights.
    """
    if not isinstance(body, BodySpec):
        raise ValueError(f"radius_law takes a state body, got {body}; "
                         "test a polytope's constant height with mc_gamma")
    from scipy import stats  # lazy, so `import statebody` loads numpy only

    n = _integer("n", n, 2)

    def distance(block):
        return _hs_norms(np.moveaxis(block, -1, 0) - body.center)

    def boundary(stream, count):
        return (np.concatenate([distance(block) for block in
                                _in_body(body, boundary_blocks(body.shape, stream, count))]),)

    def interior(stream, count):
        distances = []

        def kept():
            for block in _in_body(body, state_blocks(body.shape, stream, count)):
                distances.append(distance(block))
                yield block

        s, _ = _depths(body, kept())
        return (np.concatenate(distances) / (1.0 - s),)

    (r_bdy,) = _sweep(n, rng.child(0), shards, boundary)
    (r_int,) = _sweep(n, rng.child(1), shards, interior)
    if len(r_bdy) == 0 or len(r_int) == 0:
        raise InsufficientSamplesError(
            f"no PPT {'boundary' if len(r_bdy) == 0 else 'interior'} state in "
            f"{n} draws for {body}; the radius law needs both sides")
    p_value = float(stats.ks_2samp(r_bdy, r_int).pvalue)
    return RadiusLaw(str(body), len(r_bdy), len(r_int), p_value, rng.describe())


def inner_law(body: BodySpec, n: int, rng: RngStream, shards: int = 1) -> InnerLaw:
    """Gamma of a state body from the law of its interior depth, on n draws.

    Every face of the body lies at distance r_in from I/N, so its inner
    parallel body at depth e is the scaled copy (1 - e/r_in) K (Schneider,
    Convex Bodies, 2nd ed., 2014), and for rho uniform in K the depth
    s = dist(rho, boundary) / r_in has P(s > x) = (1 - x)^D: s ~ Beta(1, D),
    whose density at 0 is gamma = r_in * A / V = D. :func:`_depths`
    gives s = N * lambda_min; the minima it takes from ``eigvalsh`` are
    counted in ``n_fallback``.

    t = -log(1 - s) is Exp(D) distributed, so the sum T of k kept values is
    Gamma(k, rate D): the estimate (k - 1) / T is unbiased, with stderr
    D / sqrt(k - 2). Each chunk keeps only its count, its sum of t and its
    LAW_BINS equiprobable-bin counts of u = 1 - exp(-D t), uniform under the
    law, so memory stays O(batch) at any n. The p-value is a chi-square test
    on the largest power-of-two merge of those bins with at least five
    expected rows each. Fewer than LAW_MIN_KEPT kept rows raise
    :class:`InsufficientSamplesError`.
    """
    if not isinstance(body, BodySpec):
        raise ValueError(f"inner_law takes a state body, got {body}; "
                         "measure a polytope's gamma with mc_gamma")
    from scipy import stats  # lazy, so `import statebody` loads numpy only

    n = _integer("n", n, 2)

    def kernel(stream, count):
        s, fallbacks = _depths(body, _in_body(body, state_blocks(body.shape, stream, count)))
        t = -np.log1p(-np.clip(s, 0.0, 1.0))
        u = -np.expm1(-body.dim * t)
        bins = np.minimum((u * LAW_BINS).astype(np.intp), LAW_BINS - 1)
        return (np.array([len(t)]), np.array([np.sum(t)]),
                np.bincount(bins, minlength=LAW_BINS)[None], np.array([fallbacks]))

    kept, sums, counts, fallbacks = _sweep(n, rng, shards, kernel)
    k = int(np.sum(kept))
    if k < LAW_MIN_KEPT:
        raise InsufficientSamplesError(
            f"{k} of {n} draws lie in {body}; the inner law needs at least "
            f"{LAW_MIN_KEPT}")
    total = float(np.sum(sums))
    if total == 0.0:
        raise InsufficientSamplesError(
            f"all {k} kept draws lie on the boundary of {body}; D is undefined")
    value = (k - 1) / total
    bins = LAW_BINS
    while k < 5 * bins:
        bins //= 2
    merged = counts.sum(axis=0).reshape(bins, -1).sum(axis=1)
    p_value = float(stats.chisquare(merged).pvalue)
    gamma = Estimate(value, _floor_stderr(value, value / math.sqrt(k - 2)), k,
                     rng.describe(), f"inner_law[{body}]")
    return InnerLaw(str(body), n, k, gamma, p_value, rng.describe(), int(np.sum(fallbacks)))


def _ppt_fraction(label: str, shape: BipartiteShape, n: int, rng: RngStream,
                  shards: int, blocks) -> Estimate:
    """PPT fraction of n states that ``blocks(shape, stream, count)`` yields
    chunk by chunk as batch-last state blocks, each tested as it comes."""
    n = _integer("n", n, 2)

    def kernel(stream, count):
        return (np.array([sum(np.count_nonzero(_ppt_mask(block, shape))
                              for block in blocks(shape, stream, count))]),)

    (hits,) = _sweep(n, rng, shards, kernel)
    p, se = _binomial_estimate(int(np.sum(hits)), n)
    return Estimate(p, se, n, rng.describe(), f"{label}[{shape}]")


def estimate_p_interior(shape: BipartiteShape, n: int, rng: RngStream,
                        shards: int = 1) -> Estimate:
    """PPT probability of Hilbert-Schmidt interior samples: exactly 1 on
    K = 1, where the partial transpose is a full transpose and keeps the
    spectrum. Only the ratios built on PPT fractions need K >= 2."""
    return _ppt_fraction("p_interior", shape, n, rng, shards, state_blocks)


def estimate_p_boundary(shape: BipartiteShape, n: int, rng: RngStream,
                        shards: int = 1) -> Estimate:
    """PPT probability of boundary samples under the surface measure;
    exactly 1 on K = 1, as for :func:`estimate_p_interior`."""
    return _ppt_fraction("p_boundary", shape, n, rng, shards, boundary_blocks)


def _with_hits(est: Estimate, route: str, shape: BipartiteShape) -> Estimate:
    """``est`` for use in a ratio: a PPT fraction with zero hits raises."""
    if est.value == 0.0:
        raise InsufficientSamplesError(
            f"too few PPT {route} hits: none in {est.n_samples} samples for "
            f"{shape}; the ratios built on it are undefined at this sample size"
        )
    return est


def estimate_omega(shape: BipartiteShape, n: int, rng: RngStream,
                   shards: int = 1) -> OmegaReport:
    """Omega = p_interior / p_boundary on independent streams.

    For any bipartite system this ratio is exactly two: the PPT body shares
    its volume with the reflected body and a corner set of measure zero splits
    the boundary area evenly. Zero PPT hits on either route raise
    :class:`InsufficientSamplesError`, the boundary checked first. A shape
    with no PPT section (K = 1) raises ValueError.
    """
    BodySpec("ppt", shape)
    p_v = estimate_p_interior(shape, n, rng.child(0), shards)
    p_a = _with_hits(estimate_p_boundary(shape, n, rng.child(1), shards),
                     "boundary", shape)
    _with_hits(p_v, "interior", shape)
    omega = p_v.value / p_a.value
    rel = math.sqrt((p_v.stderr / p_v.value) ** 2 + (p_a.stderr / p_a.value) ** 2)
    return OmegaReport(shape, p_v, p_a, omega, omega * rel)


def _deltas(deltas) -> tuple:
    """The corner probe's thresholds as a tuple of floats. They must be a
    sequence of numbers, bools excluded, finite, positive (no state has
    |lambda| < 0, so a zero threshold would pass vacuously) and strictly
    decreasing; anything else raises ValueError naming deltas."""
    if isinstance(deltas, (str, bytes)) or not np.iterable(deltas):
        raise ValueError(f"deltas must be a sequence of numbers, got {deltas!r}")
    deltas = list(deltas)
    for x in deltas:
        if isinstance(x, bool) or not isinstance(x, numbers.Real):
            raise ValueError(f"deltas must be numbers, got {x!r}")
    # compared before the float conversion, which overflows on a huge int
    if not all(0 < x <= sys.float_info.max for x in deltas):
        raise ValueError(f"deltas must be finite and positive, got {deltas}")
    deltas = tuple(map(float, deltas))
    if any(b >= a for a, b in zip(deltas, deltas[1:])):
        raise ValueError(f"deltas must be strictly decreasing, got {list(deltas)}")
    return deltas


def corner_probe(shape: BipartiteShape, n: int, deltas, rng: RngStream,
                 shards: int = 1) -> CornerProbeResult:
    """Fractions of boundary samples with a partial-transpose eigenvalue
    within each delta of zero, and the scaling exponent between neighbours.

    The corner set of the PPT body's boundary has codimension one inside the
    boundary, so the fractions fall to zero with delta. The exponent a of
    F ~ delta^a between deltas d_j > d_{j+1} with counts c_j >= c_{j+1} is
    log(c_j / c_{j+1}) / log(d_j / d_{j+1}), its stderr that of the
    conditional binomial c_{j+1} | c_j, sqrt((1 - c_{j+1}/c_j) / c_{j+1}) /
    log(d_j / d_{j+1}); both are None when a count is 0. a is measured near
    1 on 2x2 and 2x3 complex, not a law: on 2x2 real it read 0.57 to 0.91
    over the decades from 1e-1 to 1e-6. No spectrum is
    computed: the per-block kernel of
    :func:`~statebody.hermitian.eigen_counts` counts the eigenvalues of
    T_A(rho) below +delta and below -delta on each boundary block, formed in
    its own copy, and a state is near the corner when the first count is
    the larger. Deltas are checked by :func:`_deltas`. A shape with no PPT
    section (K = 1) raises ValueError.
    """
    BodySpec("ppt", shape)
    n = _integer("n", n, 2)
    deltas = _deltas(deltas)
    xs = np.array([*deltas, *(-d for d in deltas)])[:, None]

    def near(block):
        below = _count_block(block, xs, shape)
        return np.count_nonzero(below[:len(deltas)] > below[len(deltas):], axis=1)

    def kernel(stream, count):
        return (sum(map(near, boundary_blocks(shape, stream, count)))[None],)

    (counts,) = _sweep(n, rng, shards, kernel)
    counts = [int(c) for c in counts.sum(axis=0)]
    rows = tuple((d, *_binomial_estimate(c, n)) for d, c in zip(deltas, counts))
    exponents = []
    for d_hi, d_lo, c_hi, c_lo in zip(deltas, deltas[1:], counts, counts[1:]):
        if c_lo == 0:  # the near sets are nested, so c_lo = 0 whenever c_hi = 0
            exponents.append((None, None))
            continue
        span = math.log(d_hi / d_lo)
        exponents.append((math.log(c_hi / c_lo) / span,
                          math.sqrt((1.0 - c_lo / c_hi) / c_lo) / span))
    return CornerProbeResult(shape, n, rng.describe(), rows, tuple(exponents))


def cross_validate_area(shape: BipartiteShape, n: int, rng: RngStream,
                        shards: int = 1) -> AreaCrossCheck:
    """The boundary-doubling identity V_ppt / V_full = 2 p_boundary.

    The boundary of the PPT body splits evenly between its own faces and the
    reflected ones, the corner set being area-free, so under constant height
    the interior PPT fraction is twice the boundary one. Route one is the
    paired radial ratio E[r_ppt^D] / E[r^D] of n directions (stream child 0),
    the :func:`mc_volume` sweep of the PPT body: one lambda_min per
    constraint gives both the PPT radius and the full body's. Route two
    doubles the PPT fraction of n boundary samples (child 1).
    ``discrepancy_sigma`` is (radial - doubled) over the pooled stderr. Zero
    PPT boundary hits raise :class:`InsufficientSamplesError`; a shape with
    no PPT section (K = 1) raises ValueError.
    """
    body = BodySpec("ppt", shape)
    n = _integer("n", n, 2)
    directions = rng.child(0)
    logr, logr_direct = _radial(body, n, directions, shards)
    value, stderr = _ratio_estimate(np.exp(body.dim * logr),
                                    np.exp(body.dim * logr_direct), 1.0)
    radial = Estimate(value, stderr, n, directions.describe(),
                      f"ppt_volume_fraction[{shape}]")
    p_a = _with_hits(estimate_p_boundary(shape, n, rng.child(1), shards),
                     "boundary", shape)
    doubled = Estimate(2.0 * p_a.value, 2.0 * p_a.stderr, n, p_a.seed,
                       f"doubled_p_boundary[{shape}]")
    disc = (radial.value - doubled.value) / math.hypot(radial.stderr, doubled.stderr)
    return AreaCrossCheck(shape, radial, doubled, disc)
