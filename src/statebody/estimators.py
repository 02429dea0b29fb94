"""Monte Carlo estimators over the state body and its PPT section.

Volume and area come from radial integrals over uniform directions omega:

    V = S_{D-1}/D * E[r(omega)^D]
    A = S_{D-1}   * E[r(omega)^{D-1} / <omega, n(omega)>]

with D the body dimension and n(omega) the outward unit normal at the contact
point. The volume and area estimators serve the state bodies and the
polytopes of :mod:`statebody.polytopes`; only the per-direction kernel that
yields (log r, height, generic) differs. Each body kind has one gamma
estimator and one test of constant height. On a state body the kernel solves
for eigenvalues only, and its heights equal the insphere radius by
construction, so the radial ratio r_in * A / V would read D up to rounding.
There gamma is measured by :func:`inner_law`: the inner parallel body of a
tangential body is a scaled copy, so N * lambda_min of a uniform state is
Beta(1, D) distributed. Constant height is tested by :func:`radius_law`,
boundary radii against interior radial values in a two-sample KS test. A
polytope's heights are measured: :func:`mc_gamma` takes the radial ratio and
:func:`height_certificate` compares the heights with its exact insphere
radius.

Every sampling loop runs through :func:`_sweep`, which splits n samples into
shards and chunks, gives each its own child stream and concatenates results in
fixed index order. Powers r^D are formed in the log domain and reductions use
pairwise summation, so estimates are deterministic functions of (config, seed,
shard count). Every stderr carries a relative floating-point resolution floor:
degenerate cases (the N = 2 body is a round ball, and paired area/volume
samples of a constant-height body differ only by eigensolver jitter) would
otherwise report a noise-level stderr and turn acceptance bands into rounding
lotteries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import polytopes
from .geometry import (
    BodySpec,
    _contact_batch,
    _radial_batch,
    analytic_area_volume_ratio,
)
from .hermitian import BipartiteShape, eigen_counts, min_eigenvalues, partial_transpose
from .hermitian import ppt_mask as _ppt_mask
from .sampling import RngStream, sample_boundary_state_hs, sample_direction, sample_state_hs

BATCH = 1 << 16
STDERR_REL_FLOOR = 1e-12
NONGENERIC_WARN_FRACTION = 1e-3
HEIGHT_TOL = 1e-9
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
    """PPT boundary area by the radial integral and by doubling p_boundary.

    Every sampled state-body height is r_in, so ``radial`` is D / r_in times
    the radial volume of the PPT body and the two routes agree exactly when
    V_ppt / V_full = 2 p_boundary; they are not two independent areas.
    """

    shape: BipartiteShape
    radial: Estimate
    doubled: Estimate
    discrepancy_sigma: float


@dataclass(frozen=True)
class HeightCertificate:
    """Sampled constant-height certificate for one polytope: the largest
    deviation of its support heights from its insphere radius."""

    body: str
    n_samples: int
    n_nongeneric: int
    max_abs_deviation: float
    seed: str

    @property
    def passed(self) -> bool:
        return (self.max_abs_deviation <= HEIGHT_TOL
                and not _degenerate(self.n_nongeneric, self.n_samples))


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


def _degenerate(n_nongeneric: int, n: int) -> bool:
    """Whether non-generic directions, a measure-zero set on a sound body,
    make up at least NONGENERIC_WARN_FRACTION of n samples."""
    return n_nongeneric / max(n, 1) >= NONGENERIC_WARN_FRACTION


def _require_generic(n_gen: int, n: int):
    """Raise :class:`InsufficientSamplesError` when n_gen generic directions
    out of n leave a :func:`_degenerate` non-generic share."""
    if _degenerate(n - n_gen, n):
        raise InsufficientSamplesError(
            f"non-generic fraction {(n - n_gen) / n:.2e} too large; "
            "the body looks degenerate"
        )


def sphere_area(d: int) -> float:
    """Surface area 2 pi^{d/2} / Gamma(d/2) of the unit sphere in R^d."""
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    return math.exp(math.log(2.0) + 0.5 * d * math.log(math.pi) - math.lgamma(0.5 * d))


def _check_n(n: int):
    if not (isinstance(n, (int, np.integer)) and n >= 2):
        raise ValueError(f"n_samples must be an integer >= 2 for a stderr, got {n!r}")


def _shard_sizes(n: int, shards: int):
    if not (isinstance(shards, (int, np.integer)) and shards >= 1):
        raise ValueError(f"shards must be a positive integer, got {shards!r}")
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
    """``(logr, h, generic)`` of n uniform directions: log r(omega), the
    support height of the face met and whether that face is unique.

    State bodies draw traceless directions in chunks of BATCH and run the
    eigenvalue-only contact kernel; polytopes sweep in chunks of
    polytopes._SWEEP_BATCH.
    """
    if isinstance(body, polytopes.TangentBody):
        return _sweep(
            n, rng, shards,
            lambda stream, count: polytopes._radial_sweep(body, count, stream),
            batch=polytopes._SWEEP_BATCH)

    def kernel(stream, count):
        omegas = sample_direction(body.shape, stream, count)
        r, h, _, _, nong = _contact_batch(body, omegas)
        return np.log(r), h, ~nong

    return _sweep(n, rng, shards, kernel)


def _generic_terms(body: BodySpec | polytopes.TangentBody, n: int, rng: RngStream,
                   shards: int):
    """Volume and area integrands r^D and r^D / h of n sampled directions.

    Non-generic directions (no unique supporting face) are discarded.
    """
    logr, h, generic = _radial(body, n, rng, shards)
    _require_generic(int(np.sum(generic)), n)
    v = np.exp(body.dim * logr[generic])
    return v, v / h[generic]


def mc_volume(body: BodySpec | polytopes.TangentBody, n: int, rng: RngStream,
              shards: int = 1) -> Estimate:
    """Volume of a state body or polytope by the radial integral over
    uniform directions."""
    _check_n(n)
    logr, _, _ = _radial(body, n, rng, shards)
    d = body.dim
    value, stderr = _mean_estimate(np.exp(d * logr), sphere_area(d) / d)
    return Estimate(value, stderr, n, rng.describe(), f"mc_volume[{body}]")


def mc_area(body: BodySpec | polytopes.TangentBody, n: int, rng: RngStream,
            shards: int = 1) -> Estimate:
    """Boundary area of a state body or polytope by the radial surface
    integral over generic directions."""
    _check_n(n)
    _, a = _generic_terms(body, n, rng, shards)
    value, stderr = _mean_estimate(a, sphere_area(body.dim))
    return Estimate(value, stderr, len(a), rng.describe(), f"mc_area[{body}]")


def mc_gamma(body: polytopes.TangentBody, n: int, rng: RngStream,
             shards: int = 1) -> Estimate:
    """The dimensionless ratio gamma = r_in * A / V of a polytope on shared
    direction samples.

    A and V share the same radial samples, so gamma is a correlated ratio; the
    stderr comes from the paired delta method. For a constant-height body the
    estimate equals the body dimension up to rounding.

    A state body is rejected: its sampled heights equal the insphere radius
    by construction, so the ratio would read D at any n; :func:`inner_law`
    measures its gamma.
    """
    if not isinstance(body, polytopes.TangentBody):
        raise ValueError(f"mc_gamma takes a polytope, got {body}; "
                         "measure a state body's gamma with inner_law")
    _check_n(n)
    v, a = _generic_terms(body, n, rng, shards)
    value, stderr = _ratio_estimate(a, v, body.r_in * body.dim)
    return Estimate(value, stderr, len(v), rng.describe(), f"mc_gamma[{body}]")


def height_certificate(body: polytopes.TangentBody, n: int, rng: RngStream,
                       shards: int = 1) -> HeightCertificate:
    """Max deviation of a polytope's sampled support heights from its
    insphere radius, zero on a constant-height body. No generic direction at
    all raises :class:`InsufficientSamplesError`.

    A state body is rejected: its sampled heights equal the insphere radius
    by construction, so :func:`radius_law` is its test of constant height.
    """
    if not isinstance(body, polytopes.TangentBody):
        raise ValueError(f"height_certificate takes a polytope, got {body}; "
                         "test a state body with radius_law")
    _check_n(n)
    _, h, generic = _radial(body, n, rng, shards)
    if not np.any(generic):
        raise InsufficientSamplesError(f"all {n} sampled directions were non-generic")
    return HeightCertificate(
        body=str(body),
        n_samples=n,
        n_nongeneric=int(n - np.sum(generic)),
        max_abs_deviation=float(np.max(np.abs(h[generic] - body.r_in))),
        seed=rng.describe(),
    )


def radius_law(body: BodySpec, n: int, rng: RngStream, shards: int = 1) -> RadiusLaw:
    """KS test of the radius law on n boundary and n interior draws.

    Under the surface measure the direction of a boundary point has density
    r^{D-1} / cos(theta) = r^D / h, which for constant height h is the volume
    measure's r^D. So the radius |x - I/N| of a sample_boundary_state_hs
    state (stream child 0) has the law of r(omega) at the unit direction of a
    sample_state_hs state (child 1); the boundary side needs no eigensolve. A
    PPT body keeps the PPT rows of both sides: the partial transpose is an
    isometry fixing I/N, so the reflected faces the boundary sampler never
    reaches carry the same radius law. No kept row on either side raises
    :class:`InsufficientSamplesError`.
    """
    from scipy import stats  # lazy, so `import statebody` loads numpy only

    _check_n(n)
    shape = body.shape

    def kept(states):
        """Deviations from I/N of the kept rows and their norms."""
        if body.kind == "ppt":
            states = states[_ppt_mask(states, shape)]
        dev = states - body.center
        return dev, np.sqrt(np.sum(np.abs(dev) ** 2, axis=(-2, -1)))

    def boundary(stream, count):
        return (kept(sample_boundary_state_hs(shape, stream, count)[0])[1],)

    def interior(stream, count):
        dev, nrm = kept(sample_state_hs(shape, stream, count))
        return (_radial_batch(body, dev / nrm[:, None, None])[0],)

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
    whose density at 0 is gamma = r_in * A / V = D. On the full body
    s = N * lambda_min(rho); the PPT body keeps its PPT rows and takes the
    smaller of lambda_min(rho) and lambda_min(T_A(rho)), the partial
    transpose being an isometry fixing I/N. Only kept rows are eigensolved,
    by :func:`~statebody.hermitian.min_eigenvalues`, which computes no
    spectrum; the rows it takes from ``eigvalsh`` are counted in
    ``n_fallback``.

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

    _check_n(n)
    shape, d = body.shape, body.dim

    def kernel(stream, count):
        states = sample_state_hs(shape, stream, count)
        if body.kind == "ppt":
            states = states[_ppt_mask(states, shape)]
        lam, fallbacks = min_eigenvalues(states)
        if body.kind == "ppt":
            # a kept row may have lambda_min(T_A rho) down to -PPT_TOL
            lam_pt, more = min_eigenvalues(partial_transpose(states, shape))
            lam, fallbacks = np.minimum(lam, lam_pt), fallbacks + more
        t = -np.log1p(-np.clip(shape.n * lam, 0.0, 1.0))
        u = -np.expm1(-d * t)
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
                  shards: int, draw) -> Estimate:
    """PPT fraction of n states that ``draw(stream, count)`` returns in chunks."""
    _check_n(n)
    (hits,) = _sweep(n, rng, shards, lambda stream, count: (
        _ppt_mask(draw(stream, count), shape).sum(keepdims=True),))
    p, se = _binomial_estimate(int(np.sum(hits)), n)
    return Estimate(p, se, n, rng.describe(), f"{label}[{shape}]")


def estimate_p_interior(shape: BipartiteShape, n: int, rng: RngStream,
                        shards: int = 1) -> Estimate:
    """PPT probability of Hilbert-Schmidt interior samples: exactly 1 on
    K = 1, where the partial transpose is a full transpose and keeps the
    spectrum. Only the ratios built on PPT fractions need K >= 2."""
    return _ppt_fraction("p_interior", shape, n, rng, shards, lambda stream, count:
                         sample_state_hs(shape, stream, count))


def estimate_p_boundary(shape: BipartiteShape, n: int, rng: RngStream,
                        shards: int = 1) -> Estimate:
    """PPT probability of boundary samples under the surface measure;
    exactly 1 on K = 1, as for :func:`estimate_p_interior`."""
    return _ppt_fraction("p_boundary", shape, n, rng, shards, lambda stream, count:
                         sample_boundary_state_hs(shape, stream, count)[0])


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
    computed: :func:`~statebody.hermitian.eigen_counts` counts the
    eigenvalues of T_A(rho) below +delta and below -delta, and a state is
    near the corner when the first count is the larger. Deltas must be finite,
    positive and strictly decreasing. A shape with no PPT section (K = 1)
    raises ValueError.
    """
    BodySpec("ppt", shape)
    _check_n(n)
    deltas = [float(x) for x in deltas]
    if not all(math.isfinite(x) and x > 0 for x in deltas):
        raise ValueError(f"deltas must be finite and positive, got {deltas}")
    if any(b >= a for a, b in zip(deltas, deltas[1:])):
        raise ValueError(f"deltas must be strictly decreasing, got {deltas}")
    xs = np.array(deltas + [-d for d in deltas])

    def kernel(stream, count):
        states, _ = sample_boundary_state_hs(shape, stream, count)
        below = eigen_counts(partial_transpose(states, shape), xs)
        near = below[:len(deltas)] > below[len(deltas):]
        return (near.sum(axis=1)[None],)

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


def mc_boundary_ppt_fraction(shape: BipartiteShape, n: int, rng: RngStream) -> Estimate:
    """PPT fraction of the full body's boundary via the radial area integral.

    Weighs each sampled direction by its surface element and tests the contact
    point for PPT; agrees with estimate_p_boundary without ever drawing a
    boundary sample, which makes it an independent check on the boundary
    sampler's eigenvalue density. Too many non-generic directions raise
    :class:`InsufficientSamplesError`, as in the area estimators. On K = 1
    the fraction is exactly 1, as for :func:`estimate_p_interior`.
    """
    _check_n(n)
    body = BodySpec("full", shape)

    def kernel(stream, count):
        omegas = sample_direction(shape, stream, count)
        r, h, _, _, nong = _contact_batch(body, omegas)
        gen = ~nong
        w = np.exp(body.dim * np.log(r[gen])) / h[gen]
        return w, _ppt_mask(body.center + r[gen, None, None] * omegas[gen], shape)

    w, hits = _sweep(n, rng, 1, kernel)
    _require_generic(len(w), n)
    value, stderr = _ratio_estimate(w * hits.astype(float), w, 1.0)
    return Estimate(value, stderr, len(w), rng.describe(),
                    f"boundary_ppt_fraction[{shape}]")


def cross_validate_area(shape: BipartiteShape, n: int, rng: RngStream,
                        shards: int = 1) -> AreaCrossCheck:
    """PPT boundary area two ways: radial integral vs doubled hit count.

    Route one integrates the radial surface element r^D / h over the PPT
    body. Route two doubles p_boundary times the total area (the boundary
    splits evenly between the body's own faces and reflected ones, the corner
    set being area-free). The total area is the sampled volume of the full
    body times the closed-form constant-height ratio A/V = D / r_in, in
    either field.

    Every sampled height h of a state body equals r_in by construction, so
    route one is D / r_in times the radial volume V_ppt, and the check
    compares V_ppt / V_full, the interior PPT fraction measured by radial
    volumes, with 2 p_boundary: the boundary-doubling identity, not an
    agreement of two independent area measurements.
    """
    _check_n(n)
    a_ppt = mc_area(BodySpec("ppt", shape), n, rng.child(0), shards)
    p_a = _with_hits(estimate_p_boundary(shape, n, rng.child(1), shards),
                     "boundary", shape)
    v_tot = mc_volume(BodySpec("full", shape), n, rng.child(2), shards)
    doubled_value = 2.0 * p_a.value * (v_tot.value * analytic_area_volume_ratio(shape))
    rel = math.sqrt((p_a.stderr / p_a.value) ** 2 + (v_tot.stderr / v_tot.value) ** 2)
    doubled = Estimate(doubled_value, _floor_stderr(doubled_value, doubled_value * rel),
                       n, rng.describe(), f"doubled_area[{shape}]")
    disc = abs(a_ppt.value - doubled.value) / math.sqrt(
        a_ppt.stderr ** 2 + doubled.stderr ** 2
    )
    return AreaCrossCheck(shape, a_ppt, doubled, disc)
