"""Monte Carlo estimators over the state body and its PPT section.

Volume and area come from radial integrals over uniform directions omega:

    V = S_{D-1}/D * E[r(omega)^D]
    A = S_{D-1}   * E[r(omega)^{D-1} / <omega, n(omega)>]

with D the body dimension and n(omega) the outward unit normal at the contact
point. The same four estimators (volume, area, gamma, height certificate)
serve the state bodies and the polytopes of :mod:`statebody.polytopes`; only
the per-direction kernel that yields (log r, height, generic) differs. On a
state body that kernel solves for eigenvalues only, and its heights equal the
insphere radius by construction, so the state-body test of constant height
that can fail is :func:`radius_law`: boundary radii against interior radial
values in a two-sample KS test.

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
from scipy import stats

from . import polytopes
from .geometry import (
    BodySpec,
    _contact_batch,
    _radial_batch,
    analytic_area_volume_ratio,
    inscribed_radius,
)
from .hermitian import BipartiteShape, partial_transpose
from .hermitian import ppt_mask as _ppt_mask
from .sampling import RngStream, sample_boundary_state_hs, sample_direction, sample_state_hs

BATCH = 1 << 16
STDERR_REL_FLOOR = 1e-12
NONGENERIC_WARN_FRACTION = 1e-3


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


@dataclass(frozen=True)
class AreaCrossCheck:
    """PPT boundary area measured along two independent routes."""

    shape: BipartiteShape
    radial: Estimate
    doubled: Estimate
    discrepancy_sigma: float


@dataclass(frozen=True)
class HeightCertificate:
    """Sampled constant-height certificate for one body.

    ``insphere_radius`` is the radius the support heights are compared with:
    the insphere radius of a state body, the unit sphere of a polytope. On a
    state body every sampled height is c r (tr omega / N - lambda_min) with
    r = 1 / (N |lambda_min|), the insphere radius identically, so the
    certificate reads only eigensolver rounding and cannot fail there;
    :class:`RadiusLaw` is the state-body test that can. State bodies keep it
    because the benchmark's gamma-radial workload runs the height-check
    experiment.
    """

    body: str
    n_samples: int
    n_nongeneric: int
    max_abs_deviation: float
    insphere_radius: float
    tol: float
    seed: str

    @property
    def passed(self) -> bool:
        return (self.max_abs_deviation <= self.tol
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
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise ValueError(f"n_samples must be a positive integer, got {n!r}")


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


@dataclass(frozen=True)
class _Radial:
    """Per-direction radial samples of one body.

    ``logr`` holds log r(omega), ``h`` the support height of the face met and
    ``generic`` whether that face is unique. ``r_in`` is the insphere radius
    when it is known exactly, else None.
    """

    dim: int
    r_in: float | None
    logr: np.ndarray
    h: np.ndarray
    generic: np.ndarray


def _radial(body: BodySpec | polytopes.TangentBody, n: int, rng: RngStream,
            shards: int) -> _Radial:
    """Sweep n uniform directions of a state body or a polytope.

    State bodies draw traceless directions in chunks of BATCH and run the
    eigenvalue-only contact kernel for every estimator. Polytopes draw in
    chunks of polytopes._SWEEP_BATCH and measure heights against the unit
    sphere, which is their insphere when every generator has unit norm.
    """
    if isinstance(body, polytopes.TangentBody):
        logr, h, gen = _sweep(
            n, rng, shards,
            lambda stream, count: polytopes._radial_sweep(body, count, stream),
            batch=polytopes._SWEEP_BATCH)
        return _Radial(body.dim, 1.0 if body.all_unit else None, logr, h, gen)

    def kernel(stream, count):
        omegas = sample_direction(body.shape, stream, count)
        r, h, _, _, nong = _contact_batch(body, omegas)
        return np.log(r), h, ~nong

    logr, h, gen = _sweep(n, rng, shards, kernel)
    return _Radial(body.shape.dim_body, inscribed_radius(body.shape.n), logr, h, gen)


def _generic_terms(rad: _Radial, n: int):
    """Volume and area integrands r^D and r^D / h on the generic directions.

    Non-generic directions (no unique supporting face) are discarded.
    """
    _require_generic(int(np.sum(rad.generic)), n)
    v = np.exp(rad.dim * rad.logr[rad.generic])
    return v, v / rad.h[rad.generic]


def mc_volume(body: BodySpec | polytopes.TangentBody, n: int, rng: RngStream,
              shards: int = 1) -> Estimate:
    """Volume of a state body or polytope by the radial integral over
    uniform directions."""
    _check_n(n)
    rad = _radial(body, n, rng, shards)
    d = rad.dim
    value, stderr = _mean_estimate(np.exp(d * rad.logr), sphere_area(d) / d)
    return Estimate(value, stderr, n, rng.describe(), f"mc_volume[{body}]")


def mc_area(body: BodySpec | polytopes.TangentBody, n: int, rng: RngStream,
            shards: int = 1) -> Estimate:
    """Boundary area of a state body or polytope by the radial surface
    integral over generic directions."""
    _check_n(n)
    rad = _radial(body, n, rng, shards)
    _, a = _generic_terms(rad, n)
    value, stderr = _mean_estimate(a, sphere_area(rad.dim))
    return Estimate(value, stderr, len(a), rng.describe(), f"mc_area[{body}]")


def mc_gamma(body: BodySpec | polytopes.TangentBody, n: int, rng: RngStream,
             shards: int = 1) -> Estimate:
    """The dimensionless ratio gamma = r_in * A / V on shared direction samples.

    A and V share the same radial samples, so gamma is a correlated ratio; the
    stderr comes from the paired delta method. For a constant-height body the
    estimate equals the body dimension up to rounding. A polytope with a
    generator inside the unit ball takes r_in as the smallest support height
    seen (an empirical value, noted in the estimator id).
    """
    _check_n(n)
    rad = _radial(body, n, rng, shards)
    v, a = _generic_terms(rad, n)
    r_in, tag = rad.r_in, ""
    if r_in is None:
        r_in, tag = float(np.min(rad.h[rad.generic])), ",insphere=empirical"
    value, stderr = _ratio_estimate(a, v, r_in * rad.dim)
    return Estimate(value, stderr, len(v), rng.describe(), f"mc_gamma[{body}{tag}]")


def height_certificate(body: BodySpec | polytopes.TangentBody, n: int,
                       rng: RngStream, tol: float = 1e-9,
                       shards: int = 1) -> HeightCertificate:
    """Max deviation of sampled support heights from the reference radius:
    the insphere radius of a state body, the unit sphere of a polytope. No
    generic direction at all raises :class:`InsufficientSamplesError`."""
    _check_n(n)
    rad = _radial(body, n, rng, shards)
    if not np.any(rad.generic):
        raise InsufficientSamplesError(f"all {n} sampled directions were non-generic")
    # a polytope's reference is the unit sphere, even when r_in is unknown
    r_ref = rad.r_in if rad.r_in is not None else 1.0
    return HeightCertificate(
        body=str(body),
        n_samples=n,
        n_nongeneric=int(n - np.sum(rad.generic)),
        max_abs_deviation=float(np.max(np.abs(rad.h[rad.generic] - r_ref))),
        insphere_radius=r_ref,
        tol=tol,
        seed=rng.describe(),
    )


def radius_law(body: BodySpec, n: int, rng: RngStream) -> RadiusLaw:
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

    (r_bdy,) = _sweep(n, rng.child(0), 1, boundary)
    (r_int,) = _sweep(n, rng.child(1), 1, interior)
    if len(r_bdy) == 0 or len(r_int) == 0:
        raise InsufficientSamplesError(
            f"no PPT {'boundary' if len(r_bdy) == 0 else 'interior'} state in "
            f"{n} draws for {body}; the radius law needs both sides")
    p_value = float(stats.ks_2samp(r_bdy, r_int).pvalue)
    return RadiusLaw(str(body), len(r_bdy), len(r_int), p_value, rng.describe())


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
    """PPT probability of Hilbert-Schmidt interior samples."""
    return _ppt_fraction("p_interior", shape, n, rng, shards, lambda stream, count:
                         sample_state_hs(shape, stream, count))


def estimate_p_boundary(shape: BipartiteShape, n: int, rng: RngStream,
                        shards: int = 1) -> Estimate:
    """PPT probability of boundary samples under the surface measure."""
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
    :class:`InsufficientSamplesError`, the boundary checked first.
    """
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
    within each delta of zero.

    The corner set of the PPT body's boundary has codimension one inside the
    boundary, so the fractions should scale linearly in delta.
    """
    _check_n(n)
    deltas = [float(x) for x in deltas]
    if any(x <= 0 for x in deltas):
        raise ValueError(f"deltas must be positive, got {deltas}")
    if any(b >= a for a, b in zip(deltas, deltas[1:])):
        raise ValueError(f"deltas must be strictly decreasing, got {deltas}")

    def kernel(stream, count):
        states, _ = sample_boundary_state_hs(shape, stream, count)
        pt = partial_transpose(states, shape)
        closest = np.min(np.abs(np.linalg.eigvalsh(pt)), axis=-1)
        return (np.array([[np.sum(closest < d) for d in deltas]]),)

    (counts,) = _sweep(n, rng, shards, kernel)
    rows = []
    for d, c in zip(deltas, counts.sum(axis=0)):
        p, se = _binomial_estimate(int(c), n)
        rows.append((d, p, se))
    return CornerProbeResult(shape, n, rng.describe(), tuple(rows))


def mc_boundary_ppt_fraction(shape: BipartiteShape, n: int, rng: RngStream) -> Estimate:
    """PPT fraction of the full body's boundary via the radial area integral.

    Weighs each sampled direction by its surface element and tests the contact
    point for PPT; agrees with estimate_p_boundary without ever drawing a
    boundary sample, which makes it an independent check on the boundary
    sampler's eigenvalue density. Too many non-generic directions raise
    :class:`InsufficientSamplesError`, as in the area estimators.
    """
    _check_n(n)
    body = BodySpec("full", shape)
    d = shape.dim_body

    def kernel(stream, count):
        omegas = sample_direction(shape, stream, count)
        r, h, _, _, nong = _contact_batch(body, omegas)
        gen = ~nong
        w = np.exp(d * np.log(r[gen])) / h[gen]
        return w, _ppt_mask(body.center + r[gen, None, None] * omegas[gen], shape)

    w, hits = _sweep(n, rng, 1, kernel)
    _require_generic(len(w), n)
    value, stderr = _ratio_estimate(w * hits.astype(float), w, 1.0)
    return Estimate(value, stderr, len(w), rng.describe(),
                    f"boundary_ppt_fraction[{shape}]")


def cross_validate_area(shape: BipartiteShape, n: int, rng: RngStream,
                        shards: int = 1) -> AreaCrossCheck:
    """PPT boundary area two ways: radial integral vs doubled hit count.

    Route one integrates the radial surface element over the PPT body. Route
    two doubles p_boundary times the total area (the boundary splits evenly
    between the body's own faces and reflected ones, the corner set being
    area-free). The total area is the sampled volume of the full body times
    the closed-form constant-height ratio A/V = D / r_in, in either field.
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
