"""Distribution checks for the samplers, used by the validate-samplers command.

Two-sample tests pit the production route against an independent one (in
both fields, the spectra of production boundary states against the exact
beta-Laguerre bidiagonal model, which serves only as this oracle). The two
share no draw and no eigen kernel: production reads its N <= 4 spectra off
the power sums in closed form, the oracle takes LAPACK's ``eigvalsh``. A
one-sample test compares the largest N = 3 boundary eigenvalue with its
closed-form law, and scalar checks compare sampled tail probabilities
against closed-form values. Each check reports a p-value or a sigma
deviation plus a verdict.
"""

from __future__ import annotations

import math

import numpy as np

from .hermitian import BipartiteShape
from .sampling import (
    RngStream,
    boundary_eigenvalues_laguerre,
    boundary_eigenvalues_wishart,
    sample_boundary_state_hs,
    sample_state_hs,
)

PURITY_TAIL_COMPLEX = 1.0 - 2.0 ** -1.5  # P(Tr rho^2 > 3/4), N = 2 complex
PURITY_TAIL_REAL = 0.5                   # same tail for the real ensemble
CHI2_BINS = 20
CHI2_BINS_2D = 5


def _quantile_edges(pooled: np.ndarray, bins: int) -> np.ndarray:
    qs = np.linspace(0.0, 1.0, bins + 1)
    edges = np.quantile(pooled, qs)
    edges[0], edges[-1] = -np.inf, np.inf
    return np.unique(edges)


def two_sample_chi2(x: np.ndarray, y: np.ndarray, bins: int) -> float:
    """p-value of a two-sample chi-squared test on (n, d) samples.

    The cells are the grid of ``bins`` pooled marginal quantile bins per axis;
    cells holding fewer than 10 pooled counts (near-empty corners) are dropped.
    """
    from scipy import stats  # lazy, so `import statebody` loads numpy only

    pooled = np.concatenate([x, y])
    edges = [_quantile_edges(pooled[:, j], bins) for j in range(pooled.shape[1])]
    cx = np.histogramdd(x, bins=edges)[0].ravel()
    cy = np.histogramdd(y, bins=edges)[0].ravel()
    keep = (cx + cy) >= 10
    table = np.vstack([cx[keep], cy[keep]])
    if table.shape[1] < 2:
        return 1.0
    return float(stats.chi2_contingency(table).pvalue)


def boundary_lmax_cdf_n3(u: np.ndarray, field: str) -> np.ndarray:
    """CDF of u = 2 lambda_max - 1 for the nonzero boundary spectrum at N = 3.

    Under f the pair (lambda_min, lambda_max) = ((1-u)/2, (1+u)/2) has density
    proportional to u^beta (1 - u^2)^beta on [0, 1].
    """
    u = np.clip(u, 0.0, 1.0)
    if field == "complex":
        return 105.0 / 8.0 * (u**3 / 3 - 2 * u**5 / 5 + u**7 / 7)
    return 2 * u**2 - u**4


def _purity(states: np.ndarray) -> np.ndarray:
    return np.sum(np.abs(states) ** 2, axis=(-2, -1))


def _bloch(states: np.ndarray) -> np.ndarray:
    x = 2.0 * states[:, 0, 1].real
    y = -2.0 * states[:, 0, 1].imag
    z = (states[:, 0, 0] - states[:, 1, 1]).real
    return np.stack([x, y, z], axis=1)


def sampler_validation(field: str, n: int, rng: RngStream,
                       p_threshold: float = 0.01) -> dict:
    """Run the full battery for one field; returns named check results.

    Each entry maps to a dict with a ``passed`` flag and either ``p_value``
    (distribution tests at the ``p_threshold`` level) or ``sigma`` (closed
    form comparisons, 4 sigma bands).
    """
    from scipy import stats  # lazy, so `import statebody` loads numpy only

    checks = {}

    # boundary eigenvalue law: spectra of production boundary states vs the
    # independent beta-Laguerre model, for either field
    lam3_w = boundary_eigenvalues_wishart(3, field, rng.child(10), n)
    lam3_m = boundary_eigenvalues_laguerre(3, field, rng.child(11), n)
    ks = stats.ks_2samp(lam3_w[:, -1], lam3_m[:, -1])
    checks["boundary_lmax_ks_n3"] = {
        "p_value": float(ks.pvalue), "passed": bool(ks.pvalue > p_threshold)}
    # and vs the closed form, which no sampler shares: this also covers the
    # closed-form N = 3 spectra of production; its N = 4 cubic roots are
    # covered by the chi-square against the oracle's LAPACK spectra below
    p_exact = float(stats.kstest(
        2.0 * lam3_w[:, -1] - 1.0, lambda u: boundary_lmax_cdf_n3(u, field)).pvalue)
    checks["boundary_lmax_exact_ks_n3"] = {
        "p_value": p_exact, "passed": bool(p_exact > p_threshold)}
    p3 = two_sample_chi2(lam3_w[:, -1:], lam3_m[:, -1:], CHI2_BINS)
    checks["boundary_joint_chi2_n3"] = {
        "p_value": p3, "passed": bool(p3 > p_threshold)}
    # each check's arrays go as soon as its verdict is in, so the battery
    # holds one check's samples at a time
    del lam3_w, lam3_m

    lam4_w = boundary_eigenvalues_wishart(4, field, rng.child(12), n)
    lam4_m = boundary_eigenvalues_laguerre(4, field, rng.child(13), n)
    p4 = two_sample_chi2(lam4_w[:, 1:], lam4_m[:, 1:], CHI2_BINS_2D)
    checks["boundary_joint_chi2_n4"] = {
        "p_value": p4, "passed": bool(p4 > p_threshold)}
    del lam4_w, lam4_m

    # interior purity tail against the closed-form value
    shape2 = BipartiteShape(1, 2, field)
    states = sample_state_hs(shape2, rng.child(14), n)
    target = PURITY_TAIL_COMPLEX if field == "complex" else PURITY_TAIL_REAL
    phat = float(np.mean(_purity(states) > 0.75))
    del states
    se = math.sqrt(max(phat * (1 - phat), 1e-12) / n)
    sig = abs(phat - target) / se
    checks["purity_tail_n2"] = {
        "value": phat, "target": target, "sigma": sig, "passed": bool(sig <= 4.0)}

    # boundary states of a qubit are pure and isotropic on the Bloch sphere
    # (a circle in the real case, where the y component vanishes)
    bstates = sample_boundary_state_hs(shape2, rng.child(15), n)
    bloch = _bloch(bstates)
    radii = np.linalg.norm(bloch, axis=1)
    comps = (0, 1, 2) if field == "complex" else (0, 2)
    var = 1.0 / 3.0 if field == "complex" else 0.5
    worst = max(abs(float(np.mean(bloch[:, i]))) / math.sqrt(var / n)
                for i in comps)
    pure_ok = bool(np.max(np.abs(radii - 1.0)) <= 1e-10)
    checks["bloch_uniform_n2"] = {
        "sigma": worst, "radii_pure": pure_ok,
        "passed": bool(worst <= 4.0 and pure_ok)}

    checks["all_passed"] = all(
        c["passed"] for k, c in checks.items() if isinstance(c, dict))
    return checks
