"""Acceptance suite: the headline claims at production sample counts.

Each test below is one acceptance criterion run at full scale and prints a
single PASS/FAIL line (run with -s to watch them stream). Expect a few
minutes of wall time for the whole module; the per-module unit tests cover
the same code paths at toy sizes.
"""

import json
import math

import numpy as np
import pytest
from scipy.optimize import linprog

from ginibre_reference import blocks_of, scaled_directions

from statebody import estimators
from statebody import (
    BipartiteShape,
    BodySpec,
    RngStream,
    TangentBody,
    config_from_dict,
    corner_probe,
    cross_validate_area,
    cube_generators,
    estimate_omega,
    inner_law,
    intersect_bodies,
    mc_gamma,
    mc_volume,
    radius_law,
    random_unit_generators,
    run_experiment,
    sampler_validation,
    simplex_generators,
)

N_OMEGA = 1_000_000
N_GAMMA = 100_000
N_GAMMA_PPT = 200_000
N_VOLUME = 1_000_000
N_CORNER = 1_000_000
N_VALIDATE = 100_000
N_POLY = 100_000
SIGMA = 3.0


def _report(num: int, name: str, ok: bool, detail: str) -> str:
    line = f"criterion {num} [{name}]: {'PASS' if ok else 'FAIL'} -- {detail}"
    print(line, flush=True)
    return line


def test_criterion_1_interior_boundary_ppt_ratio():
    """The interior PPT probability is twice the boundary one.

    For 2x2, PPT = separable (Horodecki 1996), so p_interior is the exact
    Hilbert-Schmidt separability probability, 8/33 complex and 29/64 real
    (Slater; Lovas & Andai 2017), and p_boundary is half of it.

    For 2x3 there is no exact value. The line also prints, with no band,
    the z of p_interior against a conjectured value, 27/1000 complex and
    860/6561 real, and of p_boundary against half of it.
    """
    cases = [
        (BipartiteShape(2, 2, "complex"), 3101, 8 / 33, "exact"),
        (BipartiteShape(2, 3, "complex"), 3102, 27 / 1000, "conjectured 27/1000"),
        (BipartiteShape(2, 2, "real"), 3103, 29 / 64, "exact"),
        (BipartiteShape(2, 3, "real"), 3104, 860 / 6561, "conjectured 860/6561"),
    ]
    bits, ok = [], True
    for shape, seed, p_ppt, source in cases:
        rep = estimate_omega(shape, N_OMEGA, RngStream(seed))
        dev = (rep.omega - 2.0) / rep.stderr
        good = abs(dev) <= SIGMA and rep.stderr < 0.05
        dev_v = (rep.p_interior.value - p_ppt) / rep.p_interior.stderr
        dev_a = (rep.p_boundary.value - p_ppt / 2) / rep.p_boundary.stderr
        bit = (f"{shape}: {rep.omega:.4f}+-{rep.stderr:.4f} ({dev:+.2f}s)"
               f", p_int {dev_v:+.2f}s, p_bdy {dev_a:+.2f}s")
        if source == "exact":
            good &= abs(dev_v) <= SIGMA and abs(dev_a) <= SIGMA
        else:
            bit += f" vs {source} and half of it (no band)"
        ok &= good
        bits.append(bit)
    line = _report(1, "omega = 2", ok, "; ".join(bits))
    assert ok, line


def _hs_volume(n: int, field: str) -> float:
    """Hilbert-Schmidt volume of the N x N state body (Zyczkowski & Sommers
    2003): sqrt(N) (2 pi)^(beta N(N-1)/4) prod_{k=1}^N Gamma(1 + beta(k-1)/2)
    / Gamma(D + 1), with beta = 2 (complex) or 1 (real) and D the body's
    dimension. The real case is the complex derivation with the real
    multivariate gamma function and a factor sqrt(2) per off-diagonal
    coordinate of the Hilbert-Schmidt metric."""
    beta = 2 if field == "complex" else 1
    dim = BipartiteShape(1, n, field).dim_body
    return math.exp(0.5 * math.log(n)
                    + 0.25 * beta * n * (n - 1) * math.log(2 * math.pi)
                    + sum(math.lgamma(1 + beta * (k - 1) / 2) for k in range(1, n + 1))
                    - math.lgamma(dim + 1))


def test_criterion_2_gamma_equals_dimension():
    """r * A / V equals the dimension on the full body and on the PPT body
    (the paper's claim), plus absolute volumes: the N=2 ball exactly, N=3
    and 4 in both fields against Zyczkowski-Sommers.

    Gamma is measured by the inner-parallel law: N lambda_min of uniform
    states in the body is Beta(1, D), and its estimate of D must lie within
    SIGMA stderr of the dimension with the law's chi-square p > 0.01. Full
    bodies take N_GAMMA draws, PPT bodies N_GAMMA_PPT, of which the PPT
    rows are kept."""
    bodies = [(BodySpec("full", BipartiteShape(1, m, field)), N_GAMMA, 3200 + m)
              for field in ("complex", "real") for m in (2, 3, 4)]
    bodies += [(BodySpec("ppt", BipartiteShape(2, m, field)), N_GAMMA_PPT, seed)
               for (field, m), seed in zip((("complex", 2), ("complex", 3),
                                            ("real", 2), ("real", 3)), range(3213, 3217))]
    bits, ok = [], True
    for body, n, seed in bodies:
        law = inner_law(body, n, RngStream(seed))
        est = law.gamma
        dev = (est.value - body.dim) / est.stderr
        ok &= abs(dev) <= SIGMA and law.p_value > 0.01
        bits.append(f"{body}: {est.value:.4f}+-{est.stderr:.4f} vs "
                    f"{body.dim} ({dev:+.2f}s, p={law.p_value:.3f})")
    ball = BodySpec("full", BipartiteShape(1, 2))
    vol = mc_volume(ball, N_VOLUME, RngStream(3207))
    ok &= abs(vol.value - math.pi * math.sqrt(2.0) / 3) <= SIGMA * vol.stderr
    bits.append(f"V2={vol.value:.8f}")
    assert _hs_volume(2, "complex") == pytest.approx(math.pi * math.sqrt(2.0) / 3,
                                                     rel=1e-14)
    assert _hs_volume(2, "real") == pytest.approx(math.pi / 2, rel=1e-14)
    for field, m, seed in (("complex", 3, 3209), ("complex", 4, 3210),
                           ("real", 3, 3211), ("real", 4, 3212)):
        shape = BipartiteShape(1, m, field)
        vol = mc_volume(BodySpec("full", shape), N_VOLUME, RngStream(seed))
        dev = (vol.value - _hs_volume(m, field)) / vol.stderr
        ok &= abs(dev) <= SIGMA
        bits.append(f"V({shape})={vol.value:.6g} vs {_hs_volume(m, field):.6g}"
                    f" ({dev:+.2f}s)")
    line = _report(2, "gamma = D", ok, "; ".join(bits))
    assert ok, line


def test_criterion_3_constant_height_certificates():
    """Boundary radii share the law of interior radial values, as constant
    height requires; PPT bodies compare their PPT states on both sides."""
    cases = [
        (BodySpec("full", BipartiteShape(1, 3)), 200_000),
        (BodySpec("full", BipartiteShape(1, 4, "real")), 200_000),
        (BodySpec("ppt", BipartiteShape(2, 2)), 400_000),
        (BodySpec("ppt", BipartiteShape(2, 2, "real")), 200_000),
    ]
    bits, ok = [], True
    for i, (body, n) in enumerate(cases):
        law = radius_law(body, n, RngStream(3300 + i))
        ok &= law.p_value > 0.01
        bits.append(f"{body}: p={law.p_value:.3f}"
                    f" ({law.n_boundary} vs {law.n_interior})")
    line = _report(3, "radius law of constant height", ok, "; ".join(bits))
    assert ok, line


def test_criterion_4_corner_probe_and_area_doubling():
    """Corners are measure zero, so the boundary of the PPT body splits
    evenly between its own faces and the reflected ones: the radial PPT
    volume fraction equals twice the boundary PPT fraction, and on 2x2
    complex the exact separable volume fraction 8/33 (Slater; Lovas & Andai
    2017)."""
    shape = BipartiteShape(2, 2)
    res = corner_probe(shape, N_CORNER, (1e-1, 1e-2, 1e-3, 1e-4), RngStream(3401))
    fracs = [row[1] for row in res.rows]
    mono = all(a > b for a, b in zip(fracs, fracs[1:]))
    last_ratio = fracs[-1] / fracs[-2]
    check = cross_validate_area(shape, N_POLY, RngStream(3402))
    dev_exact = (check.radial.value - 8 / 33) / check.radial.stderr
    ok = (mono and last_ratio <= 0.2 and abs(check.discrepancy_sigma) <= SIGMA
          and abs(dev_exact) <= SIGMA)
    detail = (f"fractions={['%.2e' % f for f in fracs]} last-ratio={last_ratio:.3f}"
              f" radial={check.radial.value:.4f}+-{check.radial.stderr:.4f}"
              f" vs doubled {check.discrepancy_sigma:+.2f}s, vs 8/33 {dev_exact:+.2f}s")
    line = _report(4, "corner probe + area doubling", ok, detail)
    assert ok, line


def test_criterion_4_exact_fraction_fails_for_a_wrong_direction_law(monkeypatch):
    """Criterion 4's exact check of the radial PPT volume fraction, 8/33 on
    2x2 complex, and its doubling check fail when the parts of each
    direction off the diagonal are scaled by 1 in place of sqrt(1/2): the
    directions are then not uniform, and the fraction reads about 7% low,
    -6.4 and -6.1 sigma here.

    Criterion 2's full-body volumes are nearly blind to this fault, as the
    law of r(omega) on a full body depends on the spectrum of omega alone:
    on full 1x3 complex the volume reads about 0.3% low, -1.9 sigma at
    criterion 2's 10^6 directions, so no check of it is a control."""
    monkeypatch.setattr(estimators, "direction_blocks", blocks_of(scaled_directions(1.0)))
    check = cross_validate_area(BipartiteShape(2, 2), 1 << 19, RngStream(3402))
    dev_exact = (check.radial.value - 8 / 33) / check.radial.stderr
    assert dev_exact < -SIGMA and check.discrepancy_sigma < -SIGMA, \
        f"vs 8/33 {dev_exact:+.2f}s, vs doubled {check.discrepancy_sigma:+.2f}s"


def test_criterion_5_sampler_distribution_battery():
    """Boundary eigenvalue law, purity tail and Bloch uniformity."""
    checks = sampler_validation("complex", N_VALIDATE, RngStream(3501))
    ok = checks.pop("all_passed")
    bits = []
    for name, res in checks.items():
        tag = f"p={res['p_value']:.3f}" if "p_value" in res else \
            f"{res['sigma']:+.2f}s"
        bits.append(f"{name}: {tag}{'' if res['passed'] else ' !'}")
    line = _report(5, "sampler battery", ok, "; ".join(bits))
    assert ok, line


def _face_exposed(gens: np.ndarray, idx: int) -> bool:
    """LP oracle: does dropping face idx enlarge the polar body along it?"""
    y = gens[idx]
    rest = np.delete(gens, idx, axis=0)
    res = linprog(-y, A_ub=rest, b_ub=np.ones(len(rest)),
                  bounds=[(None, None)] * gens.shape[1], method="highs")
    assert res.status == 0
    return -res.fun > 1.0 + 1e-9


def test_criterion_6_polytope_constant_height_lab():
    """gamma = D exactly for sphere-tangent polytopes and not otherwise:
    mc_gamma is a polytope's one test of constant height."""
    def reads(est, value):
        return abs(est.value - value) <= SIGMA * est.stderr

    def below(est, value):
        return est.value < value - SIGMA * est.stderr

    bits, ok = [], True
    for dim in (2, 3, 4):
        for maker in (cube_generators, simplex_generators):
            est = mc_gamma(TangentBody(maker(dim)), N_POLY,
                                    RngStream(3600 + dim))
            ok &= reads(est, dim)
            bits.append(f"{maker.__name__[:-11]}{dim}: {est.value:.6g}")
    rect = TangentBody(np.array([[1.0, 0], [-1.0, 0], [0, -1.0], [0, 2 / 3]]))
    rect_est = mc_gamma(rect, N_POLY, RngStream(3610))
    ok &= reads(rect_est, 1.8)
    bits.append(f"rect: {rect_est.value:.4f}+-{rect_est.stderr:.4f}")

    c, s = math.cos(math.pi / 4), math.sin(math.pi / 4)
    rot = cube_generators(2) @ np.array([[c, -s], [s, c]]).T
    octa = intersect_bodies(TangentBody(cube_generators(2)), TangentBody(rot))
    octa_est = mc_gamma(octa, N_POLY, RngStream(3611))
    ok &= reads(octa_est, 2.0)
    bits.append(f"octagon: {octa_est.value:.6g}")

    # twenty random sphere-tangent bodies read D; shrinking one generator to
    # norm 0.8 must pull gamma below D whenever that face stays exposed (an
    # LP decides exposure independently of the sweep)
    n_exposed = 0
    for i in range(20):
        gens = random_unit_generators(4, 500, RngStream(3620 + i))
        ok &= reads(mc_gamma(TangentBody(gens), 20_000, RngStream(3640 + i)), 4)
        shrunk = gens.copy()
        shrunk[0] *= 0.8
        sest = mc_gamma(TangentBody(shrunk), 20_000, RngStream(3660 + i))
        if _face_exposed(shrunk, 0):
            n_exposed += 1
            ok &= below(sest, 4)
        else:
            # the shrunk face is cut off by its neighbours: still tangent
            ok &= reads(sest, 4)
    # a shrunk generator among 500 random ones is usually redundant, so pin
    # the failure branch with a body whose shrunk face provably survives
    exposed = np.vstack([cube_generators(2),
                         0.8 * np.array([[1.0, 1.0]]) / math.sqrt(2.0)])
    assert _face_exposed(exposed, 4)
    eest = mc_gamma(TangentBody(exposed), 20_000, RngStream(3680))
    ok &= below(eest, 2)
    bits.append(f"random bodies: 20 read D, {n_exposed} shrunk-exposed,"
                f" pinned exposed gamma={eest.value:.4f}+-{eest.stderr:.4f}")
    line = _report(6, "polytope lab", ok, "; ".join(bits))
    assert ok, line


def test_criterion_7_byte_identical_reruns():
    """Same config, same seed, same shards: every number identical."""
    configs = [
        {"experiment": "omega", "shape": "2x2", "n_samples": 10_000, "seed": 37,
         "shards": 4},
        {"experiment": "gamma", "shape": "1x3", "n_samples": 1_000, "seed": 38,
         "field": "real"},
        {"experiment": "polytope-gamma", "preset": "simplex", "dim": 3,
         "n_samples": 1_000, "seed": 39},
    ]
    bits, ok = [], True
    for d in configs:
        a = run_experiment(config_from_dict(d), write=False)
        b = run_experiment(config_from_dict(d), write=False)
        same = (json.dumps(a.metrics, sort_keys=True)
                == json.dumps(b.metrics, sort_keys=True)
                and a.value == b.value and a.stderr == b.stderr)
        ok &= same
        bits.append(f"{d['experiment']}: {'identical' if same else 'DRIFTED'}")
    line = _report(7, "deterministic reruns", ok, "; ".join(bits))
    assert ok, line
