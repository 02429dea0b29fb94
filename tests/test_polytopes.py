"""Polar polytope lab: tangent bodies, radial sweeps, constant height."""

import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize

from statebody import polytopes
from statebody import (
    RngStream,
    TangentBody,
    UnboundedBodyError,
    cross_generators,
    cube_generators,
    intersect_bodies,
    mc_area,
    mc_gamma,
    mc_volume,
    random_unit_generators,
    simplex_generators,
)

RECT = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, -1.0], [0.0, 2.0 / 3.0]])
SRC = Path(__file__).resolve().parents[1] / "src"


def rotated_square(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    rot = np.array([[c, -s], [s, c]])
    return cube_generators(2) @ rot.T


# ---------------------------------------------------------------------------
# generator factories


def test_cube_generators():
    g = cube_generators(3)
    assert g.shape == (6, 3)
    assert np.allclose(np.linalg.norm(g, axis=1), 1.0)
    assert np.allclose(g.sum(axis=0), 0.0)


def test_cross_generators():
    g = cross_generators(2)
    assert g.shape == (4, 2)
    assert np.allclose(np.linalg.norm(g, axis=1), 1.0)
    assert np.allclose(np.abs(g), 1 / math.sqrt(2.0))
    with pytest.raises(ValueError):
        cross_generators(20)  # 2^20 generators is asking for trouble


def test_simplex_generators():
    for dim in (2, 3, 4):
        g = simplex_generators(dim)
        assert g.shape == (dim + 1, dim)
        assert np.allclose(np.linalg.norm(g, axis=1), 1.0, atol=1e-12)
        assert np.allclose(g.sum(axis=0), 0.0, atol=1e-12)
        # pairwise angles of a regular simplex
        dots = g @ g.T
        off = dots[~np.eye(dim + 1, dtype=bool)]
        assert np.allclose(off, -1.0 / dim, atol=1e-12)


def test_random_unit_generators():
    g = random_unit_generators(4, 100, RngStream(13))
    assert g.shape == (100, 4)
    assert np.allclose(np.linalg.norm(g, axis=1), 1.0, atol=1e-12)
    assert np.array_equal(g, random_unit_generators(4, 100, RngStream(13)))


@pytest.mark.parametrize("dim", range(1, 12))
def test_random_unit_generators_match_linalg_norm(dim):
    """Norms added in index order are np.linalg.norm's bit for bit up to
    dimension 7. From 8 on numpy adds each row in unrolled blocks, and over
    200,000 rows per dimension 8-11 the norms differed by up to 3 ulps and
    the entries by up to 4."""
    for size in (0, 1, 2, 8192):
        g = RngStream(4750 + size).generator().standard_normal((size, dim))
        want = g / np.linalg.norm(g, axis=1, keepdims=True)
        got = random_unit_generators(dim, size, RngStream(4750 + size))
        assert got.shape == want.shape
        if dim <= 7:
            assert got.tobytes() == want.tobytes(), size
        else:
            np.testing.assert_array_max_ulp(got, want, maxulp=4)


PRESETS = {
    "cube": cube_generators,
    "cross": cross_generators,
    "simplex": simplex_generators,
    "random-unit": lambda dim: random_unit_generators(dim, 10, RngStream(14)),
}


@pytest.mark.parametrize("preset", PRESETS.values(), ids=PRESETS.keys())
def test_presets_check_their_dimension(preset):
    """A bool, a non-integer or a dimension below one is refused by name;
    simplex_generators(True) used to return the dim-1 generators. A numpy
    integer gives the generators of its value."""
    for bad in (True, 1.5, 0, -1):
        with pytest.raises(ValueError, match="dim"):
            preset(bad)
    assert np.array_equal(preset(np.int64(3)), preset(3))


def test_random_unit_generators_check_their_count():
    for bad in (True, 1.5, -1):
        with pytest.raises(ValueError, match="count"):
            random_unit_generators(3, bad, RngStream(15))
    assert random_unit_generators(3, 0, RngStream(15)).shape == (0, 3)
    assert np.array_equal(random_unit_generators(3, np.int32(7), RngStream(15)),
                          random_unit_generators(3, 7, RngStream(15)))


# ---------------------------------------------------------------------------
# construction


def test_tangent_body_basics():
    body = TangentBody(cube_generators(3))
    assert body.dim == 3
    assert body.n_generators == 6
    assert body.all_unit
    assert body.r_in == 1.0
    rect = TangentBody(RECT)
    assert not rect.all_unit
    # the far face moves out, the insphere stays the unit ball
    assert rect.r_in == 1.0
    with pytest.raises(AttributeError):
        body.dim = 4
    with pytest.raises(AttributeError):
        body.r_in = 2.0


def test_duplicate_generators_are_dropped():
    cube = TangentBody(cube_generators(3))
    doubled = TangentBody(np.vstack([cube_generators(3), [[1.0, 0.0, 0.0]]]))
    assert np.array_equal(doubled.generators, cube.generators)
    a = mc_gamma(cube, 5000, RngStream(11))
    b = mc_gamma(doubled, 5000, RngStream(11))
    assert (a.value, a.stderr, a.n_samples) == (b.value, b.stderr, b.n_samples)


def test_construction_runs_one_lp(monkeypatch):
    # polytopes imports linprog at call time, so it reads this patch
    calls, linprog = [], scipy.optimize.linprog
    monkeypatch.setattr(scipy.optimize, "linprog",
                        lambda *args, **kw: calls.append(1) or linprog(*args, **kw))
    TangentBody(random_unit_generators(6, 500, RngStream(12)))
    assert len(calls) == 1


def test_tangent_body_rejects_bad_input():
    with pytest.raises(ValueError):
        TangentBody(np.ones(3))  # not 2-D
    with pytest.raises(ValueError):
        TangentBody(np.zeros((3, 2)))  # zero rows
    with pytest.raises(ValueError, match=r"\(m, dim\) array"):
        TangentBody(np.zeros((3, 0)))  # no columns
    with pytest.raises(ValueError, match="unit ball"):
        TangentBody(np.vstack([cube_generators(2), [[np.nan, 0.0]]]))


def test_unbounded_body_is_rejected():
    for generators in (
        [[1.0, 0.0], [0.0, 1.0]],  # a quadrant: some product is negative
        [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]],  # a half-strip: a ray escapes
        # a slab in 3-D: rank 2, every product along e3 vanishes
        [[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, -1.0, 0.0]],
    ):
        with pytest.raises(UnboundedBodyError, match=r"unbounded along direction \["):
            TangentBody(np.array(generators))


# ---------------------------------------------------------------------------
# radial function and contacts


def binding(body: TangentBody, direction) -> tuple:
    """(1 / r, binding generator, tie) along one direction, normalized, from
    the binding kernel on a stack of one."""
    d = np.asarray(direction, dtype=float)
    smax, idx, ties = polytopes._binding(body, (d / np.linalg.norm(d))[None])
    return float(smax[0]), int(idx[0]), bool(ties[0])


def test_polar_radial_cube():
    body = TangentBody(cube_generators(3))
    assert 1 / binding(body, [1.0, 0.0, 0.0])[0] == pytest.approx(1.0)
    assert 1 / binding(body, [1.0, 1.0, 1.0])[0] == pytest.approx(math.sqrt(3.0))


def test_polar_radial_cross():
    body = TangentBody(cross_generators(2))
    # faces at distance 1 along the diagonals, vertices at sqrt(2) on the axes
    assert 1 / binding(body, [1.0, 1.0])[0] == pytest.approx(1.0)
    assert 1 / binding(body, [1.0, 0.0])[0] == pytest.approx(math.sqrt(2.0))


def test_polar_contact_rectangle():
    """The face met and its height 1 / |y|: the short generator's face lies
    at 1.5, the unit ones' at 1."""
    body = TangentBody(RECT)
    smax, idx, tie = binding(body, [0.0, 1.0])
    assert (idx, tie) == (3, False)
    assert 1 / smax == pytest.approx(1.5)
    assert 1 / np.linalg.norm(body.generators[idx]) == pytest.approx(1.5)
    _, idx, _ = binding(body, [1.0, 0.0])
    assert 1 / np.linalg.norm(body.generators[idx]) == pytest.approx(1.0)


def test_polar_contact_tie_on_edge():
    """Two generators bind along a square's diagonal; the radial function is
    still defined there."""
    smax, _, tie = binding(TangentBody(cube_generators(2)), [1.0, 1.0])
    assert tie
    assert 1 / smax == pytest.approx(math.sqrt(2.0))


# ---------------------------------------------------------------------------
# binding kernel

# The binding kernel as one (rows, generators) product over the whole stack,
# reduced row by row, run against the row-blocked `polytopes._binding` in a
# fresh interpreter with one BLAS thread: a threaded product splits its rows
# at other places, so its last bits depend on the thread count with or
# without blocks. Bodies on both sides of `_BY_GENERATOR` check that the
# generator-by-generator reduction agrees with the row-wise one bit for bit.
BINDING_SCRIPT = r"""
import itertools
import json
import numpy as np
from statebody import (RngStream, TangentBody, cross_generators, cube_generators,
                       random_unit_generators, simplex_generators)
from statebody import polytopes

def one_product(body, dirs):
    s = dirs @ body.generators.T
    rows = np.arange(len(s))
    idx = np.argmax(s, axis=1)
    smax = s[rows, idx]
    s[rows, idx] = -np.inf
    ties = (smax - s.max(axis=1)) <= polytopes.TIE_TOL * np.maximum(smax, 1.0)
    return smax, idx, ties

def unit_rows(dim, n, seed):
    d = RngStream(seed).generator().standard_normal((n, dim))
    return d / np.linalg.norm(d, axis=1, keepdims=True)

def rows_per_block(body):
    per = polytopes._BINDING_ROWS
    return max(1, polytopes._BINDING_CELLS // (body.n_generators * per)) * per

cases = []
body = TangentBody(random_unit_generators(6, 500, RngStream(4700)))
block = rows_per_block(body)
# k blocks and a lone last row, which joins the block before it: a one-row
# product rounds differently in about half the rows
counts = [1, block - 1, block] + [k * block + 1 for k in range(1, 9)] + [8192] * 4
for seed, n in enumerate(counts, 4701):
    cases.append((f"random-unit n={n} seed={seed}", body, unit_rows(6, n, seed)))
cube = TangentBody(cube_generators(4))
edges = unit_rows(4, 3 * rows_per_block(cube) + 1, 4710)
# every fifth row meets an edge: two coordinates of equal size, the rest 0
gen = RngStream(4711).generator()
for i in range(0, len(edges), 5):
    axes = gen.choice(4, size=2, replace=False)
    edges[i] = 0.0
    edges[i, axes] = gen.choice([-1.0, 1.0], size=2) / np.sqrt(2.0)
cases.append(("cube", cube, edges))
cases.append(("simplex dim 4", TangentBody(simplex_generators(4)), unit_rows(4, 8192, 4712)))
cases.append(("cross dim 3", TangentBody(cross_generators(3)), unit_rows(3, 8192, 4713)))
# the crossover count reduces generator by generator, one more by rows
m = polytopes._BY_GENERATOR
for k in (m, m + 1):
    cases.append((f"random-unit m={k}", TangentBody(random_unit_generators(4, k, RngStream(4740))),
                  unit_rows(4, 8192, 4714 + k)))
# a shrunk generator cutting the cube's (1, 1, 1, 1) corner binds near it,
# so the index decides the height 1 / |y|
corner = np.full((1, 4), 0.8 / 2.0)
shrunk = TangentBody(np.vstack([cube_generators(4), corner]))
dirs = unit_rows(4, 8192, 4716)
dirs[::2] = np.abs(dirs[::2])
cases.append(("shrunk corner", shrunk, dirs))
# the cube's vertex directions (+-1, ..., +-1) / 2: four generators tie exactly
vertices = np.array(list(itertools.product([-0.5, 0.5], repeat=4)))
cases.append(("cube vertices", cube, np.tile(vertices, (64, 1))))
out = {"block": block, "equal": {}, "by_generator": {}}
for name, b, d in cases:
    got = polytopes._binding(b, d)
    want = one_product(b, d.copy())
    out["equal"][name] = [g.tobytes() == w.tobytes() for g, w in zip(got, want)]
    out["by_generator"][name] = b.n_generators <= polytopes._BY_GENERATOR
ties = polytopes._binding(cube, edges)[2]
out["edge_ties"] = bool(ties[::5].all())
out["tie_frac"] = float(ties.mean())
smax, idx, ties = polytopes._binding(cube, vertices)
# generator i is +e_i for i < 4 and -e_(i-4) after: the first positive axis wins
first = [int(np.argmax(np.concatenate([v, -v]) == 0.5)) for v in vertices]
out["vertex_first"] = idx.tolist() == first and bool(ties.all()) and bool((smax == 0.5).all())
out["corner_binds"] = int(np.sum(polytopes._binding(shrunk, dirs)[1] == 8))
print(json.dumps(out))
"""


def test_binding_blocks_match_one_product():
    """Row blocks and the generator-by-generator reduction change no bit of
    (smax, idx, ties): a 500-generator body on a single row, one row below a
    block, one block, k blocks plus a lone row (k = 1..8) and 8,192 rows; a
    cube whose exact edge ties stay flagged; the simplex, the cross, random
    bodies at the crossover count and one above it, a cube with a shrunk
    corner generator, and the cube's vertex directions, where four
    generators tie exactly and the first of them is the index."""
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", BINDING_SCRIPT], env=env, check=True,
                         capture_output=True, text=True, timeout=300).stdout
    res = json.loads(out.splitlines()[-1])
    assert res["block"] < 8192  # the 8,192-row stacks run in several blocks
    assert len(res["equal"]) == 22
    for name, equal in res["equal"].items():
        assert equal == [True, True, True], name
    assert res["edge_ties"] and res["tie_frac"] < 0.21
    # both reduction orders ran, split at the crossover
    by_generator = res["by_generator"]
    assert not by_generator["random-unit n=1 seed=4701"]
    assert all(by_generator[k] for k in ("cube", "simplex dim 4", "cross dim 3",
                                         "shrunk corner", "cube vertices"))
    m = polytopes._BY_GENERATOR
    assert by_generator[f"random-unit m={m}"] and not by_generator[f"random-unit m={m + 1}"]
    assert res["vertex_first"]
    assert res["corner_binds"] > 1000  # the shrunk generator's face is met


def test_binding_peak_memory_is_one_block():
    """The (rows, generators) product exists one block at a time: 8,192
    directions x 500 generators peaked at 31.6 MiB as one product and at
    2.0 MiB in blocks of about 1 MiB."""
    body = TangentBody(random_unit_generators(6, 500, RngStream(4720)))
    dirs = RngStream(4721).generator().standard_normal((8192, 6))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    polytopes._binding(body, dirs[:8])
    tracemalloc.start()
    try:
        polytopes._binding(body, dirs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_binding_names_the_smallest_product_across_blocks():
    """Non-positive products in two blocks: the error names the direction
    with the smallest product, which sits in the later block."""
    # every generator is (1, u/2) normalized with u in [-1, 1]^5, so each
    # direction (-cos t, sin t, 0, ...) with tan t < 2 meets no face. The
    # set is unbounded, so it goes in as the two attributes `_binding` reads.
    gen = RngStream(4730).generator()
    g = np.hstack([np.ones((500, 1)), 0.5 * gen.uniform(-1.0, 1.0, (500, 5))])
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    body = types.SimpleNamespace(generators=g, n_generators=len(g))
    dirs = np.hstack([np.ones((8192, 1)), 0.3 * gen.standard_normal((8192, 5))])
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    assert (dirs @ g.T).max(axis=1).min() > 0
    away = [np.array([-math.cos(t), math.sin(t), 0, 0, 0, 0]) for t in (0.0, 0.3)]
    worst, other = sorted(away, key=lambda d: (g @ d).max())
    assert (g @ worst).max() < (g @ other).max() <= 0
    dirs[3], dirs[-3] = other, worst
    with pytest.raises(UnboundedBodyError, match=re.escape(str(np.round(worst, 6).tolist()))):
        polytopes._binding(body, dirs)


# ---------------------------------------------------------------------------
# intersection


def test_intersection_is_idempotent():
    cube = TangentBody(cube_generators(2))
    self_cut = intersect_bodies(cube, cube)
    assert self_cut.n_generators == 4


def test_intersection_radial_is_pointwise_min():
    a = TangentBody(cube_generators(2))
    b = TangentBody(rotated_square(math.pi / 4))
    cut = intersect_bodies(a, b)
    assert cut.n_generators == 8
    gen = np.random.default_rng(3)
    dirs = gen.standard_normal((25, 2))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    # r = 1 / smax
    smax = [polytopes._binding(body, dirs)[0] for body in (cut, a, b)]
    np.testing.assert_allclose(1 / smax[0], np.minimum(1 / smax[1], 1 / smax[2]),
                               rtol=0, atol=1e-12)


def test_intersection_dimension_mismatch():
    with pytest.raises(ValueError):
        intersect_bodies(TangentBody(cube_generators(2)), TangentBody(cube_generators(3)))


# ---------------------------------------------------------------------------
# gamma, volume, area


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_cube_gamma_is_dimension(dim):
    body = TangentBody(cube_generators(dim))
    est = mc_gamma(body, 30000, RngStream(201))
    assert est.value == pytest.approx(dim, abs=1e-9)
    assert est.estimator_id == f"mc_gamma[polytope:dim={dim}]"


@pytest.mark.parametrize("dim", [2, 3])
def test_simplex_gamma_is_dimension(dim):
    body = TangentBody(simplex_generators(dim))
    est = mc_gamma(body, 30000, RngStream(202))
    assert est.value == pytest.approx(dim, abs=1e-9)


def test_rectangle_gamma_volume_area():
    """The counterexample: a tangent-to-unit-ball body with one far face.

    The polar of RECT is the box [-1,1] x [-1,1.5]: V = 5, A = 9, insphere
    radius 1, so gamma = 9/5 instead of the dimension 2.
    """
    body = TangentBody(RECT)
    gamma = mc_gamma(body, 100_000, RngStream(203))
    assert body.r_in == 1.0
    assert abs(gamma.value - 1.8) < 4 * gamma.stderr
    vol = mc_volume(body, 100_000, RngStream(204))
    assert abs(vol.value - 5.0) < 4 * vol.stderr
    area = mc_area(body, 100_000, RngStream(205))
    assert abs(area.value - 9.0) < 4 * area.stderr


def test_gamma_determinism():
    body = TangentBody(RECT)
    a = mc_gamma(body, 15000, RngStream(77))
    b = mc_gamma(body, 15000, RngStream(77))
    assert a.value == b.value and a.stderr == b.stderr


def test_octagon_gamma():
    cut = intersect_bodies(
        TangentBody(cube_generators(2)), TangentBody(rotated_square(math.pi / 4))
    )
    est = mc_gamma(cut, 30000, RngStream(206))
    assert est.value == pytest.approx(2.0, abs=1e-9)


# ---------------------------------------------------------------------------
# constant height


def test_cube_constant_height_passes():
    est = mc_gamma(TangentBody(cube_generators(3)), 20000, RngStream(301))
    assert abs(est.value - 3.0) <= 3 * est.stderr
    assert est.n_samples == 20000  # no direction met an edge


def test_rectangle_constant_height_fails():
    # the face at height 1.5 is exposed, so gamma = 1.8 < D
    est = mc_gamma(TangentBody(RECT), 20000, RngStream(302))
    assert est.value < 2.0 - 3 * est.stderr
    assert abs(est.value - 1.8) <= 4 * est.stderr


def test_shrunk_generator_breaks_constant_height():
    # pulling one generator inside the unit sphere pushes its face out to
    # 1/0.8; exposed by construction here because it cuts the cube corner
    gens = np.vstack([cube_generators(2), 0.8 * np.array([[1.0, 1.0]]) / math.sqrt(2.0)])
    body = TangentBody(gens)
    assert not body.all_unit
    assert body.r_in == 1.0
    est = mc_gamma(body, 50000, RngStream(304))
    assert est.value < 2.0 - 4 * est.stderr


def test_scaled_cube_has_constant_height():
    # the cube [-2, 2]^3: every face is at the insphere radius 2, not 1
    body = TangentBody(0.5 * cube_generators(3))
    assert not body.all_unit
    assert body.r_in == 2.0
    est = mc_gamma(body, 30000, RngStream(309))
    assert est.value == pytest.approx(3.0, abs=1e-9)
    assert est.estimator_id == "mc_gamma[polytope:dim=3]"


def test_random_unit_body_has_constant_height():
    gens = random_unit_generators(4, 500, RngStream(305))
    body = TangentBody(gens)
    est = mc_gamma(body, 30000, RngStream(307))
    assert est.value == pytest.approx(4.0, abs=1e-9)
