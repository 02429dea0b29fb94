"""Finite-dimensional laboratory for tangent-face geometry.

A :class:`TangentBody` is the polar of a finite generator set Y inside the
unit ball: X = {x : <x, y> <= 1 for all y in Y}. When all generators share one
norm each exposed face is tangent to the insphere, the body has constant height
and gamma = r_in * A / V equals the ambient dimension, mirroring the state body
without any quantum machinery. A shorter generator pushes its face outward and
breaks the equality exactly when that face is exposed. The volume estimator
of :mod:`statebody.estimators` accepts a TangentBody as it accepts a state
body; ``mc_area`` and :func:`~statebody.estimators.mc_gamma` take polytopes
only, and gamma is their test of constant height, while ``inner_law`` and
``radius_law`` take state bodies only. One kernel, :func:`_binding`, finds
the binding generator of a stack of directions, with one tie rule and one
unboundedness check; the estimators' sweep runs it. A body with few
generators reduces each product block generator by generator across its
rows, a larger one row by row; the two orders agree bit for bit, and
``_BY_GENERATOR`` is the crossover.
"""

from __future__ import annotations

import numpy as np

from .hermitian import _integer, _sum_in_order, row_blocks
from .sampling import RngStream

NORM_SLACK = 1e-12
TIE_TOL = 1e-12
# cells of one `_binding` block's product matrix: 2**17 float64 is 1 MiB
_BINDING_CELLS = 1 << 17
# a `_binding` block's row count is a multiple of this. BLAS kernels tile a
# product's rows in fixed groups (24 in OpenBLAS 0.3.31 on AVX-512), and a
# block that starts inside a group rounds some products differently from one
# product over the whole stack; 48 covers groups of 8, 16 and 24
_BINDING_ROWS = 48
# `_binding` reduces the blocks of a body with at most this many generators
# generator by generator. 8,192 directions in dimension 4, one BLAS thread,
# 2-core VM, per call: 195/292 us by generator against 684/848 us by row for
# the simplex (5) and cube (8), 288/675/944 against 840/1,031/1,237 us for 8,
# 16 and 24 random unit generators; about even from 26 to 31, and behind at
# 32 (2,492 against 1,849 us)
_BY_GENERATOR = 24


class UnboundedBodyError(ValueError):
    """The generator hull does not contain the origin in its interior."""


class TangentBody:
    """Polar body of a finite set of generators with norms at most one.

    Exact duplicate rows are dropped, first occurrences kept in order. The
    insphere radius ``r_in`` is 1.0 when every generator is unit (``all_unit``),
    else 1 / max |y|: the longest generator's face is always exposed.
    """

    __slots__ = ("generators", "dim", "r_in", "all_unit", "_norms")

    def __init__(self, generators):
        g = np.atleast_2d(np.asarray(generators, dtype=float))
        if g.ndim != 2 or g.shape[0] < 1 or g.shape[1] < 1:
            raise ValueError(f"generators must be a (m, dim) array, got {g.shape}")
        g = g[np.sort(np.unique(g, axis=0, return_index=True)[1])]
        norms = np.linalg.norm(g, axis=1)
        worst = float(np.max(norms))
        if not worst <= 1.0 + NORM_SLACK:  # a NaN norm fails too
            raise ValueError(
                f"generator norm {worst:.12f} exceeds one; generators must "
                "lie in the unit ball"
            )
        _check_origin_interior(g)
        g.setflags(write=False)
        all_unit = bool(np.max(np.abs(norms - 1.0)) <= NORM_SLACK)
        object.__setattr__(self, "generators", g)
        object.__setattr__(self, "dim", g.shape[1])
        object.__setattr__(self, "r_in", 1.0 if all_unit else 1.0 / worst)
        object.__setattr__(self, "all_unit", all_unit)
        object.__setattr__(self, "_norms", norms)

    def __setattr__(self, name, value):
        raise AttributeError("TangentBody is immutable")

    def __reduce__(self):
        return type(self), (self.generators,)  # a copy is validated again

    @property
    def n_generators(self) -> int:
        return self.generators.shape[0]

    def __repr__(self):
        return f"TangentBody(dim={self.dim}, n_generators={self.n_generators})"

    def __str__(self):
        return f"polytope:dim={self.dim}"


def _check_origin_interior(g: np.ndarray):
    """Reject generator sets whose polar body is unbounded.

    The polar is unbounded iff some d != 0 has Y d <= 0. Either some product
    (Y d)_i is negative, which one LP finds by minimising sum_i (Y d)_i over
    Y d <= 0 inside the box [-1, 1]^dim, or every product vanishes, which
    needs rank Y < dim; d then comes from the null space of Y.
    """
    from scipy.optimize import linprog  # lazy, so `import statebody` loads numpy only

    m, dim = g.shape
    res = linprog(g.sum(axis=0), A_ub=g, b_ub=np.zeros(m),
                  bounds=[(-1.0, 1.0)] * dim, method="highs")
    if res.status != 0:
        raise UnboundedBodyError(f"interiority LP failed: {res.message}")
    # dim zero rows leave the singular values and make vt span R^dim
    _, s, vt = np.linalg.svd(np.vstack([g, np.zeros((dim, dim))]), full_matrices=False)
    negative = -res.fun > 1e-9
    if negative or s[-1] <= s[0] * (m + dim) * np.finfo(float).eps:
        d = res.x if negative else vt[-1]
        raise UnboundedBodyError(
            "origin is not interior to the generator hull; the body is unbounded "
            f"along direction {np.round(d / np.linalg.norm(d), 6).tolist()}"
        )


def _binding(body: TangentBody, dirs: np.ndarray):
    """Binding data of a stack of unit directions, one per row: the largest
    support product <d, y>, the index of the generator attaining it, and a
    mask that is True where a second generator comes within TIE_TOL (the
    direction hits an edge, not a face). The radial function is 1 / smax.

    The rows run in the ``row_blocks`` of ``_BINDING_CELLS // n_generators``
    rows, rounded down to a multiple of ``_BINDING_ROWS`` (at least one), so
    each block's (rows, generators) product matrix stays near 1 MiB and in
    cache through its reductions whatever the generator count. With one BLAS
    thread every row's result is bit for bit the one a single product over
    the whole stack gives.

    A body with at most ``_BY_GENERATOR`` generators reduces each block
    generator by generator, across the rows (``_top_two_by_generator``); a
    larger one takes the argmax, masks it and takes the runner-up row by
    row. Both find the first index of the largest product, as ``np.argmax``
    does, and the same runner-up, with exact max, min and compare, so the two
    orders agree bit for bit.
    """
    n = len(dirs)
    smax = np.empty(n)
    idx = np.empty(n, dtype=np.intp)
    ties = np.empty(n, dtype=bool)
    step = max(1, _BINDING_CELLS // (body.n_generators * _BINDING_ROWS)) * _BINDING_ROWS
    by_generator = body.n_generators <= _BY_GENERATOR
    for rows in row_blocks(n, step):
        s = dirs[rows] @ body.generators.T
        best, top = smax[rows], idx[rows]
        if by_generator:
            second = _top_two_by_generator(s, best, top)
        else:
            i = np.arange(len(s))
            np.argmax(s, axis=1, out=top)
            best[:] = s[i, top]
            # the runner-up product, in place: no copy of the block's products
            s[i, top] = -np.inf
            second = s.max(axis=1)
        ties[rows] = (best - second) <= TIE_TOL * np.maximum(best, 1.0)
    if np.any(smax <= 0.0):
        bad = dirs[int(np.argmin(smax))]
        raise UnboundedBodyError(
            f"body is unbounded along direction {np.round(bad, 6).tolist()}"
        )
    return smax, idx, ties


def _top_two_by_generator(s: np.ndarray, best: np.ndarray, top: np.ndarray):
    """Largest entry of each row of ``s`` into ``best``, the first column
    holding it into ``top``, and the runner-up returned, reduced over the
    columns one at a time: ``best`` is the running maximum, ``top`` moves to
    column j only where column j is strictly larger (so the first of equal
    maxima stays), and the runner-up is max(runner-up, min(best, column)),
    which is the best value again where two columns tie exactly. Each step is
    a ufunc across the rows; as j rises, ``top`` is max(top, j * larger).
    """
    n = len(s)
    second = np.full(n, -np.inf)
    larger = np.empty(n, dtype=bool)
    low = np.empty(n)
    at = np.empty(n, dtype=np.intp)
    best[:] = s[:, 0]
    top[:] = 0
    for j in range(1, s.shape[1]):
        col = s[:, j]
        np.greater(col, best, out=larger)
        np.maximum(top, np.multiply(larger, j, out=at), out=top)
        np.maximum(second, np.minimum(best, col, out=low), out=second)
        np.maximum(best, col, out=best)
    return second


def intersect_bodies(a: TangentBody, b: TangentBody) -> TangentBody:
    """Intersection of two polar bodies: the polar of the generator union.

    Generators are deduplicated and canonically ordered, so the operation is
    commutative and associative at the generator-set level and the radial
    function of the result is exactly the minimum of the two inputs. The
    union is validated like any generator set (one small LP).
    """
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch {a.dim} vs {b.dim}")
    return TangentBody(np.unique(np.vstack([a.generators, b.generators]), axis=0))


# chunk size for polytope sweeps. It bounds no memory (`_binding` blocks its
# rows by cells); it fixes the stream layout, since chunk j draws its
# directions from child(j), so changing it changes every polytope record
_SWEEP_BATCH = 1 << 13


def _radial_sweep(body: TangentBody, n: int, rng: RngStream):
    """Radial data of n uniform directions drawn from ``rng`` in one chunk:
    log r, support distance of the binding face, and a mask that is False
    where two generators tie (the direction hits an edge, not a face).
    """
    smax, idx, ties = _binding(body, random_unit_generators(body.dim, n, rng))
    return np.log(1.0 / smax), 1.0 / body._norms[idx], ~ties


def cube_generators(dim: int) -> np.ndarray:
    """Unit generators +-e_i; their polar is the cube [-1, 1]^dim."""
    eye = np.eye(_integer("dim", dim, 1))
    return np.vstack([eye, -eye])


def cross_generators(dim: int) -> np.ndarray:
    """Normalized cube vertices; their polar is a scaled cross-polytope.
    There are 2^dim of them, so dim is at most 16."""
    dim = _integer("dim", dim, 1, 16)
    corners = np.array(np.meshgrid(*([[-1.0, 1.0]] * dim))).reshape(dim, -1).T
    return corners / np.sqrt(dim)


def simplex_generators(dim: int) -> np.ndarray:
    """dim+1 unit vectors summing to zero; their polar is a regular simplex."""
    dim = _integer("dim", dim, 1)
    e = np.eye(dim + 1)
    center = np.full(dim + 1, 1.0 / (dim + 1))
    pts = e - center
    # orthonormal basis of the sum-zero hyperplane via QR of its projector
    q, _ = np.linalg.qr(pts.T)
    basis = q[:, :dim]
    g = pts @ basis
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def random_unit_generators(dim: int, count: int, rng: RngStream) -> np.ndarray:
    """Uniform unit generators; the polar is constant-height by construction.

    Retries degenerate draws are not needed: with count >= dim + 1 the origin
    is interior with overwhelming probability, and construction validates.
    A count of 0 gives an empty draw, as a sampler's size 0 does.

    Each row's norm is the square root of its squares added in index order,
    one ufunc per coordinate across the rows. Up to dimension 7 that is
    ``np.linalg.norm(g, axis=1)`` bit for bit; from 8 on numpy adds a row in
    unrolled blocks, so those rows differ from it in their last bits.
    """
    shape = (_integer("count", count, 0), _integer("dim", dim, 1))
    g = rng.generator().standard_normal(shape)
    return g / np.sqrt(_sum_in_order(np.square(g).T))[:, None]
