"""Seeded samplers for the Hilbert-Schmidt ensemble.

Every sampler is a pure function of an :class:`RngStream` value: calling it
twice with the same stream and size returns bit-identical output. Distinct
draws therefore need distinct streams, usually obtained via
:meth:`RngStream.child`. Samplers always return (size, N, N) stacks; a single
draw is ``sample_*(shape, rng, 1)[0]``, on the same stream.

========================  =====================================================
sampler                   distribution
========================  =====================================================
sample_state_hs           Hilbert-Schmidt (flat) measure on the state body
sample_boundary_state_hs  induced surface measure on the boundary (one
                          eigenvalue exactly zero), with the zero
                          eigenvectors
sample_direction          uniform on the unit sphere of traceless Hermitian
                          (or real symmetric) matrices
========================  =====================================================

Both state samplers normalize a Ginibre Gram matrix G G^dag. For the interior
a square G reproduces the flat measure in the complex case, and an N x (N+1)
real G in the real case. A boundary draw takes one column more and projects
G off a uniform unit vector psi before forming the Gram matrix, so psi is the
zero eigenvector. Its nonzero eigenvalues then carry the density obtained by
setting the smallest eigenvalue to zero in the flat-measure eigenvalue
density:

    f(lambda) ~ prod_{i<j} |l_i - l_j|^beta * prod_i l_i^beta

with beta = 2 (complex) or 1 (real), and its eigenvectors form a Haar frame.
A Metropolis chain targeting f directly is kept only as an independent
oracle: the sampler battery and the test suite compare its spectra with
those of production boundary states.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .hermitian import BipartiteShape, hermitian_part

_MASK64 = (1 << 64) - 1
_ALGORITHM = "philox4x64"

# Metropolis oracle settings: enough burn-in for the small simplices used here.
_MH_BURN = 4096
_MH_THIN = 16
_MH_CHAINS = 256
# Steps per adaptation window; _MH_BURN is a multiple of it, so the step size
# is constant within every window the chain runs.
_MH_WINDOW = 128


def _splitmix64(x: int) -> int:
    """One splitmix64 round; mixes stream ids for child derivation."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


@dataclass(frozen=True)
class RngStream:
    """A named pseudorandom stream: (seed, stream id, fixed algorithm).

    The pair (seed, stream) keys a counter-based Philox generator, so streams
    never overlap and results do not depend on evaluation order.
    """

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        """A fresh generator positioned at the start of this stream."""
        key = ((self.stream & _MASK64) << 64) | (self.seed & _MASK64)
        return np.random.Generator(np.random.Philox(key=key))

    def child(self, index: int) -> "RngStream":
        """Derived stream for sub-task ``index``; deterministic and disjoint."""
        mixed = _splitmix64((self.stream ^ _splitmix64(index & _MASK64)) & _MASK64)
        return replace(self, stream=mixed)

    def describe(self) -> str:
        return f"{_ALGORITHM}:{self.seed}:{self.stream}"


def _check_field(field: str):
    if field not in ("complex", "real"):
        raise ValueError(f"field must be 'complex' or 'real', got {field!r}")


def _check_size(size: int):
    if size < 0:
        raise ValueError(f"size must be >= 0, got {size}")


def _ginibre(gen: np.random.Generator, shape: tuple, field: str) -> np.ndarray:
    """Independent standard Gaussian entries; complex ones get i.i.d. parts."""
    if field == "complex":
        return gen.standard_normal(shape) + 1j * gen.standard_normal(shape)
    return gen.standard_normal(shape)


def _normalized_gram(g: np.ndarray) -> np.ndarray:
    """Trace-one Hermitian part of G G^dag for a (size, rows, cols) stack G."""
    w = hermitian_part(g @ np.conj(np.swapaxes(g, -1, -2)))
    tr = np.trace(w, axis1=-2, axis2=-1).real
    return w / tr[:, None, None]


def sample_state_hs(shape: BipartiteShape, rng: RngStream, size: int) -> np.ndarray:
    """A (size, N, N) stack of states distributed by the flat Hilbert-Schmidt
    measure on the body."""
    _check_size(size)
    n = shape.n
    cols = n if shape.field == "complex" else n + 1
    return _normalized_gram(_ginibre(rng.generator(), (size, n, cols), shape.field))


def boundary_eigenvalues_metropolis(
    n: int, field: str, rng: RngStream, size: int
) -> np.ndarray:
    """Nonzero boundary eigenvalues via a random-walk Metropolis chain.

    Targets f(lambda) on the (N-2)-simplex directly. It is the independent
    oracle for the spectra of production boundary states, used only by the
    sampler battery and the tests; its kept samples are correlated, so no
    estimator draws from it. Returns a (size, N-1) array of eigenvalue rows
    summing to one, sorted ascending. Step size adapts during burn-in only,
    so the kept samples come from a fixed, detailed-balanced kernel.

    The chain runs in windows of ``_MH_WINDOW`` steps, but every step still
    draws its normals and then its uniforms from the one generator, one step
    at a time. Bulk or split-stream draws would give an equally valid chain,
    but a different one: this draw order is what keeps the oracle's spectra
    bit-identical to those of a plain step-at-a-time loop. Only work that does
    not depend on the chain state (centring and scaling the normals, log u)
    runs once per window. That is exact because the step size changes only at
    the end of a burn-in window. log f adds its terms in the plain loop's
    order, so for N <= 8, where numpy's own sums of N-1 terms also run one by
    one, the output equals that loop's bit for bit.
    """
    _check_field(field)
    m = n - 1
    if m < 1:
        raise ValueError(f"need n >= 2, got {n}")
    _check_size(size)
    if m == 1:
        return np.ones((size, 1))
    if size == 0:
        return np.empty((0, m))
    beta = 2 if field == "complex" else 1
    c = min(_MH_CHAINS, max(8, size))
    needed = int(np.ceil(size / c))
    total = _MH_BURN + needed * _MH_THIN
    gen = rng.generator()
    # The chain state holds log f / beta in row 0 and the eigenvalues in rows
    # 1..m, one contiguous row of c chains each. cand holds a proposal in the
    # same layout, followed by the gaps |l_i - l_j| for i < j in the order log
    # f adds them, so log f / beta is the row-order sum of the logs of rows 1..
    state = np.empty((1 + m, c))
    cand = np.empty((1 + m + m * (m - 1) // 2, c))
    prop, prop_logf, prop_lam = cand[:1 + m], cand[0], cand[1:1 + m]
    terms, gaps = cand[1:], cand[1 + m:]
    logf, lam = state[0], state[1:]
    logs = np.empty_like(terms)
    diffs = []
    row = 1 + m
    for i in range(1, m):
        diffs.append((cand[i], cand[i + 1:1 + m], cand[row:row + m - i]))
        row += m - i

    def log_f():
        # -inf or NaN off the open simplex, which the acceptance test rejects
        for a, b, d in diffs:
            np.subtract(a, b, out=d)
        np.abs(gaps, out=gaps)
        np.log(terms, out=logs)
        np.add.reduce(logs, axis=0, out=prop_logf)

    z = np.empty((_MH_WINDOW, c, m))
    dz = np.empty((_MH_WINDOW, m, c))
    u = np.empty((_MH_WINDOW, c))
    accept = np.empty((_MH_WINDOW, c), dtype=bool)
    gap = np.empty(c)
    kept = np.empty((needed, c, m))
    draws = list(zip(z, u))
    steps = list(zip(dz, u, accept))
    normal, uniform = gen.standard_normal, gen.random
    step = 0.5 / m
    with np.errstate(divide="ignore", invalid="ignore"):
        prop_lam[...] = np.sort(gen.dirichlet(np.ones(m), size=c), axis=-1).T
        log_f()
        state[...] = prop
        for t0 in range(0, total, _MH_WINDOW):
            k = min(_MH_WINDOW, total - t0)
            for zt, ut in draws[:k]:
                normal(out=zt)
                uniform(out=ut)
            dzw = dz[:k]
            np.copyto(dzw, z[:k].transpose(0, 2, 1))
            # centring keeps the trace sum fixed
            dzw -= np.add.reduce(dzw, axis=1, keepdims=True) / m
            dzw *= step
            # log u < beta (log f' - log f) exactly when log u / beta is
            # below log f' / beta - log f / beta: dividing by 1 or 2 is exact
            np.log(u[:k], out=u[:k])
            u[:k] /= beta
            for t, (dzt, ut, at) in enumerate(steps[:k], start=t0 - _MH_BURN):
                np.add(lam, dzt, out=prop_lam)
                log_f()
                np.subtract(prop_logf, logf, out=gap)
                np.less(ut, gap, out=at)
                np.copyto(state, prop, where=at)
                if t >= 0 and t % _MH_THIN == _MH_THIN - 1:
                    kept[t // _MH_THIN] = lam.T
            if t0 < _MH_BURN:
                rate = int(np.count_nonzero(accept)) / (_MH_WINDOW * c)
                step *= float(np.exp(0.4 * (rate - 0.35)))
    kept.sort(axis=-1)
    return kept.reshape(-1, m)[:size]


def boundary_eigenvalues_wishart(
    n: int, field: str, rng: RngStream, size: int
) -> np.ndarray:
    """Nonzero eigenvalues of production boundary states on one N-level body.

    The spectra of ``sample_boundary_state_hs`` with the zero eigenvalue
    dropped: those of a normalized (N-1) x (N+1) complex (or (N-1) x (N+2)
    real) Ginibre Gram matrix, distributed exactly by f. Returns (size, N-1)
    rows sorted ascending.
    """
    states, _ = sample_boundary_state_hs(BipartiteShape(1, n, field), rng, size)
    return np.linalg.eigvalsh(states)[:, 1:]


def sample_boundary_state_hs(shape: BipartiteShape, rng: RngStream, size: int):
    """Boundary states under the induced Hilbert-Schmidt surface measure.

    rho = P G G^dag P / Tr(P G G^dag P) with P = I - psi psi^dag, psi a
    normalized Gaussian vector and G a Ginibre matrix with one column more
    than the interior draw. psi is the zero eigenvector up to rounding, and
    P does not depend on the phase of psi. Returns the pair (states,
    zero_eigvecs) of (size, N, N) and (size, N) stacks.
    """
    _check_size(size)
    n = shape.n
    cols = n + 1 if shape.field == "complex" else n + 2
    g = _ginibre(rng.child(0).generator(), (size, n, cols), shape.field)
    psi = _ginibre(rng.child(1).generator(), (size, n), shape.field)
    psi = psi / np.linalg.norm(psi, axis=-1, keepdims=True)
    g = g - psi[:, :, None] * (np.conj(psi)[:, None, :] @ g)
    return _normalized_gram(g), psi


def sample_direction(shape: BipartiteShape, rng: RngStream, size: int) -> np.ndarray:
    """A (size, N, N) stack of uniform directions on the traceless unit sphere
    of the body's span.

    A Gaussian Hermitian (real symmetric) matrix with i.i.d. standard-normal
    coefficients on any Hilbert-Schmidt orthonormal basis, projected traceless
    and normalized; equivalent to drawing Gaussian coefficients on a
    generalized Gell-Mann basis without materializing the basis.
    """
    _check_size(size)
    n = shape.n
    g = _ginibre(rng.generator(), (size, n, n), shape.field)
    h = hermitian_part(g)
    tr = np.trace(h, axis1=-2, axis2=-1).real
    h = h - (tr / n)[:, None, None] * np.eye(n, dtype=h.dtype)
    nrm = np.sqrt(np.sum(np.abs(h) ** 2, axis=(-2, -1)))
    return h / nrm[:, None, None]
