"""Spans and counts at statebody's layer boundaries, installed from outside.

Each boundary is a name as its caller looks it up: patching
``statebody.estimators._ppt_mask`` times every call ``estimate_p_interior``
makes, because the caller reads the module global at call time. Wrappers
return the callee's result untouched. Spans stay in memory until the run
ends; a span's self time is its duration minus the durations of its direct
children, so the self times of one experiment's spans add up to the duration
of its root span.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class Span:
    name: str
    metric: str
    start: float
    end: float
    parent: int | None
    run_id: str


def _rows(result):
    return len(result[0]) if isinstance(result, tuple) else len(result)


def _count_draws(counts, result):
    counts["sampling.draws"] += _rows(result)


def _count_ppt(counts, mask):
    counts["hermitian.ppt_tests"] += int(mask.size)
    counts["hermitian.ppt_hits"] += int(mask.sum())


def _count_contact(counts, result):
    nongeneric = result[4]
    counts["geometry.directions"] += int(nongeneric.size)
    counts["geometry.generic"] += int(nongeneric.size - nongeneric.sum())


def _count_sweep(counts, result):
    ok = result[2]
    counts["polytopes.directions"] += int(ok.size)
    counts["polytopes.ties"] += int(ok.size - ok.sum())


# (calling module, name as the caller looks it up, metric its self time
# accrues to, counter over its result)
BOUNDARIES = (
    ("experiments", "estimate_omega", "estimators.self_s", None),
    ("experiments", "mc_gamma", "estimators.self_s", None),
    ("experiments", "height_certificate", "estimators.self_s", None),
    ("experiments", "corner_probe", "estimators.self_s", None),
    ("experiments", "TangentBody", "polytopes.construct_s", None),
    ("experiments", "polytope_gamma_mc", "polytopes.estimate_s", None),
    ("experiments", "constant_height_check", "polytopes.estimate_s", None),
    ("experiments", "sampler_validation", "validation.self_s", None),
    ("experiments", "write_record", "records.write_s", None),
    ("estimators", "sample_state_hs", "sampling.interior_s", _count_draws),
    ("estimators", "sample_boundary_state_hs", "sampling.boundary_s", _count_draws),
    ("estimators", "sample_direction", "sampling.direction_s", _count_draws),
    ("estimators", "_ppt_mask", "hermitian.ppt_test_s", _count_ppt),
    ("estimators", "partial_transpose", "hermitian.partial_transpose_s", None),
    ("estimators", "_contact_batch", "geometry.contact_s", _count_contact),
    ("estimators", "_radial_batch", "geometry.radial_s", None),
    ("geometry", "_radial_batch", "geometry.radial_s", None),
    ("geometry", "partial_transpose", "hermitian.partial_transpose_s", None),
    ("sampling", "boundary_eigenvalues_wishart", "sampling.wishart_s", _count_draws),
    ("sampling", "boundary_eigenvalues_metropolis", "sampling.metropolis_s",
     _count_draws),
    ("sampling", "sample_haar_unitary", "sampling.haar_s", None),
    ("validation", "boundary_eigenvalues_wishart", "sampling.wishart_s", _count_draws),
    ("validation", "boundary_eigenvalues_metropolis", "sampling.metropolis_s",
     _count_draws),
    ("validation", "sample_state_hs", "sampling.interior_s", _count_draws),
    ("validation", "sample_boundary_state_hs", "sampling.boundary_s", _count_draws),
    ("polytopes", "_radial_sweep", "polytopes.sweep_s", _count_sweep),
)

ROOT_METRIC = "experiments.self_s"
PARSE_METRIC = "config.parse_s"
TIME_METRICS = sorted({b[2] for b in BOUNDARIES} | {ROOT_METRIC, PARSE_METRIC})


class Tracer:
    """Records nested spans and boundary counts of one traced run."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.counts: Counter = Counter()
        self.run_id = ""
        self._stack: list[int] = []

    def call(self, name, metric, count, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = Span(name, metric, start, end, parent, self.run_id)
        if count is not None:
            count(self.counts, result)
        return result

    def wrap(self, name, metric, fn, count=None):
        def traced(*args, **kwargs):
            return self.call(name, metric, count, fn, args, kwargs)
        return traced

    def to_json(self) -> list:
        return [asdict(s) for s in self.spans]


@contextmanager
def installed(tracer: Tracer, package: str = "statebody"):
    """Patch every boundary with a tracing wrapper; restore on exit.

    Yields the boundaries that no longer exist in the package; their time
    counts to their callers.
    """
    saved, missing = [], []
    try:
        for module_name, attr, metric, count in BOUNDARIES:
            module = importlib.import_module(f"{package}.{module_name}")
            original = getattr(module, attr, None)
            if original is None:
                missing.append(f"{module_name}.{attr}")
                continue
            saved.append((module, attr, original))
            setattr(module, attr,
                    tracer.wrap(f"{module_name}.{attr}", metric, original, count))
        yield missing
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.end - s.start
    return out


def nesting_errors(spans) -> list[str]:
    """Child spans that start before or end after their parent."""
    errors = []
    for i, s in enumerate(spans):
        if s.parent is None:
            continue
        p = spans[s.parent]
        if s.start < p.start or s.end > p.end or s.run_id != p.run_id:
            errors.append(f"span {i} {s.name} lies outside its parent {p.name}")
    return errors
