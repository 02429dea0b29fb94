"""statebody benchmark: samples/s, set-up time and peak memory per workload.

Run from the repository root:

    python3 perfbench/run.py --workload omega-states --seed 1 --seconds 12 --trace 0

``--trace 0`` first times three separate set-ups (fresh interpreter, import,
config validation, one small warm-up per experiment kind). It then repeats
rounds of the workload, every case once per round and each round with its
own experiment seed drawn from ``--seed``, until ``--seconds`` have passed.
Round 0 is run once more at the end, and every record's ``metrics`` block
must match its first run byte for byte. End-to-end metrics come from these
untraced runs only. Their durations are in reference seconds (see
ReferenceClock): wall seconds scaled by the speed of a fixed numpy kernel
timed right before and after, which cancels most of the drift of a shared
machine.

``--trace 1`` runs the round-0 cases in passes until ``--seconds`` have
passed; each pass runs every case once untraced and once with spans at every
layer boundary (see spans.py). It reports per-layer self times in wall
seconds, counts and the tracing overhead.

Every run prints one line per case, the environment stamp and every metric
with its unit, then as its last line a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. A failure is an experiment that
raised, returned ``passed=False``, or whose ``metrics`` differ from a run of
the same config; each one is printed and counted, never dropped. Results,
the stamp and spans are also written under ``perfbench/_out/``.

BLAS is pinned to one thread for every workload, before numpy is imported:
with default OpenBLAS threading the 500-generator polytope case varied by
~40% between identical runs on a 2-core machine.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

from spans import (
    PARSE_METRIC,
    ROOT_METRIC,
    TIME_METRICS,
    Tracer,
    installed,
    nesting_errors,
    self_times,
)
from workloads import BANDS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"
SETUP_RUNS = 3
REFERENCE_S = 0.06  # the reference kernel's duration in reference seconds
SMOKE_DIVISOR = 8  # --smoke divides every sample count, down to the config floor
DEFAULT_SIGMA = 3.0

COUNT_METRICS = ("sampling.draws", "hermitian.ppt_tests", "geometry.directions",
                 "polytopes.directions")
RATIO_METRICS = {  # metric: (numerator count, denominator count)
    "hermitian.ppt_hit_frac": ("hermitian.ppt_hits", "hermitian.ppt_tests"),
    "geometry.generic_frac": ("geometry.generic", "geometry.directions"),
    "polytopes.tie_frac": ("polytopes.ties", "polytopes.directions"),
}


class Failures:
    """Reasons per failed experiment; an experiment counts once."""

    def __init__(self):
        self.by_run: dict[str, list[str]] = {}

    def add(self, run: str, reason: str):
        self.by_run.setdefault(run, []).append(reason)

    def __len__(self):
        return len(self.by_run)


def round_seed(workload: str, seed: int, index) -> int:
    return random.Random(f"{workload}:{seed}:{index}").randrange(1 << 31)


class Workload:
    """statebody handles plus the workload's configs, after set-up."""

    def __init__(self, name: str, seed: int, smoke: bool, records_dir: Path):
        sys.path.insert(0, str(SRC))
        import statebody
        from statebody.config import MIN_SAMPLES, config_from_dict
        from statebody.experiments import run_experiment

        loaded = Path(statebody.__file__).resolve().parent
        if loaded != SRC / "statebody":
            raise SystemExit(f"statebody was imported from {loaded}, not {SRC}")
        self.name, self.seed, self.smoke = name, seed, smoke
        self.records_dir = records_dir
        self.min_samples = MIN_SAMPLES
        self.config_from_dict = config_from_dict
        self.run_experiment = run_experiment
        self.round0 = [(label, config_from_dict(d)) for label, d in self.dicts(0)]
        # one small run per experiment kind, so lazy numpy/scipy set-up is
        # not charged to the first timed case
        kinds = {}
        for _, d in self.dicts("warm-up"):
            kinds.setdefault(d["experiment"], d)
        for exp, d in kinds.items():
            run_experiment(config_from_dict(dict(d, n_samples=MIN_SAMPLES[exp])),
                           write=True)

    def dicts(self, index):
        seed = round_seed(self.name, self.seed, index)
        out = []
        for label, d in WORKLOADS[self.name]:
            d = dict(d, seed=seed, tolerances=BANDS, output_path=str(self.records_dir))
            if self.smoke:
                d["n_samples"] = max(self.min_samples[d["experiment"]],
                                     d["n_samples"] // SMOKE_DIVISOR)
            out.append((label, d))
        return out

    def run(self, config, runner=None):
        """(record or None, wall seconds, traceback or None) of one experiment."""
        runner = runner or self.run_experiment
        start = time.perf_counter()
        try:
            record = runner(config, write=True)
        except Exception:
            return None, time.perf_counter() - start, traceback.format_exc()
        return record, time.perf_counter() - start, None


def check(record, error, run: str, failures: Failures):
    if error is not None:
        print(error, file=sys.stderr, end="")
        failures.add(run, "raised " + error.strip().splitlines()[-1])
    elif not record.passed:
        failures.add(run, f"passed=False (value={record.value!r}, "
                          f"sigma_dev={record.sigma_dev!r})")


def metrics_blob(record) -> str:
    return json.dumps(record.metrics)


def time_set_up(args) -> float:
    """Seconds from spawning a fresh interpreter to the end of its set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--probe-setup"]
    if args.smoke:
        cmd.append("--smoke")
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        proc.stdout.read()
        code = proc.wait()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up run exited with code {code}")
    return ready - start


def reference_kernel() -> float:
    """Wall seconds of a fixed numpy kernel that does not use statebody.

    It mixes the kinds of work the workloads spend their time in: Philox
    normals, small batched complex products, eigvalsh and QR, an interpreter
    loop, and (2048 x 6) @ (6 x 500) products with argmax and partition. Its
    arrays stay far below the workloads' own, so it does not move
    ``peak_rss_mb``.
    """
    import numpy as np

    start = time.perf_counter()
    gen = np.random.Generator(np.random.Philox(12345))
    g = gen.standard_normal((3000, 6, 6)) + 1j * gen.standard_normal((3000, 6, 6))
    np.linalg.eigvalsh(g @ np.conj(np.swapaxes(g, -1, -2)))
    np.linalg.qr(g)
    y = gen.standard_normal((6, 500))
    for _ in range(8):
        np.argmax(gen.standard_normal((1024, 6)) @ y, axis=1)
    total = 0
    for i in range(30000):
        total += i
    x = gen.standard_normal((2048, 6))
    for _ in range(4):
        s = x @ y
        np.argmax(s, axis=1)
        np.partition(s, -2, axis=1)
    return time.perf_counter() - start


class ReferenceClock:
    """Converts wall seconds to reference seconds.

    Each timed span is bracketed by runs of the reference kernel, and its
    wall time is scaled by REFERENCE_S over their mean. Other tenants of a
    shared machine slow the kernel and the span alike, so the scaled time
    keeps the program's cost and drops most of the machine's drift.
    """

    def __init__(self):
        for _ in range(2):  # first calls pay numpy's lazy set-up
            reference_kernel()
        self.last = reference_kernel()
        self.samples = [self.last]

    def scale(self, wall: float) -> float:
        """Reference seconds of a span that ended just now."""
        before, self.last = self.last, reference_kernel()
        self.samples.append(self.last)
        return wall * REFERENCE_S / (0.5 * (before + self.last))


def run_untraced(w: Workload, seconds: float):
    failures, attempted = Failures(), 0
    per_case = {label: {"n": cfg.n_samples, "walls": [], "ref_walls": [], "values": [],
                        "devs": []}
                for label, cfg in w.round0}
    first = {}
    clock = ReferenceClock()
    start = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() - start < seconds:
        configs = w.round0 if index == 0 else [
            (label, w.config_from_dict(d)) for label, d in w.dicts(index)]
        for label, cfg in configs:
            record, wall, error = w.run(cfg)
            ref_wall = clock.scale(wall)
            attempted += 1
            check(record, error, f"{label} [round {index}]", failures)
            if record is None:
                continue
            if index == 0:
                first[label] = metrics_blob(record)
            case = per_case[label]
            case["walls"].append(wall)
            case["ref_walls"].append(ref_wall)
            case["values"].append(record.value)
            if record.sigma_dev is not None:
                case["devs"].append(record.sigma_dev)
        index += 1
    for label, cfg in w.round0:
        record, _, error = w.run(cfg)
        attempted += 1
        run = f"{label} [round 0 repeat]"
        check(record, error, run, failures)
        if record is not None and label in first and metrics_blob(record) != first[label]:
            failures.add(run, "metrics differ from the first run of the same config")
    cases = []
    for label, case in per_case.items():
        timed = bool(case["walls"])
        devs = case["devs"]
        cases.append({
            "case": label, "n_samples": case["n"], "rounds": len(case["walls"]),
            "median_wall_s": statistics.median(case["walls"]) if timed else None,
            "median_ref_s": statistics.median(case["ref_walls"]) if timed else None,
            "values": case["values"],
            "max_abs_sigma_dev": max(map(abs, devs)) if devs else None})
    timed = [c for c in cases if c["rounds"]]
    n_sum = sum(c["n_samples"] for c in timed)
    rate = n_sum / sum(c["median_ref_s"] for c in timed) if timed else 0.0
    raw_rate = n_sum / sum(c["median_wall_s"] for c in timed) if timed else 0.0
    return {"rate": rate, "raw_rate": raw_rate, "rounds": index, "cases": cases,
            "reference_s": clock.samples, "attempted": attempted, "failures": failures}


def run_traced(w: Workload, seconds: float):
    tracer = Tracer()
    failures, passes, missing = Failures(), [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(trace_pass(w, tracer, len(passes), failures))
        missing = passes[-1].pop("missing")
    metrics = layer_metrics(tracer.spans, passes, failures)
    return {"metrics": metrics, "passes": len(passes), "missing": missing,
            "attempted": 2 * len(passes) * len(w.round0), "failures": failures,
            "spans": tracer.to_json()}


def trace_pass(w: Workload, tracer: Tracer, index: int, failures: Failures) -> dict:
    """Every round-0 case once untraced and once traced, alternating the order."""
    info = {"spans": [len(tracer.spans)], "roots": [], "counts": {},
            "untraced_wall": 0.0, "missing": []}
    for label, d in w.dicts(0):
        records = {}
        for traced in ((True, False) if index % 2 else (False, True)):
            run = f"{label} [pass {index}, {'traced' if traced else 'untraced'}]"
            if traced:
                tracer.run_id = run
                before = Counter(tracer.counts)
                with installed(tracer) as info["missing"]:
                    cfg = tracer.call("config.config_from_dict", PARSE_METRIC, None,
                                      w.config_from_dict, (d,), {})
                    info["roots"].append(len(tracer.spans))
                    record, _, error = w.run(cfg, lambda c, **kw: tracer.call(
                        "experiments.run_experiment", ROOT_METRIC, None,
                        w.run_experiment, (c,), kw))
                info["counts"][label] = dict(tracer.counts - before)
            else:
                record, wall, error = w.run(w.config_from_dict(d))
                info["untraced_wall"] += wall
            check(record, error, run, failures)
            records[traced] = record
        if None not in records.values() and (metrics_blob(records[True])
                                             != metrics_blob(records[False])):
            failures.add(f"{label} [pass {index}, traced]",
                         "traced metrics differ from untraced ones")
    info["spans"].append(len(tracer.spans))
    return info


def layer_metrics(spans, passes, failures: Failures) -> dict:
    """Per-layer medians over passes, counts of pass 0, and the span checks."""
    own = self_times(spans)
    for error in nesting_errors(spans):
        failures.add("trace", error)
    top, subtree = [], [0.0] * len(spans)
    for i, s in enumerate(spans):
        top.append(i if s.parent is None else top[s.parent])
        subtree[top[i]] += own[i]
    per_pass = []
    for p, info in enumerate(passes):
        lo, hi = info["spans"]
        layer = dict.fromkeys(TIME_METRICS, 0.0)
        for i in range(lo, hi):
            layer[spans[i].metric] += own[i]
        traced_wall = 0.0
        for r in info["roots"]:
            duration = spans[r].end - spans[r].start
            traced_wall += duration
            if abs(subtree[r] - duration) > 1e-9 * (1.0 + duration):
                failures.add(spans[r].run_id, f"layer self times sum to {subtree[r]!r} "
                                              f"s, not the traced wall {duration!r} s")
        layer["trace_overhead_frac"] = ((traced_wall - info["untraced_wall"])
                                        / info["untraced_wall"])
        per_pass.append(layer)
        if info["counts"] != passes[0]["counts"]:
            failures.add(f"pass {p}", "boundary counts differ from pass 0")

    counts = sum((Counter(c) for c in passes[0]["counts"].values()), Counter())
    metrics = {name: {"value": statistics.median(p[name] for p in per_pass), "unit": "s"}
               for name in TIME_METRICS}
    for name in COUNT_METRICS:
        metrics[name] = {"value": counts[name], "unit": "count"}
    for name, (num, den) in RATIO_METRICS.items():
        metrics[name] = {"value": counts[num] / counts[den] if counts[den] else 0.0,
                         "unit": "ratio"}
    metrics["trace_overhead_frac"] = {
        "value": statistics.median(p["trace_overhead_frac"] for p in per_pass),
        "unit": "ratio"}
    return metrics


def _blas_threads():
    """OpenBLAS's own thread count, or None when it cannot be queried."""
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_sha():
    """HEAD of the repository at ROOT, or None outside a git checkout."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "statebody").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment_stamp(args) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "workload": args.workload,
        "workload_seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
    }


def print_cases(cases):
    for c in cases:
        if not c["rounds"]:
            print(f"case {c['case']}: no completed run")
            continue
        dev = c["max_abs_sigma_dev"]
        tail = "" if dev is None else f", max |sigma_dev| {dev:.2f}"
        print(f"case {c['case']}: n={c['n_samples']}, median of {c['rounds']} rounds "
              f"{c['median_wall_s']:.4f} s wall, {c['median_ref_s']:.4f} reference s, "
              f"{c['n_samples'] / c['median_ref_s']:.1f} samples/s"
              f", value {c['values'][0]!r}{tail}")
        if dev is not None and dev > DEFAULT_SIGMA:
            print(f"note: {c['case']} fell outside the default {DEFAULT_SIGMA:g}-sigma "
                  "band in some round (reported, not gated)")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help=f"divide sample counts by {SMOKE_DIVISOR}, for checking "
                         "the benchmark itself")
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "statebody" / "__init__.py").is_file():
        print(f"error: no statebody sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS

    OUT.mkdir(parents=True, exist_ok=True)
    records_dir = OUT / f"records-{os.getpid()}"
    try:
        if args.probe_setup:
            Workload(args.workload, args.seed, args.smoke, records_dir)
            print("ready", flush=True)
            return 0
        setup, raw_setup = [], []
        if not args.trace:
            clock = ReferenceClock()
            for _ in range(SETUP_RUNS):
                raw_setup.append(time_set_up(args))
                setup.append(clock.scale(raw_setup[-1]))
        w = Workload(args.workload, args.seed, args.smoke, records_dir)
        stamp = environment_stamp(args)
        details = {}
        if args.trace:
            res = run_traced(w, args.seconds)
            metrics = res["metrics"]
            for name in res["missing"]:
                print(f"note: boundary {name} not found; its time counts to its caller")
            print(f"passes {res['passes']}, spans {len(res['spans'])}")
            (OUT / f"trace-{args.workload}-seed{args.seed}.json").write_text(
                json.dumps(res["spans"]) + "\n")
        else:
            res = run_untraced(w, args.seconds)
            print_cases(res["cases"])
            refs = res["reference_s"]
            print(f"rounds {res['rounds']}; reference kernel median "
                  f"{statistics.median(refs):.4f} s, range {min(refs):.4f}-{max(refs):.4f} s"
                  f"; unscaled samples/s {res['raw_rate']:.1f}")
            print("set-ups " + ", ".join(f"{s:.4f}" for s in raw_setup) + " s wall, "
                  + ", ".join(f"{s:.4f}" for s in setup) + " reference s")
            metrics = {
                "samples_per_s": {"value": res["rate"], "unit": "samples/s"},
                "setup_s": {"value": statistics.median(setup), "unit": "s"},
                "peak_rss_mb": {
                    "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                    "unit": "MB"},
            }
            details = {"cases": res["cases"], "unscaled_samples_per_s": res["raw_rate"],
                       "setup_wall_s": raw_setup, "setup_reference_s": setup,
                       "reference_kernel_s": refs}
        failures, attempted = res["failures"], res["attempted"]
        for run, reasons in failures.by_run.items():
            for reason in reasons:
                print(f"FAIL {run}: {reason}")
        print("stamp " + json.dumps(stamp))
        shown = dict(metrics)
        if not args.trace:
            shown["fail_frac"] = {"value": len(failures) / attempted, "unit": "ratio"}
        for name, m in shown.items():
            print(f"metric {name} = {m['value']!r} {m['unit']}")
        result = {"correct": len(failures) == 0, "attempted": attempted,
                  "failed": len(failures), "metrics": metrics}
        (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
         ).write_text(json.dumps({"stamp": stamp, "result": result,
                                  "failures": failures.by_run, **details},
                                 indent=1) + "\n")
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(records_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
