"""Result records: atomic JSON files plus an append-only CSV ledger.

The ``metrics`` block of a record is fully determined by (config, seed,
shards); timestamps and wall time live outside it, so reruns of an identical
config reproduce ``metrics`` byte for byte. Records are strict JSON: a NaN or
infinity is refused on write and reported as an error on load.
"""

from __future__ import annotations

import csv
import io
import json
import os
import tempfile
from dataclasses import asdict, dataclass, fields
from datetime import datetime, timezone
from pathlib import Path

CSV_COLUMNS = (
    "experiment", "shape", "field", "n_samples", "seed", "shards",
    "value", "stderr", "target", "sigma_dev", "passed",
    "config_hash", "version", "created_utc", "wall_time_s",
)

CSV_NAME = "results.csv"

# JSON types a loaded record's fields may hold, by annotation: a bool is no number
_JSON_TYPES = {"str": (str,), "dict": (dict,), "bool": (bool,), "float": (int, float),
               "float | None": (int, float, type(None))}


@dataclass
class ResultRecord:
    """One experiment outcome."""

    experiment: str
    config: dict
    config_hash: str
    metrics: dict
    value: float
    stderr: float | None
    target: float | None
    sigma_dev: float | None
    passed: bool
    version: str
    created_utc: str = ""
    wall_time_s: float = 0.0

    def to_dict(self) -> dict:
        return asdict(self)

    def csv_row(self) -> dict:
        shape = self.config.get("shape")
        return {
            "experiment": self.experiment,
            "shape": "x".join(str(s) for s in shape) if shape else "",
            "field": self.config.get("field", ""),
            "n_samples": self.config.get("n_samples", ""),
            "seed": self.config.get("seed", ""),
            "shards": self.config.get("shards", ""),
            "value": _fmt(self.value),
            "stderr": _fmt(self.stderr),
            "target": _fmt(self.target),
            "sigma_dev": _fmt(self.sigma_dev),
            "passed": str(bool(self.passed)).lower(),
            "config_hash": self.config_hash[:12],
            "version": self.version,
            "created_utc": self.created_utc,
            "wall_time_s": f"{self.wall_time_s:.3f}",
        }


def _fmt(x) -> str:
    if x is None:
        return ""
    return repr(float(x))


def _atomic_write(path: Path, text: str):
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def record_filename(record: ResultRecord) -> str:
    seed = record.config.get("seed", 0)
    return f"{record.experiment}-{record.config_hash[:10]}-seed{seed}.json"


def write_record(record: ResultRecord, out_dir) -> Path:
    """Write the JSON record atomically and append its row to the CSV ledger."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if not record.created_utc:
        record.created_utc = datetime.now(timezone.utc).isoformat(timespec="seconds")
    json_path = out / record_filename(record)
    _atomic_write(json_path, json.dumps(record.to_dict(), indent=2, sort_keys=False,
                                        allow_nan=False) + "\n")
    csv_path = out / CSV_NAME
    new_file = not csv_path.exists()
    with open(csv_path, "a", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        if new_file:
            writer.writeheader()
        writer.writerow(record.csv_row())
    return json_path


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name} is not valid JSON")


def load_records(results_dir):
    """All parseable records in a directory plus a list of failures."""
    root = Path(results_dir)
    records, errors = [], []
    for path in sorted(root.glob("*.json")):
        try:
            with open(path) as fh:
                data = json.load(fh, parse_constant=_reject_constant)
            record = ResultRecord(**data)
            wrong = [f.name for f in fields(record)
                     if type(getattr(record, f.name)) not in _JSON_TYPES[f.type]]
            if wrong:
                raise TypeError(f"wrongly typed fields: {', '.join(wrong)}")
            records.append(record)
        except (ValueError, TypeError, OSError) as exc:
            errors.append((path.name, f"{type(exc).__name__}: {exc}"))
    return records, errors


def _integer_order(value) -> tuple:
    """Integers in numeric order, then anything else by its text."""
    if isinstance(value, int) and not isinstance(value, bool):
        return (0, value, "")
    return (1, 0, str(value))


def _report_order(record) -> tuple:
    """Report rows by experiment, then shape as a tuple of integers (a
    shapeless polytope record before any shape), then seed as an integer."""
    shape = record.config.get("shape") or ()
    return (record.experiment, tuple(map(_integer_order, shape)),
            _integer_order(record.config.get("seed")))


def render_report(records, errors=()):
    """Markdown and CSV summaries of a batch of records, both in
    :func:`_report_order`."""
    records = sorted(records, key=_report_order)
    lines = ["# statebody results", ""]
    if records:
        lines += [
            "| experiment | shape | field | n | seed | value | stderr | target "
            "| sigma | pass |",
            "|---|---|---|---|---|---|---|---|---|---|",
        ]
        for r in records:
            row = r.csv_row()
            sigma = f"{r.sigma_dev:+.2f}" if r.sigma_dev is not None else "-"
            target = f"{r.target:.6g}" if r.target is not None else "-"
            stderr = f"{r.stderr:.3g}" if r.stderr is not None else "-"
            lines.append(
                f"| {r.experiment} | {row['shape'] or '-'} | {row['field'] or '-'} "
                f"| {row['n_samples']} | {row['seed']} | {r.value:.6g} | {stderr} "
                f"| {target} | {sigma} | {'PASS' if r.passed else 'FAIL'} |")
    else:
        lines.append("_no records_")
    if errors:
        lines += ["", "## unreadable records", ""]
        for name, msg in errors:
            lines.append(f"- `{name}`: {msg}")
    md = "\n".join(lines) + "\n"

    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS)
    writer.writeheader()
    for r in records:
        writer.writerow(r.csv_row())
    return md, buf.getvalue()
