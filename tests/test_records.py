"""Result records: JSON persistence, the CSV ledger, report rendering."""

import csv
import json

import pytest

from statebody import ResultRecord, load_records, render_report, write_record
from statebody.records import CSV_COLUMNS, CSV_NAME, record_filename


def make_record(seed=1, value=2.0, passed=True):
    return ResultRecord(
        experiment="omega",
        config={"experiment": "omega", "shape": [2, 2], "field": "complex",
                "n_samples": 10000, "seed": seed, "shards": 1},
        config_hash="ab" * 32,
        metrics={"omega": value, "stderr": 0.05},
        value=value,
        stderr=0.05,
        target=2.0,
        sigma_dev=(value - 2.0) / 0.05,
        passed=passed,
        version="0.1.0",
    )


def test_record_filename():
    # hash truncated to ten characters, seed spelled out
    rec = make_record(seed=9)
    assert record_filename(rec) == f"omega-{'ab' * 5}-seed9.json"


def test_write_creates_json_and_csv(tmp_path):
    rec = make_record()
    path = write_record(rec, tmp_path)
    assert path.exists()
    data = json.loads(path.read_text())
    assert data["experiment"] == "omega"
    assert data["value"] == 2.0
    assert data["created_utc"]  # stamped on write
    csv_path = tmp_path / CSV_NAME
    with open(csv_path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert tuple(rows[0].keys()) == CSV_COLUMNS
    assert rows[0]["value"] == "2.0"
    assert rows[0]["passed"] == "true"
    assert rows[0]["config_hash"] == "ab" * 6


def test_rewrite_replaces_json_but_appends_csv(tmp_path):
    write_record(make_record(), tmp_path)
    write_record(make_record(), tmp_path)
    assert len(list(tmp_path.glob("*.json"))) == 1
    with open(tmp_path / CSV_NAME) as fh:
        assert len(list(csv.DictReader(fh))) == 2


def test_load_records_roundtrip(tmp_path):
    write_record(make_record(seed=1), tmp_path)
    write_record(make_record(seed=2, value=2.3, passed=False), tmp_path)
    records, errors = load_records(tmp_path)
    assert errors == []
    assert sorted(r.config["seed"] for r in records) == [1, 2]
    assert {r.passed for r in records} == {True, False}


def test_load_records_reports_corrupt_files(tmp_path):
    write_record(make_record(), tmp_path)
    with pytest.raises(ValueError):  # a non-finite value is never written
        write_record(make_record(seed=2, value=float("nan")), tmp_path)
    (tmp_path / "zz-broken.json").write_text("{]")
    data = make_record().to_dict()
    (tmp_path / "zz-extra-key.json").write_text(json.dumps({**data, "extra": 1}))
    (tmp_path / "zz-nan.json").write_text(json.dumps({**data, "value": float("nan")}))
    (tmp_path / "zz-infinity.json").write_text(
        json.dumps({**data, "metrics": {"omega": float("inf")}}))
    # well-formed JSON whose fields have the wrong types
    (tmp_path / "zz-value-string.json").write_text(json.dumps({**data, "value": "oops"}))
    (tmp_path / "zz-config-list.json").write_text(json.dumps({**data, "config": [1, 2]}))
    del data["stderr"]
    (tmp_path / "zz-missing-key.json").write_text(json.dumps(data))
    records, errors = load_records(tmp_path)
    assert len(records) == 1
    assert [name for name, _ in errors] == [
        "zz-broken.json", "zz-config-list.json", "zz-extra-key.json",
        "zz-infinity.json", "zz-missing-key.json", "zz-nan.json",
        "zz-value-string.json"]
    md, _ = render_report(records, errors)
    assert "zz-value-string.json" in md


def test_render_report(tmp_path):
    records = [make_record(seed=1), make_record(seed=2, value=2.5, passed=False)]
    md, csv_text = render_report(records)
    assert "| omega |" in md
    assert "PASS" in md and "FAIL" in md
    lines = csv_text.strip().splitlines()
    assert lines[0].split(",")[0] == "experiment"
    assert len(lines) == 3
    md_empty, _ = render_report([], errors=[("x.json", "boom")])
    assert "no records" in md_empty.lower() or "unreadable" in md_empty.lower()


def test_render_report_orders_seeds_and_shapes_as_integers():
    """Seeds 9, 10, 100 and shapes 2x2, 2x3, 10x2 come in numeric order, not
    as text ("10" < "100" < "9", "10x2" < "2x2"); a shapeless polytope record
    comes first among its experiment's rows wherever it sits in the input."""
    def row(experiment, shape, seed):
        config = {"experiment": experiment, "seed": seed}
        if shape:
            config["shape"] = list(shape)
        return ResultRecord(experiment=experiment, config=config,
                            config_hash="cd" * 32, metrics={}, value=2.0,
                            stderr=None, target=None, sigma_dev=None,
                            passed=True, version="0.1.0")

    records = [row("omega", (10, 2), 1), row("omega", (2, 2), 100),
               row("omega", (2, 2), 9), row("omega", (2, 3), 1),
               row("omega", (2, 2), 10), row("polytope-gamma", None, 10),
               row("polytope-gamma", None, 9)]
    md, _ = render_report(records)
    table = [line.split("|") for line in md.splitlines() if line.startswith("| ")][1:]
    assert [(cells[2].strip(), cells[5].strip()) for cells in table] == [
        ("2x2", "9"), ("2x2", "10"), ("2x2", "100"), ("2x3", "1"), ("10x2", "1"),
        ("-", "9"), ("-", "10")]
    md_reversed, _ = render_report(records[::-1])
    assert md_reversed == md
