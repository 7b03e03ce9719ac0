"""Config validation, determinism, error records and gate rows."""

import json

import pytest

from levylab import harness
from levylab.harness import ConfigError, ExperimentSpec, load_config, run
from levylab.cli import main

SMALL_CONFIG = {
    "seed": 3,
    "experiments": [
        {"operation": "variance_identity", "samples": 500},
        {"operation": "tail_projection", "samples": 500},
    ],
}


def _write(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return p


def test_unknown_top_level_key(tmp_path):
    p = _write(tmp_path, {"sead": 1, "experiments": []})
    with pytest.raises(ConfigError):
        load_config(p)


def test_unknown_experiment_key(tmp_path):
    p = _write(
        tmp_path,
        {"experiments": [{"operation": "variance_identity", "smples": 10}]},
    )
    with pytest.raises(ConfigError):
        load_config(p)


def test_parse_error_reports_line(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{\n  broken\n}")
    with pytest.raises(ConfigError, match="line"):
        load_config(p)


def test_spec_validation():
    with pytest.raises(ConfigError):
        ExperimentSpec(name="x", operation="nonexistent_op")
    with pytest.raises(ConfigError):
        ExperimentSpec(name="x", operation="variance_identity", samples=10)
    with pytest.raises(ConfigError):
        ExperimentSpec(name="x", operation="variance_identity", confidence=0.4)


def test_empty_experiment_list(tmp_path):
    p = _write(tmp_path, {"experiments": []})
    res = run(p, out_dir=tmp_path / "out")
    assert res["exit_code"] == 0
    lines = (tmp_path / "out" / "summary.csv").read_text().splitlines()
    assert len(lines) == 1  # header only


def test_determinism_across_runs_and_workers(tmp_path):
    p = _write(tmp_path, SMALL_CONFIG)
    run(p, out_dir=tmp_path / "a", workers=1)
    run(p, out_dir=tmp_path / "b", workers=1)
    run(p, out_dir=tmp_path / "c", workers=3)
    a = (tmp_path / "a" / "summary.csv").read_bytes()
    b = (tmp_path / "b" / "summary.csv").read_bytes()
    c = (tmp_path / "c" / "summary.csv").read_bytes()
    assert a == b == c


def test_seed_changes_results(tmp_path):
    p = _write(tmp_path, SMALL_CONFIG)
    run(p, out_dir=tmp_path / "a")
    run(p, out_dir=tmp_path / "b", seed=99)
    assert (
        (tmp_path / "a" / "summary.csv").read_bytes()
        != (tmp_path / "b" / "summary.csv").read_bytes()
    )


def test_streams_keyed_by_experiment_name(tmp_path):
    """One operation under two names draws two independent streams; the
    default name is the operation, so unnamed experiments keep theirs."""
    exp = {"operation": "tail_projection", "samples": 500}
    p = _write(tmp_path, {"experiments": [exp, dict(exp, name="tail_b")]})
    res = run(p, out_dir=tmp_path / "o")
    a, b = ([r["mean"] for r in rec.rows] for rec in res["records"])
    assert a != b
    alone = run(_write(tmp_path, {"experiments": [exp]}, "one.json"), out_dir=tmp_path / "p")
    assert [r["mean"] for r in alone["records"][0].rows] == a


def test_duplicate_experiment_names_rejected(tmp_path):
    exp = {"operation": "tail_projection", "samples": 500}
    for dup in ([exp, exp], [dict(exp, name="t"), dict(exp, name="t")]):
        with pytest.raises(ConfigError):
            load_config(_write(tmp_path, {"experiments": dup}))


def test_filter_selects_experiments(tmp_path):
    p = _write(tmp_path, SMALL_CONFIG)
    res = run(p, out_dir=tmp_path / "out", name_filter="tail*")
    names = {rec.spec.name for rec in res["records"]}
    assert names == {"tail_projection"}


def test_json_detail_records_metadata(tmp_path):
    p = _write(tmp_path, SMALL_CONFIG)
    res = run(p, out_dir=tmp_path / "out")
    detail = json.loads((tmp_path / "out" / "detail.json").read_text())
    assert detail["rng_algorithm"] == "sfc64"
    assert detail["seed"] == 3
    for exp in detail["experiments"]:
        assert exp["seconds"] >= 0.0
        assert len(exp["param_hash"]) == 12


def test_error_detail_carries_traceback(tmp_path, monkeypatch):
    """A raising experiment keeps one error row in the CSV, and its
    detail.json entry holds the traceback down to the raising function."""
    from levylab import suite

    def exploding_experiment(params, samples, seed, confidence, name):
        raise RuntimeError("boom")

    monkeypatch.setitem(suite.REGISTRY, "tail_projection", exploding_experiment)
    p = _write(tmp_path, {"experiments": [{"operation": "tail_projection", "samples": 500}]})
    assert run(p, out_dir=tmp_path / "o")["exit_code"] == 1
    error = json.loads((tmp_path / "o" / "detail.json").read_text())["experiments"][0]["error"]
    assert error.startswith("Traceback") and "exploding_experiment" in error
    assert error.rstrip().endswith("RuntimeError: boom")
    rows = (tmp_path / "o" / "summary.csv").read_text().splitlines()[1:]
    assert [row.split(",")[1::6] for row in rows] == [["error", "error"]]  # op, verdict


def test_gate_fails_only_when_failing_units_break_it():
    """A gate holds when no group misses more units than it allows, fails
    when a group's fail units alone exceed its allowance, and is
    inconclusive in between."""
    from levylab.suite import _gate

    def verdict(*groups):
        return _gate("g", *groups)["verdict"]

    assert verdict((["pass", "inconclusive"], 1)) == "pass"
    assert verdict((["inconclusive", "inconclusive"], 1)) == "inconclusive"
    assert verdict((["fail", "inconclusive"], 1)) == "inconclusive"
    assert verdict((["fail", "fail"], 1)) == "fail"
    assert verdict((["pass"], 0), (["inconclusive"], 1)) == "pass"
    assert verdict((["pass"], 0), (["fail"], 0)) == "fail"


def test_truncated_paths_fail_their_gates(tmp_path):
    """Failure signals reach the gates: slab paths cut off by the horizon
    fail their non-exit rows, and a balayage whose paths never reach M fails
    its degeneracy flag, although its occupancy rows pass."""
    params = {"dim": 2, "horizon": 0.05}
    ops = ("dirichlet_slab", "balayage")
    exps = [{"operation": op, "samples": 200, "parameters": params} for op in ops]
    slab, bal = run(_write(tmp_path, {"experiments": exps}), out_dir=tmp_path / "o")["records"]
    slab, bal = ({row["op"]: row["verdict"] for row in rec.rows} for rec in (slab, bal))
    assert slab["non_exit[x=0.5]"] == "fail" and slab["gate[gambler_ruin]"] == "fail"
    assert bal["balayage[halfspace(c1>=1.5),inside=True]"] == "pass"
    assert bal["not_degenerate"] == "fail" and bal["gate[balayage]"] == "fail"


def test_cli_config_error_exit_code(tmp_path):
    p = _write(tmp_path, {"bogus": True})
    assert main(["run", "--config", str(p), "--out", str(tmp_path / "o")]) == 2


_TAIL = {"operation": "tail_projection", "samples": 500}


@pytest.mark.parametrize(
    "cfg, args, key",
    [
        ({"experiments": [{**_TAIL, "samples": "many"}]}, [], "samples"),
        ({"experiments": [{**_TAIL, "samples": -5000}]}, [], "samples"),
        ({"experiments": [{**_TAIL, "samples": 50}]}, [], "samples"),
        ({"experiments": [{**_TAIL, "samples": 500.5}]}, [], "samples"),
        ({"experiments": [_TAIL]}, ["--filter", "c12*"], "filter"),
        ({"experiments": [{**_TAIL, "confidence": "high"}]}, [], "confidence"),
        ({"experiments": [{**_TAIL, "parameters": [1, 2]}]}, [], "parameters"),
        ({"experiments": {"a": 1, "e": 2, "i": 3}}, [], "experiments"),
        ({"experiments": [1, 2]}, [], "experiments"),
        ({"seed": "3", "experiments": [_TAIL]}, [], "seed"),
        ({"seed": 2.5, "experiments": [_TAIL]}, [], "seed"),
        ({"workers": "two", "experiments": [_TAIL]}, [], "workers"),
        ({"workers": 0, "experiments": [_TAIL]}, [], "workers"),
        ({"workers": True, "experiments": [_TAIL]}, [], "workers"),
        ({"experiments": [_TAIL]}, ["--workers", "0"], "workers"),
    ],
    ids=[
        "samples_str", "samples_negative", "samples_below_100", "samples_float",
        "filter_matches_nothing", "confidence_str", "parameters_list", "experiments_object",
        "experiments_not_objects", "seed_str", "seed_float", "workers_str", "workers_zero",
        "workers_bool", "cli_workers_zero",
    ],
)
def test_cli_malformed_config_values_exit_2(tmp_path, capsys, cfg, args, key):
    """A config value of the wrong type, fewer than one worker, a config
    `samples` below 100 (only a scaled count is floored there) or a filter
    that matches no experiment is a config error (exit 2) that names the
    key, not a traceback, an error row or a header-only CSV."""
    p = _write(tmp_path, cfg)
    assert main(["run", "--config", str(p), "--out", str(tmp_path / "o"), *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and key in err
    assert not (tmp_path / "o").exists()


def test_cli_malformed_env_seed_exit_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("LEVYLAB_SEED", "abc")
    p = _write(tmp_path, {"experiments": [_TAIL]})
    assert main(["run", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
    assert "LEVYLAB_SEED" in capsys.readouterr().err


def test_cli_clean_run(tmp_path, capsys):
    p = _write(tmp_path, {"experiments": [{"operation": "tail_projection", "samples": 500}]})
    code = main(["run", "--config", str(p), "--out", str(tmp_path / "o")])
    assert code == 0
    out = capsys.readouterr().out
    assert "pass=" in out


def test_samples_scale_floor(tmp_path):
    p = _write(tmp_path, {"experiments": [{"operation": "tail_projection", "samples": 500}]})
    res = run(p, out_dir=tmp_path / "o", samples_scale=0.01)
    assert res["records"][0].spec.samples == 100  # floored at the minimum


@pytest.mark.parametrize("scale", ["nan", "inf", "0", "-1"])
def test_bad_samples_scale_is_a_config_error(tmp_path, capsys, scale):
    """A non-finite or non-positive scale exits 2 from the CLI and raises
    from `run`, rather than overflowing in the sample count or running
    every experiment at the 100-sample floor."""
    p = _write(tmp_path, {"experiments": [_TAIL]})
    out = tmp_path / "o"
    assert main(["run", "--config", str(p), "--out", str(out), "--samples-scale", scale]) == 2
    assert "samples_scale" in capsys.readouterr().err
    with pytest.raises(ConfigError, match="samples_scale"):
        run(p, out_dir=out, samples_scale=float(scale))
    assert not out.exists()


@pytest.mark.parametrize("scale", ["1e308", "1e17"])
def test_overflowing_sample_count_is_a_config_error(tmp_path, capsys, scale):
    """A finite scale whose product with an experiment's samples is not a
    finite count below 2^63 exits 2 from the CLI and raises from `run`,
    rather than overflowing in int() or trying to allocate that many."""
    p = _write(tmp_path, {"experiments": [_TAIL]})
    out = tmp_path / "o"
    assert main(["run", "--config", str(p), "--out", str(out), "--samples-scale", scale]) == 2
    assert "samples_scale" in capsys.readouterr().err
    with pytest.raises(ConfigError, match="samples_scale"):
        run(p, out_dir=out, samples_scale=float(scale))
    assert not out.exists()


def test_csv_rows_parse_to_fixed_columns(tmp_path):
    """Op labels carry commas; every row of a small paper_suite run must
    still parse to the fixed columns."""
    import csv
    import importlib.resources as res

    from levylab.harness import CSV_COLUMNS

    cfg = res.files("levylab") / "configs" / "paper_suite.json"
    assert run(str(cfg), out_dir=tmp_path / "out", samples_scale=0.05)["exit_code"] == 0
    with open(tmp_path / "out" / "summary.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(CSV_COLUMNS)
    assert any("," in row[1] for row in rows[1:])
    assert all(len(row) == len(CSV_COLUMNS) for row in rows)


def test_config_workers_applies(tmp_path):
    p = _write(tmp_path, dict(SMALL_CONFIG, workers=2))
    run(p, out_dir=tmp_path / "cfg")
    detail = json.loads((tmp_path / "cfg" / "detail.json").read_text())
    assert detail["workers"] == 2
    run(p, out_dir=tmp_path / "override", workers=1)
    detail = json.loads((tmp_path / "override" / "detail.json").read_text())
    assert detail["workers"] == 1


def test_blas_pinned_during_run_and_restored(tmp_path):
    """run pins BLAS to one thread while its experiments run, records the
    library and the pin in detail.json, and restores the count it found."""
    found = harness._blas_threads()
    if found is None:
        pytest.skip("no BLAS thread setter found in this process")
    library, get, set_ = found
    before = get()
    set_(2)
    try:
        run(_write(tmp_path, SMALL_CONFIG), out_dir=tmp_path / "out", workers=2)
        assert get() == 2
    finally:
        set_(before)
    detail = json.loads((tmp_path / "out" / "detail.json").read_text())
    assert detail["blas"] == {"library": library, "threads": 1, "threads_outside_run": 2}


def test_blas_pin_is_a_no_op_without_a_setter(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "_blas_threads", lambda: None)
    res = run(_write(tmp_path, SMALL_CONFIG), out_dir=tmp_path / "out")
    assert res["exit_code"] == 0
    assert json.loads((tmp_path / "out" / "detail.json").read_text())["blas"] is None

