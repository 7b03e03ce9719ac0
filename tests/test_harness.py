"""Config validation, determinism, error records and gate rows."""

import ast
import json
from dataclasses import replace
from pathlib import Path

import pytest

from levylab import harness, suite
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
    assert detail["confidence"] == 0.999  # the one band level, recorded once
    for exp in detail["experiments"]:
        assert "confidence" not in exp
        assert exp["seconds"] >= 0.0
        assert len(exp["param_hash"]) == 12


def test_error_detail_carries_traceback(tmp_path, monkeypatch):
    """A raising experiment keeps one error row in the CSV, and its
    detail.json entry holds the traceback down to the raising function."""
    from levylab import suite

    def exploding_experiment(params, samples, seed, name):
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


def test_truncated_paths_fail_their_gates(tmp_path, monkeypatch):
    """Failure signals reach the gates: slab paths cut off by the horizon
    fail their non-exit rows, and a balayage whose paths never reach M fails
    its degeneracy flag, although its occupancy rows pass."""
    for grid in ("_SLAB_GRID", "_BALAYAGE_GRID"):
        monkeypatch.setattr(suite, grid, replace(getattr(suite, grid), horizon=0.05))
    exps = [
        {"operation": "dirichlet_slab", "samples": 200},
        {"operation": "balayage", "samples": 200, "parameters": {"dim": 2}},
    ]
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
        ({"experiments": [{**_TAIL, "confidence": 0.999}]}, [], "confidence"),
        ({"out_dir": "elsewhere", "experiments": [_TAIL]}, [], "out_dir"),
        ({"experiments": [{**_TAIL, "parameters": [1, 2]}]}, [], "parameters"),
        ({"experiments": [{**_TAIL, "operation": ["tail_projection"]}]}, [], "operation"),
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
        "filter_matches_nothing", "confidence_unknown_key", "out_dir_unknown_key",
        "parameters_list", "operation_list",
        "experiments_object",
        "experiments_not_objects", "seed_str", "seed_float", "workers_str", "workers_zero",
        "workers_bool", "cli_workers_zero",
    ],
)
def test_cli_malformed_config_values_exit_2(tmp_path, capsys, cfg, args, key):
    """A config value of the wrong type, fewer than one worker, a config
    `samples` below 100 (only a scaled count is floored there), a filter
    that matches no experiment, a `confidence` key (every band uses the
    library's one level) or an `out_dir` key (`--out` sets the directory) is
    a config error (exit 2) that names the key, not a traceback, an error row
    or a header-only CSV."""
    p = _write(tmp_path, cfg)
    assert main(["run", "--config", str(p), "--out", str(tmp_path / "o"), *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and key in err
    assert not (tmp_path / "o").exists()


def test_cli_missing_config_exit_2(tmp_path, capsys):
    """A config file that cannot be read is a config error, not a traceback."""
    missing = tmp_path / "nonexistent.json"
    assert main(["run", "--config", str(missing), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "nonexistent.json" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "exp, key",
    [
        ({"operation": "polarity", "parameters": {"dt": 0.001}}, "dt"),
        ({"operation": "reduced_projection", "parameters": {"horizn": 4.0}}, "horizn"),
        ({"operation": "controlled_convergence", "parameters": {"dim": 8}}, "dim"),
        ({"operation": "capacity_basics", "parameters": {"dim": "32"}}, "dim"),
        ({"operation": "gaussian_lyapunov", "parameters": {"points": 2.5}}, "points"),
        ({"operation": "balayage", "parameters": {"dt": True}}, "dt"),
        ({"operation": "balayage", "parameters": {"dim": True}}, "dim"),
        ({"operation": "dirichlet_slab", "parameters": {"dt": 0.01}}, "dt"),
        ({"operation": "polarity", "parameters": {"dim": 32}}, "dim"),
        ({"operation": "controlled_convergence", "parameters": {"points": 10}}, "points"),
    ],
    ids=[
        "unread_dt", "typo_horizon", "unread_dim", "dim_str", "points_float", "dt_bool",
        "dim_bool", "fixed_grid_dt", "fixed_dim", "fixed_points",
    ],
)
def test_cli_parameters_an_experiment_does_not_read_exit_2(tmp_path, capsys, exp, key):
    """A `parameters` key the experiment does not read, even one that sets
    the value it runs at, or a value that is not an integer, is a config
    error that names the key, so a typo or a fixed setting never runs
    silently at the constant."""
    p = _write(tmp_path, {"experiments": [{**exp, "samples": 100}]})
    assert main(["run", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and key in err
    assert not (tmp_path / "o").exists()


def _params_read(tree, name, seen=()):
    """Keys the suite function `name` reads from `params`, itself or through
    the suite functions it hands `params` to."""
    keys = set()
    for node in ast.walk(tree[name]):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Attribute) and f.attr == "get" and getattr(f.value, "id", "") == "params":
            keys.add(node.args[0].value)
        elif getattr(f, "id", None) in tree and f.id not in seen:
            if any(getattr(a, "id", None) == "params" for a in node.args):
                keys |= _params_read(tree, f.id, seen + (name,))
    return keys


def test_each_experiment_declares_the_parameters_it_reads():
    """suite.PARAMETERS names exactly the keys each experiment reads."""
    module = ast.parse(Path(suite.__file__).read_text())
    tree = {n.name: n for n in module.body if isinstance(n, ast.FunctionDef)}
    reads = {op: _params_read(tree, fn.__name__) for op, fn in suite.REGISTRY.items()}
    assert reads == {op: set(suite.PARAMETERS.get(op, ())) for op in suite.REGISTRY}
    # the walk finds the reads: the four keys the shipped configs set differently
    assert sorted((op, k) for op, keys in reads.items() for k in keys) == [
        ("balayage", "dim"),
        ("capacity_basics", "dim"),
        ("gaussian_lyapunov", "points"),
        ("levy_sandwich", "points"),
    ]


def test_cli_ignores_the_environment(tmp_path, monkeypatch):
    """`--seed`, the config's `seed` and `--out` are the only routes: a set
    LEVYLAB_SEED or LEVYLAB_OUT changes neither the CSV bytes nor where
    they are written."""
    p = _write(tmp_path, {"seed": 5, "experiments": [_TAIL]})
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--config", str(p), "--out", "plain"]) == 0
    monkeypatch.setenv("LEVYLAB_SEED", "99")
    monkeypatch.setenv("LEVYLAB_OUT", str(tmp_path / "env"))
    assert main(["run", "--config", str(p), "--out", "with_env"]) == 0
    assert main(["run", "--config", str(p)]) == 0
    plain = (tmp_path / "plain" / "summary.csv").read_bytes()
    assert (tmp_path / "with_env" / "summary.csv").read_bytes() == plain
    assert (tmp_path / "summary.csv").read_bytes() == plain  # --out defaults to "."
    assert not (tmp_path / "env").exists()


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

