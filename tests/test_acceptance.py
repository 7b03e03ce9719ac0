"""Acceptance battery: one test per criterion, one printed verdict line each.

Criteria 1-10 and 12 are defined once, as suite experiments whose last row
is the criterion's gate (see `levylab.suite`).  The shipped acceptance
config runs them all at full scale, once per module, through the harness;
experiment `c<k>` and its `c<k>-...` siblings make up criterion k.
Criterion 11 checks byte-level determinism of the paper suite.
"""

import importlib.resources as res

import pytest

from levylab.harness import run

CONFIGS = res.files("levylab") / "configs"


def _report(num: int, description: str, ok: bool) -> None:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}  {description}")
    assert ok, f"criterion {num} failed: {description}"


@pytest.fixture(scope="module")
def battery(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance")
    return run(str(CONFIGS / "acceptance.json"), out_dir=out)["records"]


def _criterion(battery, num: int, description: str) -> None:
    """Every experiment of the criterion ran and its gate row passes."""
    records = [rec for rec in battery if rec.spec.name.split("-")[0] == f"c{num}"]
    notes, ok = [], bool(records)
    for rec in records:
        gates = [row for row in rec.rows if row["op"].startswith("gate[")]
        ok &= rec.error is None and len(gates) == 1 and gates[0]["verdict"] == "pass"
        if rec.error is not None:
            notes.append(f"{rec.spec.operation}: error")
        for g in gates:
            notes.append(f"{g['op']} {g['verdict']} ({g['mean']}/{g['n']}, need {g['target']})")
    _report(num, f"{description}: {'; '.join(notes)}", ok)


def test_every_experiment_is_gated(battery):
    """No experiment of the battery stands outside a criterion."""
    names = {rec.spec.name.split("-")[0] for rec in battery}
    assert names == {f"c{k}" for k in (*range(1, 11), 12)}


def test_criterion_01_variance_identity(battery):
    _criterion(battery, 1, "variance identity cells")


def test_criterion_02_gaussian_lyapunov_bounds(battery):
    _criterion(battery, 2, "Gaussian resolvent bounds")


def test_criterion_03_levy_sandwich(battery):
    _criterion(battery, 3, "Levy two-sided resolvent sandwich")


def test_criterion_04_moment_formulas(battery):
    _criterion(battery, 4, "closed-form second moments (point-mass and embedded Poisson)")


def test_criterion_05_projection_consistency(battery):
    _criterion(battery, 5, "cylinder resolvent equals projected estimate")


def test_criterion_06_reduced_projection_inequality(battery):
    _criterion(battery, 6, "projected reduced function dominates per sample")


def test_criterion_07_dirichlet_oracles(battery):
    _criterion(battery, 7, "Dirichlet oracles + harmonicity + continuity + negative control")


def test_criterion_08_controlled_convergence(battery):
    _criterion(battery, 8, "controlled convergence (c1) cases + majorant stability")


def test_criterion_09_capacity_balayage_domination(battery):
    _criterion(battery, 9, "capacity exact/tight + balayage + domination chain + control")


def test_criterion_10_projection_tails(battery):
    _criterion(battery, 10, "projection tail norms: Gaussian closed form + Poisson decrease")


def test_criterion_11_determinism(tmp_path):
    cfg = CONFIGS / "paper_suite.json"
    r1 = run(str(cfg), out_dir=tmp_path / "a", workers=1, samples_scale=0.25)
    r2 = run(str(cfg), out_dir=tmp_path / "b", workers=1, samples_scale=0.25)
    r3 = run(str(cfg), out_dir=tmp_path / "c", workers=4, samples_scale=0.25)
    a = (tmp_path / "a" / "summary.csv").read_bytes()
    b = (tmp_path / "b" / "summary.csv").read_bytes()
    c = (tmp_path / "c" / "summary.csv").read_bytes()
    ok = (a == b == c) and r1["exit_code"] == 0
    _report(11, "suite CSV byte-identical across runs and worker counts", ok)


def test_criterion_12_polarity(battery):
    _criterion(battery, 12, "points and H polar: E-/H-ball families + recurrent controls")
