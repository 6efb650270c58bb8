"""Harness orchestration, emission, determinism, CLI."""

import json
import subprocess
import sys

import numpy as np
import pytest

from momentflow import configspace as cs
from momentflow import ensembles as ens
from momentflow import harness
from momentflow.harness import (
    CheckResult,
    ExperimentConfig,
    ExperimentReport,
    emit_report,
    run_experiment,
    validate_scale_chain,
)


def test_scale_chain_validation():
    assert validate_scale_chain(1e-3, 0.1, 1.0, 100, 0.2)
    with pytest.raises(ValueError, match="scale chain"):
        validate_scale_chain(1e-3, 0.5, 1.0, 100, 1.5)


def test_operator_suite_small():
    cfg = ExperimentConfig(kind="operator-suite", seed=1, N=6, n=4,
                           haar_samples=30_000, l1_trials=4)
    rep = run_experiment(cfg)
    names = [c.name for c in rep.checks]
    assert len(names) == len(set(names))  # every check appears exactly once
    assert rep.all_passed
    assert "haar-crosscheck" in rep.tables


def test_operator_suite_six_labels():
    # The exact commutation check runs over all 203 partitions of [6].
    cfg = ExperimentConfig(kind="operator-suite", N=5, n=6,
                           haar_samples=30_000, l1_trials=4)
    rep = run_experiment(cfg)
    assert rep.all_passed
    comm = [c for c in rep.checks if c.name == "generator-expectation-commutation"]
    assert len(comm) == 1 and comm[0].value <= 1e-12


def test_operator_suite_report_cells_are_configuration_tuples():
    # A configuration cell is str() of a tuple of Python ints, "(0, 0, 1, 1)";
    # a numpy row would print "[0 0 1 1]" or "(np.int64(0), ...)".
    cfg = ExperimentConfig(kind="operator-suite")
    rep = run_experiment(cfg)
    space = cs.enumerate_space(cfg.N, cfg.n)
    cells = {str(tuple(int(v) for v in row)) for row in space.configs}
    headers, rows = rep.tables["haar-crosscheck"]
    assert headers[:2] == ["x", "y"]
    assert rows and all(x in cells and y in cells for x, y, *_ in rows)


@pytest.mark.parametrize("N", [6, 8])
def test_sparse_operator_checks_match_dense_loop(N):
    # operator-suite's sparse commutation defect and support-restricted top
    # eigenvalues against the dense products and full eigvalsh per pair.
    sp = cs.enumerate_space(N, 4)
    partitions = cs.all_partitions(4)
    stacked = harness._stack_expectations(sp, partitions)
    expectations = [cs.conditional_expectation(sp, P).dense() for P in partitions]
    for i in range(N):
        for j in range(i + 1, N):
            Bij = cs.pair_generator(sp, i, j).mat
            dense = Bij.toarray()
            dense_defect = max(float(np.max(np.abs(dense @ EP - EP @ dense)))
                               for EP in expectations)
            defect = harness._commutation_defect(Bij, stacked)
            assert abs(defect - dense_defect) <= 1e-15
            assert defect <= 1e-12
            E = cs.pair_generator(sp, i, j, part="exchange-only").dense()
            M = cs.pair_generator(sp, i, j, part="move-only").dense()
            for A in (E, M - E):
                assert np.any(np.all(A == 0.0, axis=1))
                full = np.linalg.eigvalsh(cs.pi_symmetrize(sp.pi, A))[-1]
                assert abs(harness._top_eigenvalue(sp.pi, A) - full) <= 1e-14
    # A zero row adds the eigenvalue 0 above a negative definite support.
    assert harness._top_eigenvalue(np.ones(3), np.diag([-1.0, 0.0, -2.0])) == 0.0
    assert harness._top_eigenvalue(np.ones(2), np.diag([-1.0, -2.0])) == -1.0


def test_fsp_experiment_passes():
    rep = run_experiment(ExperimentConfig(kind="fsp", seed=2))
    assert rep.all_passed


def test_assumptions_experiment_passes():
    rep = run_experiment(ExperimentConfig(kind="assumptions", seed=2, N=120))
    assert rep.all_passed
    assert "classical-locations" in rep.tables


def test_generator_validate_experiment_passes():
    rep = run_experiment(ExperimentConfig(kind="generator-validate", seed=2,
                                          paths=20_000))
    assert rep.all_passed


def test_mixing_experiment_passes():
    rep = run_experiment(ExperimentConfig(kind="mixing", seed=2, ells=(8, 16)))
    assert rep.all_passed
    assert "poincare" in rep.tables and "ultracontractivity" in rep.tables


def test_ansatz_compare_passes():
    rep = run_experiment(ExperimentConfig(kind="ansatz-compare", seed=2,
                                          mc_trials=120, mc_N=32))
    assert rep.all_passed


def test_particle_number_defaults(monkeypatch, tmp_path):
    # The CLI builds configs without n: operator-suite and ansatz-compare run
    # n=4, every other kind n=2, and an explicit n is kept.
    class Captured(Exception):
        pass

    seen = []

    def capture(cfg):
        seen.append(cfg)
        raise Captured

    monkeypatch.setattr(harness, "run_experiment", capture)
    for kind in ("operator-suite", "ansatz-compare", "mixing"):
        with pytest.raises(Captured):
            harness.main([kind, "--out", str(tmp_path)])
    assert [cfg.n for cfg in seen] == [4, 4, 2]
    for kind in ("operator-suite", "ansatz-compare"):
        assert ExperimentConfig(kind=kind, n=2).n == 2
        assert ExperimentConfig.from_dict({"kind": kind}).n == 4
    assert ExperimentConfig(kind="assumptions").to_dict()["n"] == 2


def test_joint_normality_small_goe():
    cfg = ExperimentConfig(kind="joint-normality", seed=4, trials=400,
                           ensemble=ens.EnsembleSpec(kind="goe", N=80, seed=4))
    rep = run_experiment(cfg)
    assert rep.all_passed


def test_emit_report_json_and_csv(tmp_path):
    rep = ExperimentReport(
        config={"kind": "demo", "seed": 1},
        checks=[CheckResult("alpha", 1.0, 1.0, 0.1, True)],
        tables={"curve": (["s", "value"], [(0.0, 1.0), (1.0, 0.5)])},
    )
    paths = emit_report(rep, fmt="csv", out_dir=tmp_path / "csv")
    assert (tmp_path / "csv" / "summary.json").exists()
    assert (tmp_path / "csv" / "curve.csv").exists()
    lines = open(tmp_path / "csv" / "curve.csv").read().strip().splitlines()
    assert lines[0] == "s,value"
    summary = json.load(open(paths[0]))
    assert summary["checks"][0]["name"] == "alpha"
    assert summary["checks"][0]["pass"] is True
    jpaths = emit_report(rep, fmt="json", out_dir=tmp_path / "json")
    summary2 = json.load(open(jpaths[0]))
    assert summary2["tables"]["curve"]["rows"] == [[0.0, 1.0], [1.0, 0.5]]


def test_emit_report_empty_checks(tmp_path):
    rep = ExperimentReport(config={"kind": "demo"}, checks=[], tables={})
    (path,) = emit_report(rep, fmt="json", out_dir=tmp_path)
    assert json.load(open(path))["checks"] == []


def test_rerun_byte_identical(tmp_path):
    out = []
    for name in ("a", "b"):
        cfg = ExperimentConfig(kind="fsp", seed=5, record_runtime=False)
        emit_report(run_experiment(cfg), fmt="json", out_dir=tmp_path / name)
        out.append(open(tmp_path / name / "summary.json", "rb").read())
    assert out[0] == out[1]


def test_config_json_round_trip(tmp_path):
    cfg = ExperimentConfig(
        kind="joint-normality", seed=9, trials=50,
        ensemble=ens.EnsembleSpec(kind="erdos-renyi", N=60, p=6, seed=9),
    )
    path = tmp_path / "cfg.json"
    with open(path, "w") as fh:
        json.dump(cfg.to_dict(), fh)
    again = ExperimentConfig.from_json(path)
    assert again.kind == cfg.kind
    assert again.trials == 50
    assert again.ensemble == cfg.ensemble


def test_cli_end_to_end(tmp_path):
    out_dir = tmp_path / "run"
    proc = subprocess.run(
        [sys.executable, "-m", "momentflow", "fsp", "--seed", "3",
         "--out", str(out_dir), "--format", "csv"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "PASS far-field" in proc.stdout
    assert (out_dir / "summary.json").exists()
    assert (out_dir / "profile.csv").exists()


def test_cli_seed_override_reaches_ensemble_echo(tmp_path):
    # --seed replaces the config file's seed after the config is built; the
    # echoed ensemble seed must be the one the run drew from, and the run
    # must equal one configured with that seed directly.
    base = {"kind": "assumptions", "N": 40, "record_runtime": False}
    summaries = []
    for name, file_seed, argv in (("override", 3, ["--seed", "9"]), ("direct", 9, [])):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({**base, "seed": file_seed}))
        out_dir = tmp_path / name
        assert harness.main(["assumptions", "--config", str(path), "--out", str(out_dir),
                             *argv]) == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["config"].pop("out") == str(out_dir)
        summaries.append(summary)
    assert summaries[0]["config"]["seed"] == 9
    assert summaries[0]["config"]["ensemble"]["seed"] == 9
    assert summaries[0] == summaries[1]


def test_cli_help_documents_columns():
    proc = subprocess.run([sys.executable, "-m", "momentflow", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "CSV columns" in proc.stdout
