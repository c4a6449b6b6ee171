"""Serialization round trips and the command-line surface."""

import hashlib
import json

import numpy as np
import pytest

from circlenoise import (
    PowerLawModel,
    SpectralSequence,
    asymptotics,
    brownian_bridge_kernel,
    condition_at_zero,
    covariogram_from_coeffs,
    io,
    sample_H,
)
from circlenoise.cli import main


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run(*argv):
    return main([str(a) for a in argv])


# --- file formats -------------------------------------------------------


def test_path_csv_round_trip(tmp_path):
    seq = SpectralSequence([1.0, 0.5, 0.2], domain_length=2.0)
    path = sample_H(seq, N=64, seed=3)
    f = tmp_path / "p.csv"
    io.write_path_csv(path, f)
    back = io.read_path_csv(f)
    np.testing.assert_array_equal(back.values, path.values)
    np.testing.assert_array_equal(back.grid_points, path.grid_points)
    assert back.t_step == path.t_step


def test_sequence_json_round_trip(tmp_path):
    seq = SpectralSequence([1.0, 0.25, 1e-17], domain_length=2.0)
    f = tmp_path / "s.json"
    io.write_json(io.sequence_to_dict(seq), f)
    back = io.sequence_from_dict(io.read_json(f))
    np.testing.assert_array_equal(back.coeffs, seq.coeffs)
    assert back.domain_length == seq.domain_length


def test_kernel_table_round_trip():
    seq = SpectralSequence([0.8, 0.4, 0.1], domain_length=1.0)
    cov = covariogram_from_coeffs(seq)
    back = io.kernel_from_dict(io.kernel_to_dict(cov, n_points=401))
    tau = np.linspace(0.0, 1.0, 37)
    np.testing.assert_allclose(back.evaluate(tau), cov.evaluate(tau), rtol=1e-4, atol=1e-6)

    R = condition_at_zero(cov)
    backR = io.kernel_from_dict(io.kernel_to_dict(R, n_points=201))
    s = np.linspace(0.1, 0.9, 9)
    np.testing.assert_allclose(backR.pair(s, s[::-1]), R.pair(s, s[::-1]), atol=1e-4)


def test_float_formatting_preserves_doubles():
    x = 0.1 + 0.2
    assert float(io.fmt(x)) == x


# --- CLI ----------------------------------------------------------------


def test_synth_power_law_writes_path_and_manifest(tmp_path):
    assert run("synth", "--a", 1, "--p", 1, "--model-n", 20, "--seed", 5, "--out", tmp_path) == 0
    assert (tmp_path / "path.csv").exists()
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["command"] == "synth"
    assert manifest["seed"] == 5
    assert "numpy" in manifest["versions"]


def test_rerun_from_manifest_is_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run("synth", "--a", 1, "--p", 1.25, "--model-n", 16, "--seed", 9, "--out", a)
    run("synth", "--config", a / "manifest.json", "--out", b)
    assert sha256(a / "path.csv") == sha256(b / "path.csv")


def test_seeded_synth_checksum_pinned(tmp_path):
    # reproducibility contract: counter-based RNG + fixed draw order
    run("synth", "--a", 1, "--p", 1, "--model-n", 20, "--seed", 0, "--out", tmp_path)
    assert sha256(tmp_path / "path.csv") == PINNED_PATH_SHA256


def test_sweep_emits_one_file_per_p(tmp_path):
    assert (
        run("synth", "--a", 1, "--model-n", 16, "--sweep-p", "0.75,1,1.25,1.5", "--out", tmp_path)
        == 0
    )
    names = sorted(f.name for f in tmp_path.glob("path_p*.csv"))
    assert names == ["path_p0.75.csv", "path_p1.25.csv", "path_p1.5.csv", "path_p1.csv"]


def test_synth_from_coeffs_conditioned(tmp_path):
    assert run("synth", "--coeffs", "1,0.5,0.2", "--condition", "--out", tmp_path) == 0
    path = io.read_path_csv(tmp_path / "path.csv")
    assert path.values[0] == 0.0


def test_condition_writes_kernel_table(tmp_path):
    assert run("condition", "--coeffs", "1,0.5", "--grid", 101, "--out", tmp_path) == 0
    table = io.read_json(tmp_path / "kernel.json")
    assert table["kind"] == "conditioned"
    kern = io.kernel_from_dict(table)
    assert abs(kern.pair(0.0, 0.5)) < 1e-12


def test_check_accepts_valid_spectrum(tmp_path):
    assert run("check", "--coeffs", "0.5,1,0.25", "--out", tmp_path) == 0
    verdict = io.read_json(tmp_path / "verdict.json")
    assert verdict["decision"] == "unique"
    got = np.array(verdict["spectrum"]["coeffs"])
    # recovery pads with zeros up to the truncation order
    np.testing.assert_allclose(got[:3], [0.5, 1.0, 0.25], atol=1e-7)
    np.testing.assert_allclose(got[3:], 0.0, atol=1e-7)


def test_check_rejects_bridge_kernel(tmp_path):
    io.write_json(io.kernel_to_dict(brownian_bridge_kernel(), n_points=201), tmp_path / "b.json")
    code = run("check", "--kernel", tmp_path / "b.json", "--trunc", 6, "--out", tmp_path)
    assert code == 2
    verdict = io.read_json(tmp_path / "verdict.json")
    assert verdict["decision"] == "no-generator"
    assert verdict["reasons"] == ["rbar-bound"]


def test_check_extends_bridge_kernel(tmp_path):
    io.write_json(io.kernel_to_dict(brownian_bridge_kernel(), n_points=401), tmp_path / "b.json")
    # interpolated 401-point table carries ~1e-6 quadrature error, so the
    # structural residual check needs a matching tolerance
    code = run(
        "check", "--kernel", tmp_path / "b.json", "--trunc", 9,
        "--extend", "--tol", "1e-4", "--out", tmp_path,
    )
    assert code == 0
    ext = io.read_json(tmp_path / "extension.json")
    assert ext["kind"] == "antiperiodic"
    coeffs = np.array(ext["spectrum"]["coeffs"])
    assert coeffs[1] == pytest.approx(2.0 / np.pi, abs=1e-3)


def test_check_trivial_kernel_is_negative_verdict(tmp_path):
    table = {
        "kind": "conditioned",
        "domain_length": 1.0,
        "grid": np.linspace(0, 1, 11).tolist(),
        "values": np.zeros((11, 11)).tolist(),
    }
    io.write_json(table, tmp_path / "z.json")
    assert run("check", "--kernel", tmp_path / "z.json", "--out", tmp_path) == 2
    verdict = io.read_json(tmp_path / "verdict.json")
    assert verdict["decision"] == "trivial-zero"


def test_spectrum_command_reports_interlacing(tmp_path):
    code = run(
        "spectrum", "--coeffs", "0.7,0.45,0.22", "--oracle-m", 300, "--out", tmp_path
    )
    assert code == 0
    sysd = io.read_json(tmp_path / "eigensystem.json")
    assert sysd["interlacing"]["passed"] is True
    assert sysd["oracle"]["max_rel_diff"] < 1e-3
    for residual in sysd["diagnostics"]["secular_residuals"]:
        assert abs(residual) < 1e-9


@pytest.mark.parametrize("m", [100, 256])
def test_spectrum_oracle_grid_too_coarse_is_refused(tmp_path, capsys, m):
    # K=128 has 256 analytic eigenvalues: m=100 crashed comparing them, and
    # m=256 loses the frequency-128 sine (max_rel_diff 9e27)
    coeffs = ",".join(["0.3"] + [f"{1 / k:.6f}" for k in range(1, 129)])
    code = run("spectrum", "--coeffs", coeffs, "--oracle-m", m, "--out", tmp_path)
    assert code == 1
    err = capsys.readouterr().err
    assert f"--oracle-m {m} cannot resolve frequency 128: use --oracle-m 257 or more" in err
    assert not (tmp_path / "eigensystem.json").exists()
    assert run("spectrum", "--coeffs", coeffs, "--oracle-m", 257, "--out", tmp_path) == 0
    assert io.read_json(tmp_path / "eigensystem.json")["oracle"]["max_rel_diff"] < 1e-10


def test_regularity_command(tmp_path):
    run("synth", "--coeffs", ",".join(["0"] + ["1"] * 64), "--grid", 4096, "--out", tmp_path)
    code = run(
        "regularity",
        "--coeffs",
        ",".join(f"{1/k if k else 0:.6f}" for k in range(65)),
        "--path",
        tmp_path / "path.csv",
        "--out",
        tmp_path,
    )
    assert code == 0
    rep = io.read_json(tmp_path / "regularity.json")
    assert rep["predicted"]["beta_sup"] == pytest.approx(0.5, abs=0.02)
    assert (tmp_path / "structure.csv").exists()


def test_fit_command_modes(tmp_path):
    run("synth", "--a", 1, "--p", 1, "--model-n", 128, "--seed", 2, "--out", tmp_path)
    assert run("fit", "--path", tmp_path / "path.csv", "--out", tmp_path) == 0
    fit = io.read_json(tmp_path / "fit.json")
    assert fit["mode"] == "joint"
    assert abs(fit["p_hat"] - 1.0) < 0.25

    assert run("fit", "--path", tmp_path / "path.csv", "--known-p", 1.0, "--out", tmp_path) == 0
    fit = io.read_json(tmp_path / "fit.json")
    assert fit["mode"] == "known-p"
    assert abs(fit["a_hat"] - 1.0) < 0.25

    assert run("fit", "--path", tmp_path / "path.csv", "--known-a", 1.0, "--out", tmp_path) == 0
    assert io.read_json(tmp_path / "fit.json")["mode"] == "known-a"


def test_study_command_summary(tmp_path):
    code = run(
        "study", "--a", 1, "--p", 1, "--model-n", 24, "--reps", 40, "--seed", 1, "--out", tmp_path
    )
    assert code == 0
    summary = io.read_json(tmp_path / "summary.json")
    assert -1.0 <= summary["correlation"] <= 1.0
    assert 0.0 <= summary["coverage95_p"] <= 1.0
    rows = (tmp_path / "study.csv").read_text().strip().splitlines()
    assert len(rows) == 41  # header + one row per replicate


def test_study_summary_matches_its_table(tmp_path):
    assert run("study", "--model-n", 24, "--reps", 30, "--seed", 3, "--out", tmp_path) == 0
    summary = io.read_json(tmp_path / "summary.json")
    table = np.loadtxt(tmp_path / "study.csv", delimiter=",", skiprows=1)
    assert summary["sd_a_hat"] == float(table[:, 1].std(ddof=1))
    assert summary["sd_p_hat"] == float(table[:, 2].std(ddof=1))
    predicted = asymptotics(PowerLawModel(a=1.0, p=1.0, n=24)).fisher_correlation
    assert summary["predicted_correlation"] == predicted


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["fit", "--known-a", -1], "--known-a"),
        (["fit", "--known-a", "nan"], "--known-a"),
        (["synth", "--a", 0, "--p", 1, "--model-n", 8], "--a"),
        (["synth", "--a", 1, "--p", 1, "--model-n", 0], "--model-n"),
        (["study", "--a", -1], "--a"),
        (["study", "--a", "inf"], "--a"),
        (["study", "--model-n", 0], "--model-n"),
    ],
)
def test_power_law_flags_refused_before_output(tmp_path, capsys, argv, flag):
    run("synth", "--a", 1, "--p", 1, "--model-n", 8, "--out", tmp_path)
    capsys.readouterr()
    out = tmp_path / "out"
    if argv[0] == "fit":
        argv = argv + ["--path", tmp_path / "path.csv"]
    assert run(*argv, "--out", out) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and flag in err
    assert not out.exists()


def test_spectrum_refuses_zero_cluster_tol(tmp_path, capsys):
    code = run("spectrum", "--coeffs", "1,0.5,0.5,0.2", "--cluster-tol", 0, "--out", tmp_path)
    assert code == 1
    assert "cluster_tol must be finite and positive" in capsys.readouterr().err
    assert not (tmp_path / "eigensystem.json").exists()


def test_study_refuses_single_replicate(tmp_path):
    out = tmp_path / "study"
    assert run("study", "--reps", 1, "--model-n", 24, "--out", out) == 1
    assert not (out / "summary.json").exists()


def test_write_json_refuses_nan(tmp_path):
    with pytest.raises(ValueError):
        io.write_json({"correlation": float("nan")}, tmp_path / "x.json")


def test_fit_rejects_non_finite_samples(tmp_path, capsys):
    f = tmp_path / "nan.csv"
    f.write_text("t,value\n0,0.5\n0.25,nan\n0.5,0.1\n0.75,0.2\n")
    assert run("fit", "--path", f, "--out", tmp_path) == 1
    err = capsys.readouterr().err
    assert "nan.csv" in err and "non-finite sample in data row 2" in err


def test_condition_refuses_single_point_grid(tmp_path):
    assert run("condition", "--coeffs", "1,0.5", "--grid", 1, "--out", tmp_path) == 1


def test_bridge_demo(tmp_path):
    assert run("bridge-demo", "--trunc", 8, "--out", tmp_path) == 0
    demo = io.read_json(tmp_path / "bridge_demo.json")
    assert demo["rejection"]["decision"] == "no-generator"
    assert demo["extension"]["kind"] == "antiperiodic"
    assert demo["recovered_vs_ideal"]["max_abs_err"] < 1e-4
    assert demo["periodicity"] == "antiperiodic"


def test_operational_error_exits_one(tmp_path, capsys):
    assert run("fit", "--path", tmp_path / "missing.csv", "--out", tmp_path) == 1
    assert capsys.readouterr().err.strip()


def test_negative_coeffs_rejected(tmp_path):
    assert run("synth", "--coeffs", "1,-0.5", "--out", tmp_path) == 1


PINNED_PATH_SHA256 = "fbc82df505953884095163df4dd563a51d7f56012beb3bef4d7f9aab70587f75"
