"""Command-line front end.

Every run writes its outputs plus a manifest.json recording the resolved
parameters, the seed, and library versions (no timestamps), so rerunning
with --config manifest.json reproduces the outputs byte for byte.

Exit codes: 0 success, 1 operational error, 2 negative mathematical
verdict (no generator exists, no extension exists).
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import io
from .errors import AllZeroKernel, CircleNoiseError, ConfigError
from .generator import (
    brownian_bridge_generator,
    brownian_bridge_kernel,
    check_generator,
    extension_dichotomy,
)
from .mle import PowerLawModel, asymptotics, energies, fit_joint, fit_known_a, fit_known_p, sample_model
from .regularity import default_lags, empirical_holder, predict_regularity, structure_function
from .spectral import (
    condition_at_zero,
    covariogram_from_coeffs,
    fourier_matrices,
)
from .spectrum import CLUSTER_TOL, conditioned_spectrum, operator_oracle, verify_interlacing
from .synthesis import classify_periodicity, sample_H, sample_H0

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NEGATIVE = 2


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, default=None, help="RNG seed (default 0)")
    sub.add_argument("--out", type=str, default=None, help="output directory (default .)")
    sub.add_argument("--config", type=str, default=None, help="JSON config or manifest to rerun")
    sub.add_argument("--grid", type=int, default=None, help="sampling/tabulation grid size")
    sub.add_argument("--trunc", type=int, default=None, help="spectral truncation K")
    sub.add_argument("--quad", type=int, default=None, help="quadrature points M")
    sub.add_argument("--tol", type=float, default=None, help="decision tolerance")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="circlenoise",
        description="Stationary periodic Gaussian processes: synthesis, "
        "conditioning, generator checks, spectra, regularity, and fitting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="sample paths from a spectrum or power-law model")
    p.add_argument("--spectrum", type=str, help="spectrum JSON file")
    p.add_argument("--coeffs", type=str, help="inline coefficients c0,c1,...")
    p.add_argument("--domain-length", type=float, default=None)
    p.add_argument("--a", type=float, help="power-law amplitude")
    p.add_argument("--p", type=float, help="power-law decay exponent")
    p.add_argument("--model-n", type=int, help="power-law frequency count")
    p.add_argument("--condition", action="store_true", help="pin the path to zero at t=0")
    p.add_argument("--sweep-p", type=str, help="comma list of p values, one file each")
    p.add_argument(
        "--fixed-draws",
        action="store_true",
        help="reuse the same Gaussian draws across the sweep",
    )
    _add_common(p)

    p = sub.add_parser("condition", help="conditioned covariance of a spectrum")
    p.add_argument("--spectrum", type=str)
    p.add_argument("--coeffs", type=str)
    p.add_argument("--domain-length", type=float, default=None)
    _add_common(p)

    p = sub.add_parser("check", help="does a conditioned kernel have a stationary generator")
    p.add_argument(
        "--kernel",
        type=str,
        help='"brownian-bridge" or a kernel JSON file',
    )
    p.add_argument("--spectrum", type=str, help="spectrum JSON; its conditioning is checked")
    p.add_argument("--coeffs", type=str)
    p.add_argument("--domain-length", type=float, default=None)
    p.add_argument(
        "--extend",
        action="store_true",
        help="run the signed-reflection extension dichotomy instead",
    )
    _add_common(p)

    p = sub.add_parser("spectrum", help="eigen-decomposition of the conditioned operator")
    p.add_argument("--spectrum", type=str)
    p.add_argument("--coeffs", type=str)
    p.add_argument("--domain-length", type=float, default=None)
    p.add_argument(
        "--cluster-tol",
        type=float,
        default=None,
        help="relative tolerance: variances v_hi > v_lo count as repeated when "
        f"v_hi - v_lo < tol * v_hi (default {CLUSTER_TOL:g})",
    )
    p.add_argument(
        "--oracle-m",
        type=int,
        default=None,
        help="cross-check grid size; at least 100 and 2K + 1",
    )
    _add_common(p)

    p = sub.add_parser("regularity", help="predicted and empirical path regularity")
    p.add_argument("--spectrum", type=str)
    p.add_argument("--coeffs", type=str)
    p.add_argument("--domain-length", type=float, default=None)
    p.add_argument("--path", type=str, help="path CSV for the empirical estimate")
    _add_common(p)

    p = sub.add_parser("fit", help="ML fit of the power-law model to a path CSV")
    p.add_argument("--path", type=str, required=True)
    p.add_argument("--known-p", type=float, default=None)
    p.add_argument("--known-a", type=float, default=None)
    _add_common(p)

    p = sub.add_parser("study", help="Monte Carlo replication study of the joint fit")
    p.add_argument("--a", type=float, default=None)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--model-n", type=int, default=None)
    p.add_argument("--reps", type=int, default=None)
    _add_common(p)

    p = sub.add_parser("bridge-demo", help="rejection and antiperiodic extension of the bridge")
    _add_common(p)

    return parser


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    data = io.read_json(path)
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    params = data.get("params", data)
    if not isinstance(params, dict):
        raise ConfigError(f"{path}: 'params' must be an object")
    return dict(params)


def _resolve(args: argparse.Namespace, defaults: dict) -> dict:
    """Merge flag values over config-file values over defaults."""
    config = _load_config(args.config)
    params = {}
    for key, fallback in defaults.items():
        flag = getattr(args, key, None)
        if isinstance(flag, bool):
            # store_true flags: explicit on the command line wins; fall
            # back to the config value when absent.
            params[key] = flag or bool(config.get(key, fallback))
        elif flag is not None:
            params[key] = flag
        elif key in config:
            params[key] = config[key]
        else:
            params[key] = fallback
    return params


def _out_dir(params: dict) -> Path:
    out = Path(params.get("out") or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _sequence_from_params(params: dict):
    if params.get("spectrum"):
        return io.sequence_from_dict(io.read_json(params["spectrum"]))
    if params.get("coeffs"):
        coeffs = np.array([float(x) for x in str(params["coeffs"]).split(",")])
        return io.sequence_from_dict(
            {"coeffs": coeffs.tolist(), "domain_length": params.get("domain_length") or 1.0}
        )
    return None


def _kernel_from_params(params: dict):
    name = params.get("kernel")
    if name == "brownian-bridge":
        return brownian_bridge_kernel()
    if name:
        return io.kernel_from_dict(io.read_json(name))
    seq = _sequence_from_params(params)
    if seq is not None:
        return condition_at_zero(covariogram_from_coeffs(seq))
    raise ConfigError("no kernel given: use --kernel, --spectrum, or --coeffs")


def _check_power_law(params: dict, amplitude: str = "a") -> None:
    """Refuse a power-law amplitude that is not finite and positive, or fewer than one frequency."""
    a = params.get(amplitude)
    if a is not None and not 0.0 < float(a) < math.inf:
        flag = "--" + amplitude.replace("_", "-")
        raise ConfigError(f"{flag} must be finite and positive, got {a}")
    n = params.get("model_n")
    if n is not None and int(n) < 1:
        raise ConfigError(f"--model-n must be at least 1, got {n}")


def _parse_p_list(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad p list {text!r}") from exc


def cmd_synth(args) -> int:
    params = _resolve(
        args,
        {
            "spectrum": None,
            "coeffs": None,
            "domain_length": None,
            "a": None,
            "p": None,
            "model_n": None,
            "condition": False,
            "sweep_p": None,
            "fixed_draws": False,
            "seed": 0,
            "grid": None,
            "out": ".",
        },
    )
    _check_power_law(params)
    out = _out_dir(params)
    seed = int(params["seed"])
    written: list[str] = []

    if params["sweep_p"]:
        if params["a"] is None or params["model_n"] is None:
            raise ConfigError("--sweep-p needs --a and --model-n")
        for i, p_val in enumerate(_parse_p_list(str(params["sweep_p"]))):
            model = PowerLawModel(a=params["a"], p=p_val, n=int(params["model_n"]))
            rep_seed = seed if params["fixed_draws"] else seed + i
            path = sample_model(model, rep_seed)
            name = f"path_p{p_val:g}.csv"
            io.write_path_csv(path, out / name)
            written.append(name)
    elif params["a"] is not None and params["model_n"] is not None:
        if params["p"] is None:
            raise ConfigError("power-law model needs --p")
        model = PowerLawModel(a=params["a"], p=params["p"], n=int(params["model_n"]))
        path = sample_model(model, seed)
        io.write_path_csv(path, out / "path.csv")
        written.append("path.csv")
    else:
        seq = _sequence_from_params(params)
        if seq is None:
            raise ConfigError("give a spectrum (--spectrum/--coeffs) or a model (--a/--p/--model-n)")
        N = int(params["grid"] or max(512, 2 * (seq.truncation + 1)))
        sampler = sample_H0 if params["condition"] else sample_H
        path = sampler(seq, N, seed=seed)
        io.write_path_csv(path, out / "path.csv")
        written.append("path.csv")

    io.write_manifest(out, "synth", params, seed)
    print(f"wrote {', '.join(written)} to {out}")
    return EXIT_OK


def cmd_condition(args) -> int:
    params = _resolve(
        args,
        {"spectrum": None, "coeffs": None, "domain_length": None, "grid": 201, "out": ".", "seed": 0},
    )
    seq = _sequence_from_params(params)
    if seq is None:
        raise ConfigError("give a spectrum via --spectrum or --coeffs")
    out = _out_dir(params)
    kernel = condition_at_zero(covariogram_from_coeffs(seq))
    io.write_json(io.kernel_to_dict(kernel, n_points=int(params["grid"])), out / "kernel.json")
    io.write_manifest(out, "condition", params, int(params["seed"]))
    print(f"wrote kernel.json to {out}")
    return EXIT_OK


def cmd_check(args) -> int:
    params = _resolve(
        args,
        {
            "kernel": None,
            "spectrum": None,
            "coeffs": None,
            "domain_length": None,
            "extend": False,
            "trunc": 10,
            "quad": None,
            "tol": None,
            "out": ".",
            "seed": 0,
        },
    )
    out = _out_dir(params)
    kernel = _kernel_from_params(params)
    K = int(params["trunc"])
    M = int(params["quad"]) if params["quad"] else None
    tol = params["tol"]

    if params["extend"]:
        result = extension_dichotomy(kernel, K=K, M=M, tol=tol)
        io.write_json(io.extension_to_dict(result), out / "extension.json")
        io.write_manifest(out, "check", params, int(params["seed"]))
        print(f"extension: {result.kind}")
        return EXIT_OK if result.kind != "none" else EXIT_NEGATIVE

    try:
        verdict = check_generator(fourier_matrices(kernel, K=K, M=M), tol=tol)
    except AllZeroKernel:
        io.write_json({"decision": "trivial-zero", "reasons": [], "diagnostics": {}}, out / "verdict.json")
        io.write_manifest(out, "check", params, int(params["seed"]))
        print("verdict: trivial-zero")
        return EXIT_NEGATIVE
    io.write_json(io.verdict_to_dict(verdict), out / "verdict.json")
    io.write_manifest(out, "check", params, int(params["seed"]))
    print(f"verdict: {verdict.decision}")
    return EXIT_OK if verdict.is_unique else EXIT_NEGATIVE


def cmd_spectrum(args) -> int:
    params = _resolve(
        args,
        {
            "spectrum": None,
            "coeffs": None,
            "domain_length": None,
            "cluster_tol": None,
            "oracle_m": None,
            "out": ".",
            "seed": 0,
        },
    )
    seq = _sequence_from_params(params)
    if seq is None:
        raise ConfigError("give a spectrum via --spectrum or --coeffs")
    out = _out_dir(params)
    system = conditioned_spectrum(seq, cluster_tol=params["cluster_tol"])
    report = verify_interlacing(system, seq)
    payload = io.eigensystem_to_dict(system)
    payload["interlacing"] = {"passed": report.passed, "violations": list(report.violations)}

    if params["oracle_m"]:
        # m grid points resolve frequencies up to K only when m >= 2K + 1,
        # which also leaves room for every analytic eigenvalue (at most 2K)
        m_min = max(100, 2 * seq.truncation + 1)
        if int(params["oracle_m"]) < m_min:
            raise ConfigError(
                f"--oracle-m {params['oracle_m']} cannot resolve frequency "
                f"{seq.truncation}: use --oracle-m {m_min} or more"
            )
        kernel = condition_at_zero(covariogram_from_coeffs(seq))
        oracle = operator_oracle(kernel, int(params["oracle_m"]))
        analytic = system.all_eigenvalues()
        top = oracle[: analytic.size]
        rel = np.abs(analytic - top) / np.maximum(np.abs(top), 1e-300)
        payload["oracle"] = {
            "m": int(params["oracle_m"]),
            "eigenvalues": [float(x) for x in top],
            "max_rel_diff": float(rel.max()) if rel.size else 0.0,
        }

    io.write_json(payload, out / "eigensystem.json")
    io.write_manifest(out, "spectrum", params, int(params["seed"]))
    print(f"{len(system.sine_pairs)} sine, {len(system.even_pairs)} secular, "
          f"{len(system.multiplicity_pairs)} repeated groups; interlacing "
          f"{'pass' if report.passed else 'FAIL'}")
    return EXIT_OK if report.passed else EXIT_NEGATIVE


def cmd_regularity(args) -> int:
    params = _resolve(
        args,
        {
            "spectrum": None,
            "coeffs": None,
            "domain_length": None,
            "path": None,
            "out": ".",
            "seed": 0,
        },
    )
    out = _out_dir(params)
    payload: dict = {}
    seq = _sequence_from_params(params)
    if seq is not None:
        payload["predicted"] = io.regularity_to_dict(predict_regularity(seq))
    if params["path"]:
        path = io.read_path_csv(params["path"])
        lags = default_lags(len(path))
        hs, sf = structure_function(path, lags)
        io.write_table_csv(
            ["lag", "h", "mean_sq_increment"],
            [[lag, float(h), float(v)] for lag, h, v in zip(lags, hs, sf)],
            out / "structure.csv",
        )
        payload["empirical_holder"] = empirical_holder(path, lags)
    if not payload:
        raise ConfigError("give a spectrum and/or a path CSV")
    io.write_json(payload, out / "regularity.json")
    io.write_manifest(out, "regularity", params, int(params["seed"]))
    print("wrote regularity.json")
    return EXIT_OK


def cmd_fit(args) -> int:
    params = _resolve(
        args,
        {"path": None, "known_p": None, "known_a": None, "out": ".", "seed": 0},
    )
    _check_power_law(params, "known_a")
    out = _out_dir(params)
    path = io.read_path_csv(params["path"])
    o = energies(path)
    if params["known_p"] is not None:
        a_hat = fit_known_p(o, params["known_p"])
        payload = {"a_hat": a_hat, "p_hat": params["known_p"], "mode": "known-p"}
    elif params["known_a"] is not None:
        p_hat = fit_known_a(o, params["known_a"])
        payload = {"a_hat": params["known_a"], "p_hat": p_hat, "mode": "known-a"}
    else:
        result = fit_joint(o)
        payload = io.fit_to_dict(result)
        payload["mode"] = "joint"
    io.write_json(payload, out / "fit.json")
    io.write_manifest(out, "fit", params, int(params["seed"]))
    print(f"a_hat={payload['a_hat']:.6g} p_hat={payload['p_hat']:.6g}")
    return EXIT_OK


def cmd_study(args) -> int:
    params = _resolve(
        args,
        {"a": 1.0, "p": 1.0, "model_n": 40, "reps": 200, "seed": 0, "out": "."},
    )
    _check_power_law(params)
    a0, p0 = float(params["a"]), float(params["p"])
    n, reps, seed = int(params["model_n"]), int(params["reps"]), int(params["seed"])
    if reps < 2:
        raise ConfigError(f"study needs at least 2 replicates for a correlation, got {reps}")
    out = _out_dir(params)
    model = PowerLawModel(a=a0, p=p0, n=n)

    rows: list[list] = []
    try:
        for i in range(reps):
            rep_seed = seed + i
            o = energies(sample_model(model, rep_seed))
            result = fit_joint(o)
            rows.append([rep_seed, result.a_hat, result.p_hat])
    except CircleNoiseError as exc:
        io.write_table_csv(["seed", "a_hat", "p_hat"], rows, out / "study.csv")
        io.write_json(
            {"error": str(exc), "completed": len(rows), "requested": reps},
            out / "summary.json",
        )
        io.write_manifest(out, "study", params, seed)
        raise

    a_hats = np.array([r[1] for r in rows])
    p_hats = np.array([r[2] for r in rows])
    asym = asymptotics(model)
    corr = float(np.corrcoef(a_hats, p_hats)[0, 1])
    half = 1.96 * asym.joint_std_p
    coverage = float(np.mean(np.abs(p_hats - p0) <= half))
    io.write_table_csv(["seed", "a_hat", "p_hat"], rows, out / "study.csv")
    io.write_json(
        {
            "a0": a0,
            "p0": p0,
            "n": n,
            "reps": reps,
            "correlation": corr,
            "predicted_correlation": asym.fisher_correlation,
            "mean_a_hat": float(a_hats.mean()),
            "mean_p_hat": float(p_hats.mean()),
            "sd_a_hat": float(a_hats.std(ddof=1)),
            "sd_p_hat": float(p_hats.std(ddof=1)),
            "coverage95_p": coverage,
            "joint_std_p": asym.joint_std_p,
            "joint_std_a": asym.joint_std_a,
        },
        out / "summary.json",
    )
    io.write_manifest(out, "study", params, seed)
    print(f"correlation(a_hat, p_hat) = {corr:.4f} over {reps} replicates")
    return EXIT_OK


def cmd_bridge_demo(args) -> int:
    params = _resolve(args, {"trunc": 10, "quad": 2048, "tol": None, "out": ".", "seed": 0})
    out = _out_dir(params)
    K, M = int(params["trunc"]), int(params["quad"])
    bridge = brownian_bridge_kernel()

    verdict = check_generator(fourier_matrices(bridge, K=K, M=M), tol=params["tol"])
    ext = extension_dichotomy(bridge, K=2 * K + 1, M=M, tol=params["tol"])

    payload = {
        "rejection": io.verdict_to_dict(verdict),
        "extension": io.extension_to_dict(ext),
    }
    if ext.spectrum is not None:
        rec = ext.spectrum.coeffs
        odd = np.arange(1, rec.size, 2)
        ideal = 2.0 / (np.pi * odd)
        payload["recovered_vs_ideal"] = {
            "frequencies": odd.tolist(),
            "recovered": [float(rec[i]) for i in odd],
            "ideal": [float(x) for x in ideal],
            "max_abs_err": float(np.max(np.abs(rec[odd] - ideal))),
        }
        report = io.regularity_to_dict(predict_regularity(brownian_bridge_generator(max(K, 10))))
        payload["predicted_regularity"] = report
        payload["periodicity"] = classify_periodicity(ext.spectrum).kind

    io.write_json(payload, out / "bridge_demo.json")
    io.write_manifest(out, "bridge-demo", params, int(params["seed"]))
    expected = (not verdict.is_unique) and ext.kind == "antiperiodic"
    print(
        f"rejection: {verdict.decision} ({', '.join(verdict.reasons) or 'n/a'}); "
        f"extension: {ext.kind}"
    )
    return EXIT_OK if expected else EXIT_NEGATIVE


COMMANDS = {
    "synth": cmd_synth,
    "condition": cmd_condition,
    "check": cmd_check,
    "spectrum": cmd_spectrum,
    "regularity": cmd_regularity,
    "fit": cmd_fit,
    "study": cmd_study,
    "bridge-demo": cmd_bridge_demo,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (CircleNoiseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
