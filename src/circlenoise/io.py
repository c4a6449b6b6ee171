"""File formats: CSV for paths and tables, JSON for structured results.

Floats in CSV are written with 17 significant digits; JSON floats use
Python's shortest round-trip representation, which is likewise exact.
Manifests record command, parameters, seed, and library versions but no
timestamps, so reruns of the same manifest are byte-identical.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .generator import ExtensionResult, GeneratorVerdict
from .mle import FitResult
from .regularity import RegularityReport
from .spectral import (
    CONDITIONED,
    STATIONARY,
    CovarianceKernel,
    SpectralSequence,
)
from .spectrum import EigenSystem
from .synthesis import SamplePath


def fmt(x: float) -> str:
    return f"{float(x):.17g}"


def write_path_csv(path: SamplePath, file: str | Path) -> None:
    lines = ["t,value"]
    lines += [f"{fmt(t)},{fmt(v)}" for t, v in zip(path.grid_points, path.values)]
    Path(file).write_text("\n".join(lines) + "\n")


def read_path_csv(file: str | Path) -> SamplePath:
    text = Path(file).read_text().strip().splitlines()
    if not text or text[0].strip().lower() != "t,value":
        raise ConfigError(f"{file}: expected a CSV with header 't,value'")
    rows = [line.split(",") for line in text[1:] if line.strip()]
    try:
        t = np.array([float(r[0]) for r in rows])
        v = np.array([float(r[1]) for r in rows])
    except (ValueError, IndexError) as exc:
        raise ConfigError(f"{file}: malformed row ({exc})") from exc
    finite = np.isfinite(t) & np.isfinite(v)
    if not finite.all():
        row = int(np.argmin(finite))
        raise ConfigError(
            f"{file}: non-finite sample in data row {row + 1} ({','.join(rows[row])})"
        )
    if t.size < 2:
        raise ConfigError(f"{file}: need at least two samples")
    steps = np.diff(t)
    step = float(steps[0])
    if not np.allclose(steps, step, rtol=1e-9, atol=1e-12):
        raise ConfigError(f"{file}: grid is not equispaced")
    return SamplePath(
        grid_points=t, values=v, t_step=step, seed=None, model_tag=f"csv:{Path(file).name}"
    )


def write_table_csv(header: list[str], rows: list[list], file: str | Path) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(x) if isinstance(x, float) else str(x) for x in row))
    Path(file).write_text("\n".join(lines) + "\n")


def write_json(obj, file: str | Path) -> None:
    Path(file).write_text(json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n")


def read_json(file: str | Path):
    try:
        return json.loads(Path(file).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{file}: invalid JSON ({exc})") from exc


def sequence_to_dict(seq: SpectralSequence) -> dict:
    return {"domain_length": seq.domain_length, "coeffs": [float(c) for c in seq.coeffs]}


def sequence_from_dict(data: dict) -> SpectralSequence:
    try:
        return SpectralSequence(
            np.asarray(data["coeffs"], dtype=float),
            domain_length=float(data.get("domain_length", 1.0)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid spectrum record: {exc}") from exc


def kernel_to_dict(kernel: CovarianceKernel, n_points: int = 201) -> dict:
    """Tabulate a kernel on a uniform closed grid for serialization."""
    if n_points < 2:
        raise ConfigError(f"a kernel table needs at least two grid points, got {n_points}")
    L = kernel.domain_length
    grid = np.linspace(0.0, L, n_points)
    table = kernel.grid_matrix(n_points - 1, closed=True)
    values = (table[0] if kernel.kind == STATIONARY else table).tolist()
    return {
        "domain_length": L,
        "kind": kernel.kind,
        "grid": grid.tolist(),
        "values": values,
    }


def kernel_from_dict(data: dict) -> CovarianceKernel:
    """Rebuild a kernel from a table by linear interpolation."""
    try:
        L = float(data["domain_length"])
        kind = data["kind"]
        grid = np.asarray(data["grid"], dtype=float)
        values = np.asarray(data["values"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid kernel record: {exc}") from exc

    if kind == STATIONARY:
        if values.ndim != 1 or values.shape != grid.shape:
            raise ConfigError("stationary kernel table must be 1-d over the grid")

        def C(tau):
            t = np.mod(np.asarray(tau, dtype=float), L)
            return np.interp(t, grid, values)

        return CovarianceKernel(
            evaluate=C, domain_length=L, kind=STATIONARY, grid_resolution=grid.size
        )

    if values.shape != (grid.size, grid.size):
        raise ConfigError("conditioned kernel table must be square over the grid")
    from scipy.interpolate import RegularGridInterpolator

    interp = RegularGridInterpolator(
        (grid, grid), values, method="linear", bounds_error=False, fill_value=None
    )

    def R(s, t):
        s_arr, t_arr = np.broadcast_arrays(
            np.asarray(s, dtype=float), np.asarray(t, dtype=float)
        )
        pts = np.stack([s_arr.ravel(), t_arr.ravel()], axis=-1)
        return interp(pts).reshape(s_arr.shape)

    return CovarianceKernel(
        evaluate=R, domain_length=L, kind=CONDITIONED, grid_resolution=grid.size
    )


def verdict_to_dict(verdict: GeneratorVerdict) -> dict:
    out = {
        "decision": verdict.decision,
        "reasons": list(verdict.reasons),
        "diagnostics": {k: float(v) for k, v in verdict.diagnostics.items()},
    }
    if verdict.is_unique:
        out["spectrum"] = sequence_to_dict(verdict.spectrum)
        out["total_variance"] = float(verdict.total_variance)
        out["proportions"] = [float(p) for p in verdict.proportions]
    return out


def extension_to_dict(result: ExtensionResult) -> dict:
    out = {
        "kind": result.kind,
        "verdicts": {name: verdict_to_dict(v) for name, v in result.verdicts.items()},
    }
    if result.spectrum is not None:
        out["spectrum"] = sequence_to_dict(result.spectrum)
    return out


def eigensystem_to_dict(sys_: EigenSystem) -> dict:
    return {
        "sine_pairs": [{"eigenvalue": v, "frequency": k} for v, k in sys_.sine_pairs],
        "even_pairs": [
            {"eigenvalue": v, "coefficients": [float(c) for c in f]}
            for v, f in sys_.even_pairs
        ],
        "multiplicity_pairs": [
            {
                "eigenvalue": v,
                "count": count,
                "basis": [[float(c) for c in row] for row in basis],
            }
            for v, count, basis in sys_.multiplicity_pairs
        ],
        "normalization_scale": sys_.normalization_scale,
        "truncation": sys_.truncation,
        "diagnostics": {
            "secular_residuals": [float(r) for r in sys_.diagnostics["secular_residuals"]],
            "secular_iterations": int(sys_.diagnostics["secular_iterations"]),
            "gaps": [[float(a), float(b)] for a, b in sys_.diagnostics["gaps"]],
            "cluster_tol": float(sys_.diagnostics["cluster_tol"]),
            "min_spacing_over_tol": sys_.diagnostics["min_spacing_over_tol"],
            "truncation_tail_bound": float(sys_.diagnostics["truncation_tail_bound"]),
        },
    }


def regularity_to_dict(report: RegularityReport) -> dict:
    return {
        "decay_exponent": report.decay_exponent,
        "alpha": report.alpha,
        "smoothness_order": report.smoothness_order,
        "beta_sup": report.beta_sup,
        "beta_bound_open": True,
        "confidence": report.confidence,
        "warnings": list(report.warnings),
    }


def fit_to_dict(result: FitResult) -> dict:
    return {
        "a_hat": result.a_hat,
        "p_hat": result.p_hat,
        "score_residual": list(result.score_residual),
        "iterations": result.iterations,
        "converged": result.converged,
        "asymptotic": result.asymptotic,
    }


def versions() -> dict:
    import scipy

    from . import __version__

    return {
        "circlenoise": __version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": f"{sys.version_info.major}.{sys.version_info.minor}.{sys.version_info.micro}",
    }


def write_manifest(out_dir: str | Path, command: str, params: dict, seed: int | None) -> None:
    write_json(
        {"command": command, "params": params, "seed": seed, "versions": versions()},
        Path(out_dir) / "manifest.json",
    )
