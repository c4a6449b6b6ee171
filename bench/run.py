"""circlenoise benchmark: four workloads, end-to-end metrics, per-layer spans.

    python3 bench/run.py [--workload check|spectrum|montecarlo|cli|all]
                         [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root; the library is imported from ./src.  Each
workload runs in its own fresh process as a closed loop with one caller
and one BLAS thread.  The loop runs
whole rounds of the workload's fixed op mix until ``--seconds`` of op time
have passed (and at least the workload's minimum rounds), checking every
output outside the timed region.  Set-up time is the median over fresh
processes of ``import circlenoise`` plus one warm-up op of each kind.

With ``--trace 0`` the end-to-end metrics are reported; with ``--trace 1``
a fixed number of rounds runs untraced and then traced, and the per-layer
metrics come from spans around the library's public functions
(``tracing.py``), with the tracing overhead.  Human-readable lines come
first; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller result
with provenance goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import signal
import statistics
import subprocess
import sys
from pathlib import Path

import tracing
import worker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("check", "spectrum", "montecarlo", "cli")
SETUP_PROCESSES = 3
CHILD_TIMEOUT_S = 160
# Percentiles the tail metric may use.  p99.9 is left out: with the ~35k
# ops of a montecarlo run it has ~35 samples beyond it, all host jitter,
# and read 2.6-6.3 ms over five runs where the median moved by 12%.
TAIL_LADDER = (99, 95, 90, 75, 50)
# One thread, below nproc: for these sizes two threads were no faster on
# a 2-CPU host (K=16 check ops took 0.24 s with two, 0.11 s with one).
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END_UNITS = {
    "goodput_ops_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "pass_rate": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class BenchError(RuntimeError):
    pass


def _child(mode: str, cfg: dict) -> dict:
    """Run ``worker.py <mode>`` in a fresh interpreter and return its result.

    The worker is waited for on every path out of here, and killed first
    if it has not ended, so no process outlives the benchmark.
    """
    result_file = Path(cfg["scratch"]) / f"result-{os.getpid()}-{mode}.pickle"
    result_file.unlink(missing_ok=True)
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), mode, json.dumps({**cfg, "result": str(result_file)})],
        stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL,  # the cli workload prints
    )
    try:
        code = proc.wait(CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{cfg['workload']}: no result within {CHILD_TIMEOUT_S} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if not result_file.is_file():
        raise BenchError(f"{cfg['workload']}: worker exited with code {code} without a result")
    msg = pickle.loads(result_file.read_bytes())
    result_file.unlink()
    if "crash" in msg:
        raise BenchError(f"{cfg['workload']} worker failed:\n{msg['crash']}")
    return msg


def percentile(sorted_values: list[float], q: float) -> float:
    """Linearly interpolated percentile of an ascending list."""
    pos = (len(sorted_values) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail_latency(latencies: list[float], declared: float) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it) for the tail metric.

    The workload declares the highest ladder percentile its minimum rounds
    leave ten passed samples beyond; a run with fewer passed samples falls
    back down the ladder to the first percentile that has ten beyond it,
    or to p50.
    """
    for q in [q for q in TAIL_LADDER if q <= declared]:
        value = percentile(latencies, q)
        beyond = sum(x > value for x in latencies)
        if beyond >= 10:
            break
    return q, value, beyond


def _source_digest() -> str:
    h = hashlib.sha256()
    for file in sorted((SRC / "circlenoise").glob("*.py")):
        h.update(file.name.encode() + b"\0" + file.read_bytes())
    return h.hexdigest()


def _git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def _breakdown(records: list) -> dict:
    kinds: dict[str, dict] = {}
    for kind, latency, status, _ in records:
        k = kinds.setdefault(kind, {"attempted": 0, "passed": 0, "latencies_ms": []})
        k["attempted"] += 1
        if status == worker.PASS:
            k["passed"] += 1
            k["latencies_ms"].append(latency * 1e3)
    for k in kinds.values():
        lat = k.pop("latencies_ms")
        k["median_ms"] = statistics.median(lat) if lat else None
    return kinds


def _failures(records: list, limit: int = 3) -> dict:
    out: dict[str, list] = {}
    for kind, _, status, detail in records:
        if status != worker.PASS:
            examples = out.setdefault(status, [])
            if len(examples) < limit:
                examples.append(f"{kind}: {detail}")
    return out


def end_to_end(result: dict, setups: list[float]) -> tuple[dict, dict]:
    records = result["records"]
    latencies = sorted(lat for _, lat, status, _ in records if status == worker.PASS)
    if not latencies:
        raise BenchError(f"no op passed its check, so latency is undefined: {_failures(records)}")
    attempted = len(records)
    timed_s = sum(lat for _, lat, _, _ in records)
    q, tail, beyond = tail_latency(latencies, result["tail_percentile"])
    metrics = {
        "goodput_ops_s": len(latencies) / timed_s,
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_tail_ms": tail * 1e3,
        "pass_rate": len(latencies) / attempted,
        "peak_rss_mb": result["peak_rss_mb"],
        "setup_s": statistics.median(setups),
    }
    facts = {
        "error_rate": (attempted - len(latencies)) / attempted,
        "tail_percentile": q,
        "tail_samples_beyond": beyond,
        "passed_samples": len(latencies),
        "rounds": result["rounds"],
        "timed_s": timed_s,
        "setup_samples_s": setups,
    }
    return metrics, facts


def per_layer(result: dict) -> tuple[dict, dict]:
    metrics = tracing.layer_metrics(result["layer_stats"])
    metrics["trace.overhead_s"] = result["traced_s"] - result["untraced_s"]
    metrics["trace.untraced_s"] = result["untraced_s"]
    facts = {
        "spans": result["spans"],
        "spans_file": os.path.relpath(result["spans_file"], ROOT),
        "untraced_failed": result["untraced_failed"],
        "all_layer_stats": result["layer_stats"],
    }
    return metrics, facts


def _unit(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    return tracing.UNITS.get(name.rsplit(".", 1)[1], "count")


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    OUT.mkdir(exist_ok=True)
    (OUT / "tmp").mkdir(exist_ok=True)
    cfg = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "src": str(SRC),
        "out": str(OUT),
        "scratch": str(OUT / "tmp"),
    }
    setups = []
    if not trace:
        setups = [_child("setup", cfg)["setup_s"] for _ in range(SETUP_PROCESSES - 1)]
    result = _child("run", cfg)
    setups.append(result["setup_s"])
    records = result["records"]
    metrics, facts = per_layer(result) if trace else end_to_end(result, setups)
    summary = {
        "correct": not any(rec[2] in (worker.ERROR, worker.WRONG) for rec in records),
        "attempted": len(records),
        "failed": sum(rec[2] != worker.PASS for rec in records),
        "metrics": {m: {"value": v, "unit": _unit(m)} for m, v in metrics.items()},
    }
    provenance = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "git_revision": _git_revision(),
        "source_sha256": _source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        **result["environment"],
        "tail_percentile": result["tail_percentile"] if trace else facts["tail_percentile"],
        "loop": "closed, 1 caller",
    }
    report = {
        "provenance": provenance,
        **summary,
        "facts": facts,
        "by_kind": _breakdown(records),
        "failure_examples": _failures(records),
    }
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(report, indent=2) + "\n")
    _print_report(report, facts)
    return summary


def _print_report(report: dict, facts: dict) -> None:
    prov = report["provenance"]
    print(f"== {prov['workload']}  seed {prov['seed']}  trace {prov['trace']}")
    print("   provenance: " + ", ".join(f"{k}={v}" for k, v in prov.items() if k not in ("workload", "seed", "trace")))
    print(f"   attempted {report['attempted']}  failed {report['failed']}  correct {report['correct']}")
    for name, m in report["metrics"].items():
        if m["value"] or not prov["trace"]:
            print(f"   {name:<44} {m['value']:>14.6g} {m['unit']}")
    if not prov["trace"]:
        print(f"   {'error_rate':<44} {facts['error_rate']:>14.6g} ratio")
        print(
            f"   latency_tail_ms is p{facts['tail_percentile']:g} with {facts['tail_samples_beyond']} "
            f"of {facts['passed_samples']} passed samples beyond it; {facts['rounds']} rounds, "
            f"setup_s is the median of {len(facts['setup_samples_s'])} fresh processes"
        )
    else:
        print(
            f"   {facts['spans']} spans in {facts['spans_file']}; "
            f"{facts['untraced_failed']} ops failed in the untraced pass"
        )
    for status, examples in report["failure_examples"].items():
        for line in examples:
            print(f"   {status}: {line[:200]}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=24)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)

    if not (SRC / "circlenoise" / "__init__.py").is_file():
        print(f"error: no circlenoise sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    # A terminated benchmark still stops its worker: SystemExit unwinds
    # through _child's cleanup.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        summaries = {w: run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(summaries) == 1:
        final = summaries[names[0]]
    else:
        final = {
            "correct": all(s["correct"] for s in summaries.values()),
            "attempted": sum(s["attempted"] for s in summaries.values()),
            "failed": sum(s["failed"] for s in summaries.values()),
            "metrics": {f"{w}.{m}": v for w, s in summaries.items() for m, v in s["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
