"""The workload's own process: set-up, the closed loop, and its checks.

``run.py`` starts this as a script in a fresh interpreter,

    python3 bench/worker.py run|setup <config JSON>

so ``import circlenoise`` is timed cold and ``ru_maxrss`` belongs to the
workload alone.  Only the standard library is imported at module level.
The result dict is pickled to the file named by the config's ``result``;
a crash is written there as ``{"crash": traceback}``.
"""

from __future__ import annotations

import contextlib
import json
import pickle
import resource
import sys
import time
import traceback
from pathlib import Path

PASS, REFUSED, ERROR, WRONG = "pass", "refused", "error", "wrong"


def _set_up(cfg: dict):
    """Import the library and run one warm-up op of each kind; timed."""
    sys.path.insert(0, cfg["src"])
    start = time.perf_counter()
    import circlenoise

    import workloads

    workload = workloads.WORKLOADS[cfg["workload"]](cfg["seed"], Path(cfg["scratch"]))
    with workload.warmup() as ops:
        for op in ops:
            op.run()
    setup_s = time.perf_counter() - start
    if Path(circlenoise.__file__).resolve().parent != Path(cfg["src"]).resolve() / "circlenoise":
        raise RuntimeError(f"imported circlenoise from {circlenoise.__file__}, not {cfg['src']}")
    return workload, setup_s


class Runner:
    """Runs ops one after another and keeps one record per op.

    A record is (kind, latency seconds, status, detail).  Deferred checks
    are resolved by ``settle`` after timing and the memory reading end.
    """

    def __init__(self, tracer=None):
        from circlenoise.errors import CircleNoiseError

        self.refusal = CircleNoiseError
        self.tracer = tracer
        self.records: list[list] = []
        self.deferred: list[tuple[int, object]] = []

    def run(self, ops) -> float:
        elapsed = 0.0
        for op in ops:
            op_id = len(self.records)
            status, detail, out = PASS, "", None
            scope = self.tracer.op(op_id, op.kind) if self.tracer else contextlib.nullcontext()
            start = time.perf_counter()
            try:
                with scope:
                    out = op.run()
            except self.refusal as exc:
                status, detail = REFUSED, f"{type(exc).__name__}: {exc}"
            except Exception as exc:  # keep running; the record carries the failure
                status, detail = ERROR, f"{type(exc).__name__}: {exc}"
            latency = time.perf_counter() - start
            elapsed += latency
            if status == PASS:
                status, detail = self._check(op_id, op, out)
            self.records.append([op.kind, latency, status, detail])
        return elapsed

    def _check(self, op_id: int, op, out):
        try:
            verdict = op.check(out)
        except Exception:
            return WRONG, "check raised: " + traceback.format_exc(limit=3)
        if callable(verdict):
            self.deferred.append((op_id, verdict))
            return PASS, ""
        return (PASS, "") if verdict is None else (WRONG, verdict)

    def settle(self) -> None:
        for op_id, later in self.deferred:
            try:
                verdict = later()
            except Exception:
                verdict = "check raised: " + traceback.format_exc(limit=3)
            if verdict is not None:
                self.records[op_id][2:] = [WRONG, verdict]
        self.deferred.clear()


def _environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def _timed(workload, seconds: float) -> dict:
    runner = Runner()
    elapsed, rounds = 0.0, 0
    while elapsed < seconds or rounds < workload.min_rounds:
        with workload.round(rounds) as ops:
            elapsed += runner.run(ops)
        rounds += 1
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    runner.settle()
    return {"records": runner.records, "rounds": rounds, "peak_rss_mb": rss_mb}


def _traced(workload, cfg: dict) -> dict:
    """The same fixed rounds untraced, then traced; spans written at the end."""
    import tracemalloc

    import tracing

    plain = Runner()
    untraced_s = 0.0
    for r in range(workload.trace_rounds):
        with workload.round(r) as ops:
            untraced_s += plain.run(ops)
    plain.settle()

    tracer = tracing.Tracer()
    runner = Runner(tracer)
    traced_s = 0.0
    tracemalloc.start()
    try:
        with tracing.installed(tracer):
            for r in range(workload.trace_rounds):
                with workload.round(r) as ops:
                    traced_s += runner.run(ops)
    finally:
        tracemalloc.stop()
    runner.settle()
    spans_file = Path(cfg["out"]) / f"spans-{cfg['workload']}-seed{cfg['seed']}.csv.gz"
    tracing.write_spans(tracer, spans_file)
    return {
        "records": runner.records,
        "rounds": workload.trace_rounds,
        "untraced_failed": sum(rec[2] != PASS for rec in plain.records),
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "layer_stats": tracer.stats,
        "spans": len(tracer.spans),
        "spans_file": str(spans_file),
    }


def _run(cfg: dict) -> dict:
    workload, setup_s = _set_up(cfg)
    result = _traced(workload, cfg) if cfg["trace"] else _timed(workload, cfg["seconds"])
    result.update(
        setup_s=setup_s,
        tail_percentile=workload.tail_percentile,
        environment=_environment(),
    )
    return result


def main(argv: list[str]) -> int:
    """Run one mode (``run`` or ``setup``) and write its result file."""
    mode, cfg = argv[1], json.loads(argv[2])
    try:
        result = _run(cfg) if mode == "run" else {"setup_s": _set_up(cfg)[1]}
    except BaseException:
        result = {"crash": traceback.format_exc()}
    done = Path(cfg["result"])
    partial = done.with_suffix(".partial")
    partial.write_bytes(pickle.dumps(result))
    partial.replace(done)
    return 1 if "crash" in result else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
