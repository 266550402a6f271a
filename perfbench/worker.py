"""One workload in one fresh process: generate, run the CLI, check, measure.

Started by ``run.py`` with the BLAS thread count already fixed in the
environment. Commands go through ``commonshock.cli.main`` in this process,
one after another (a closed loop with one client). The last line printed is
a JSON object with the measurements; ``run.py`` turns it into the result.

    python3 perfbench/worker.py '{"workload": ..., "seed": ..., "dir": ...,
                                  "mode": "measure", "seconds": ...}'
    python3 perfbench/worker.py '{"workload": ..., "seed": ..., "dir": ...,
                                  "mode": "trace", "reps": 3, "spans": path,
                                  "baseline": true, "ladder": false}'

``dir`` is a scratch directory for the generated inputs and the reports.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import commonshock  # noqa: E402
import numpy as np  # noqa: E402
from commonshock.cli import main as cli_main  # noqa: E402

import checks  # noqa: E402
import tracer as tr  # noqa: E402
from generate import CONFIG_NAME, WORKLOADS, write_inputs  # noqa: E402

TRACED_REPS = 3  # fixed, so that traced counts repeat exactly at a fixed seed
WARMUP_SIZE = 8  # triangle size of the untimed warm-up pair before a measured loop
LADDER_SIZES = (20, 35)  # plus the workload's own size
LADDER_METRICS = ("covariance.sigma_model_s", "design.assemble_s", "lognormal.moment_map_s")


class Session:
    """The inputs of one (workload, seed) and every command run on them.

    Repetition ``i`` uses input ``i % workload.datasets``, each generated on
    first use into its own directory.
    """

    def __init__(self, workload, seed: int, directory: Path):
        self.workload = workload
        self.seed = seed
        self.dir = directory
        self.reports: list = []  # (input index, command, exit code, report texts)
        self.failures: list = []  # (command, problems)
        self.extra: list = []  # sessions whose reports are checked with this one's

    def inputs(self, index: int) -> Path:
        path = self.dir / f"input{index}"
        if not path.exists():
            write_inputs(self.workload, self.seed, path, index)
        return path

    def command(self, kind: str, index: int, tracer=None):
        """Run one CLI command; return (seconds, root span id or None)."""
        path = self.inputs(index)
        for suffix in (".json", ".txt"):
            (path / f"{kind}{suffix}").unlink(missing_ok=True)
        # the config names the claim file relative to its own directory
        argv = [kind, "--config", CONFIG_NAME, "--out", kind]
        root = None
        with contextlib.chdir(path), contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            if tracer is None:
                rc = cli_main(argv)
            else:
                with tracer.span(tr.ROOT) as sp:
                    rc = cli_main(argv)
                root = sp.id
            seconds = time.perf_counter() - t0
        texts = None
        if rc == 0:
            texts = tuple((path / f"{kind}{s}").read_text(encoding="utf-8") for s in (".json", ".txt"))
        self.reports.append((index, kind, rc, texts))
        return seconds, root

    def rep(self, i: int, tracer=None):
        index = i % self.workload.datasets
        fit_s, fit_root = self.command("fit", index, tracer)
        forecast_s, forecast_root = self.command("forecast", index, tracer)
        return fit_s, forecast_s, (fit_root, forecast_root)

    def check(self) -> tuple:
        """Check every report; returns (attempted, failed).

        Identical reports on one input get one verdict, so the expensive
        score check runs once per distinct output.
        """
        gates = {"fit": checks.check_fit, "forecast": checks.check_forecast}
        models, verdicts = {}, {}
        attempted = failed = 0
        for index, kind, rc, texts in self.reports:
            attempted += 1
            key = (index, kind, texts)
            if rc != 0:
                problems = [f"exit code {rc}"]
            elif key in verdicts:
                problems = verdicts[key]
            else:
                if index not in models:
                    models[index] = checks.Model(self.workload, self.inputs(index))
                try:
                    problems = gates[kind](models[index], json.loads(texts[0]))
                except (ValueError, KeyError, TypeError) as exc:
                    problems = [f"unreadable report: {exc!r}"]
                verdicts[key] = problems
            if problems:
                failed += 1
                self.failures.append((kind, problems))
        for other in self.extra:
            a, f = other.check()
            attempted, failed = attempted + a, failed + f
            self.failures += other.failures
        return attempted, failed


def _loop(session: Session, seconds: float = 0.0, tracer=None, reps: int = 0):
    """Repeat fit + forecast: ``reps`` times, or while the next rep fits in ``seconds``."""
    fits, forecasts, roots = [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        fit_s, forecast_s, root = session.rep(len(fits), tracer)
        fits.append(fit_s)
        forecasts.append(forecast_s)
        roots.append(root)
        rep_s = time.perf_counter() - t0
        if reps:
            if len(fits) == reps:
                return fits, forecasts, roots
        elif time.perf_counter() - start + rep_s > seconds:
            return fits, forecasts, roots


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def measure(session: Session, seconds: float) -> dict:
    """Time the closed loop after one untimed warm-up pair on a small input.

    The warm-up pays the process's one-off costs (lazy imports, first BLAS
    calls) that would otherwise land on the first timed command. Its reports
    are checked with the others.
    """
    warm = Session(session.workload.resized(WARMUP_SIZE), session.seed, session.dir / "warmup")
    warm.rep(0)
    session.extra.append(warm)
    fits, forecasts, _ = _loop(session, seconds)
    peak = _peak_rss_mb()  # before the checks, which allocate their own Sigma
    attempted, failed = session.check()
    return {
        "fit_s": fits, "forecast_s": forecasts, "peak_rss_mb": peak,
        "attempted": attempted, "failed": failed,
    }


def _traced_layers(tracer, roots) -> list:
    return [
        tr.layer_metrics(tr.command_spans(tracer.spans, f), tr.command_spans(tracer.spans, c))
        for f, c in roots
    ]


def _traced_reps(session: Session, reps: int):
    tracer = tr.Tracer()
    tracer.install()
    try:
        fits, forecasts, roots = _loop(session, tracer=tracer, reps=reps)
    finally:
        tracer.uninstall()
    return tracer, fits, forecasts, roots


def _slope(xs, ys):
    """Least-squares slope of log y against log x (None if any y <= 0)."""
    if min(ys) <= 0:
        return None
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


def _ladder(session: Session, layers: dict) -> dict:
    """The workload's model at LADDER_SIZES and its own size, one traced rep each.

    Reports, per metric in LADDER_METRICS, the seconds at each rung and the
    log-log slope against n; the rungs' reports join the session's checks.
    """
    rungs = []
    for size in LADDER_SIZES:
        rung = Session(session.workload.resized(size), session.seed, session.dir / f"ladder{size}")
        tracer, _, _, roots = _traced_reps(rung, 1)
        rungs.append((rung.workload.n_obs, _traced_layers(tracer, roots)[0]))
        session.extra.append(rung)
    rungs.append((session.workload.n_obs, layers))
    n = [n for n, _ in rungs]
    return {
        "n": n,
        "seconds": {m: [lay[m][0] for _, lay in rungs] for m in LADDER_METRICS},
        "slopes": {m: _slope(n, [lay[m][0] for _, lay in rungs]) for m in LADDER_METRICS},
    }


def trace(session: Session, reps: int, spans_path, baseline: bool, ladder: bool) -> dict:
    """``reps`` traced repetitions, then an untraced baseline on input 0.

    Per-layer metrics are medians over the traced repetitions. The baseline
    runs after them so that neither side pays for the process's first, cold
    command alone.
    """
    tracer, fits, forecasts, roots = _traced_reps(session, reps)
    if spans_path:
        tracer.write(spans_path)
    per_rep = _traced_layers(tracer, roots)
    layers = {
        name: (statistics.median(rep[name][0] for rep in per_rep), unit)
        for name, (_, unit) in per_rep[0].items()
    }
    out = {
        "fit_s": fits,
        "forecast_s": forecasts,
        "span_tables": {
            kind: tr.span_table(tr.command_spans(tracer.spans, root))
            for kind, root in zip(("fit", "forecast"), roots[0])
        },
    }
    if baseline:
        u_fit, _, _ = session.rep(0)
        on_input0 = fits[:: session.workload.datasets]
        layers["trace.overhead_fit_s"] = (statistics.median(on_input0) - u_fit, "s")
        # every traced report on input 0 must equal the untraced one byte for byte
        outputs = {}
        for index, kind, _, texts in session.reports:
            if index == 0:
                outputs.setdefault(kind, set()).add(texts)
        out["identical_outputs"] = all(len(v) == 1 for v in outputs.values())
    if ladder:
        out["ladder"] = _ladder(session, layers)
    out["layers"] = layers
    out["attempted"], out["failed"] = session.check()
    return out


def environment() -> dict:
    import platform

    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def main(args: dict) -> dict:
    src = (ROOT / "src").resolve()
    if not Path(commonshock.__file__).resolve().is_relative_to(src):
        raise RuntimeError(f"commonshock was imported from {commonshock.__file__}, not {src}")
    session = Session(WORKLOADS[args["workload"]], args["seed"], Path(args["dir"]))
    if args["mode"] == "measure":
        result = measure(session, args["seconds"])
    else:
        result = trace(session, args.get("reps", TRACED_REPS), args.get("spans"),
                       args.get("baseline", True), args.get("ladder", False))
    result["failures"] = session.failures[:5]
    result["environment"] = environment()
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
