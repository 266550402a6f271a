"""Fit/forecast benchmark for the ``commonshock`` CLI.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout: the package is imported from ``src/`` of
that checkout and nowhere else. Each workload's inputs are generated from the
seed, then ``commonshock fit`` and ``commonshock forecast`` run in a closed
loop (one client, one process, BLAS pinned to one thread) for about
``--seconds`` seconds, and every report is checked.

``--trace 0`` reports the end-to-end metrics (fit_s, forecast_s, setup_s,
peak_rss_mb); ``--trace 1`` reports the per-layer metrics from spans around
the calls into each module, plus the tracing overhead, and also makes an
informational pass at BLAS threads = nproc (and, on closed_form_large, a
scaling ladder). The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record,
with the environment, goes to ``.perfbench_work/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from generate import WORKLOADS
from tracer import COMPUTED

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

SETUP_REPEATS = 3  # fresh interpreters timed for setup_s before the workload, and again after
TIME_LIMIT_S = 170.0  # the whole run, children included
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import commonshock.cli; "
    "print(time.perf_counter() - t)"
)
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    env.update({k: str(threads) for k in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(argv, env, deadline: float) -> str:
    """Run a child to completion; its stdout, or SystemExit on failure."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise SystemExit("benchmark ran out of time")
    try:
        proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:  # run() kills the child and waits for it
        raise SystemExit(f"timed out: {argv[:3]}") from None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"child failed with exit code {proc.returncode}: {argv[:3]}")
    return proc.stdout


def setup_seconds(deadline: float, warm_up: bool) -> list:
    """Import time of commonshock.cli in fresh interpreters.

    The warm-up import, which may compile bytecode, is not timed.
    """
    env = child_env(1)
    times = []
    for k in range(SETUP_REPEATS + warm_up):
        out = run_child([sys.executable, "-c", IMPORT_PROBE], env, deadline)
        if k or not warm_up:
            times.append(float(out.strip().splitlines()[-1]))
    return times


def worker(args: dict, threads: int, deadline: float) -> dict:
    out = run_child([sys.executable, str(HERE / "worker.py"), json.dumps(args)],
                    child_env(threads), deadline)
    return json.loads(out.strip().splitlines()[-1])


def source_id() -> dict:
    """The commit when the checkout is a git repository, and a digest of src/."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def run_workload(name: str, seed: int, seconds: float, traced: bool, deadline: float) -> dict:
    stem = f"{name}-seed{seed}-trace{int(traced)}"
    scratch = WORK / f"{stem}-{os.getpid()}"
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(traced),
              "load": "closed loop, one client, one process", **source_id()}
    try:
        if not traced:
            # sampled on both sides of the workload, so that one slow stretch
            # of a shared host does not set the whole run's setup_s
            setup = setup_seconds(deadline, warm_up=True)
            res = worker({"workload": name, "seed": seed, "seconds": seconds,
                          "mode": "measure", "dir": str(scratch)}, 1, deadline)
            setup += setup_seconds(deadline, warm_up=False)
            metrics = {
                "fit_s": (statistics.median(res["fit_s"]), "s"),
                "forecast_s": (statistics.median(res["forecast_s"]), "s"),
                "setup_s": (statistics.median(setup), "s"),
                "peak_rss_mb": (res["peak_rss_mb"], "MiB"),
            }
            record["samples"] = {"fit_s": res["fit_s"], "forecast_s": res["forecast_s"],
                                 "setup_s": setup}
            correct = res["failed"] == 0
        else:
            res = worker({"workload": name, "seed": seed, "mode": "trace",
                          "dir": str(scratch), "spans": str(results / f"{stem}.spans.jsonl"),
                          "ladder": name == "closed_form_large"}, 1, deadline)
            metrics = {k: tuple(v) for k, v in res["layers"].items()}
            nproc = os.cpu_count() or 1
            wide = worker({"workload": name, "seed": seed, "mode": "trace", "reps": 1,
                           "dir": str(scratch / "wide"), "baseline": False}, nproc, deadline)
            record["informational"] = {
                "blas_threads_nproc": {
                    "threads": nproc,
                    "fit_s": wide["fit_s"], "forecast_s": wide["forecast_s"],
                    "layers": wide["layers"],
                },
                "ladder": res.get("ladder"),
                "traced_fit_s": res["fit_s"], "traced_forecast_s": res["forecast_s"],
            }
            record["span_tables"] = res["span_tables"]
            record["identical_outputs"] = res["identical_outputs"]
            correct = res["failed"] == 0 and wide["failed"] == 0 and res["identical_outputs"]
            res["attempted"] += wide["attempted"]
            res["failed"] += wide["failed"]
            res["failures"] += wide["failures"]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    record.update({
        "environment": res["environment"],
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "error_rate": res["failed"] / res["attempted"],
        "failures": res["failures"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "computed_metrics": [k for k in metrics if k in COMPUTED],
    })
    (results / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return record


def _print_record(rec: dict) -> None:
    print(f"[{rec['workload']}] seed {rec['seed']}  trace {rec['trace']}  "
          f"attempted {rec['attempted']}  failed {rec['failed']}  "
          f"error_rate {rec['error_rate']:.4g}  correct {rec['correct']}")
    for name, m in rec["metrics"].items():
        label = "  (computed, not measured)" if name in COMPUTED else ""
        print(f"  {name:36s} {m['value']:>14.6g} {m['unit']}{label}")
    for kind, problems in rec["failures"]:
        print(f"  FAILED {kind}: {'; '.join(problems)}")
    info = rec.get("informational")
    if info:
        wide = info["blas_threads_nproc"]
        print(f"  informational: at {wide['threads']} BLAS threads fit_s {wide['fit_s'][0]:.4g} s, "
              f"forecast_s {wide['forecast_s'][0]:.4g} s; traced outputs identical: "
              f"{rec['identical_outputs']}")
        if info["ladder"]:
            slopes = ", ".join(f"{m} {v:.2f}" for m, v in info["ladder"]["slopes"].items()
                               if v is not None)
            print(f"  informational: log-log slope against n {info['ladder']['n']}: {slopes}")
    env = rec["environment"]
    print(f"  environment: nproc {env['nproc']}, {env['blas']}, threads "
          f"{env['blas_threads']['OPENBLAS_NUM_THREADS']}, Python {env['python']}, "
          f"numpy {env['numpy']}, scipy {env['scipy']}, commit {rec['commit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=52.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "commonshock" / "cli.py").is_file():
        print(f"no commonshock sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    names = tuple(WORKLOADS) if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + TIME_LIMIT_S * len(names)
    records = [run_workload(n, args.seed, args.seconds, bool(args.trace), deadline) for n in names]
    for rec in records:
        _print_record(rec)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
