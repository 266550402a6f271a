"""Tests of the benchmark's own parts: inputs, tracing, metric names, guard."""

import contextlib
import io
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import commonshock.cli as cli  # noqa: E402
import commonshock.estimation as estimation  # noqa: E402
import checks  # noqa: E402
import generate  # noqa: E402
import tracer as tr  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _run_cli(kind, directory):
    with contextlib.chdir(directory), contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([kind, "--config", generate.CONFIG_NAME, "--out", kind]) == 0
        return Path(f"{kind}.json").read_bytes(), Path(f"{kind}.txt").read_bytes()


@pytest.mark.parametrize("name", sorted(generate.WORKLOADS))
def test_same_seed_gives_identical_files(name, tmp_path):
    workload = generate.WORKLOADS[name].resized(8)
    for d in ("a", "b", "c"):
        generate.write_inputs(workload, 7 if d != "c" else 8, tmp_path / d)
    for f in (generate.CSV_NAME, generate.CONFIG_NAME):
        assert (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()
    assert (tmp_path / "a" / generate.CSV_NAME).read_bytes() != (
        tmp_path / "c" / generate.CSV_NAME
    ).read_bytes()


def test_cell_partition_residual_statistics_do_not_depend_on_seed(tmp_path):
    workload = generate.WORKLOADS["generic_small"].resized(8)
    omegas = []
    for seed in (1, 2):
        generate.write_inputs(workload, seed, tmp_path / str(seed))
        omegas.append(checks.Model(workload, tmp_path / str(seed)).closed_form_omega())
    np.testing.assert_allclose(omegas[0], omegas[1], rtol=1e-10)


# the generic solver runs hundreds of small solves, slow under multithreaded
# BLAS, so calendar_n4 runs the fit alone
@pytest.mark.parametrize("name, kinds", [
    ("closed_form_large", ("fit", "forecast")),
    ("calendar_n4", ("fit",)),
])
def test_wrappers_are_transparent(name, kinds, tmp_path):
    workload = generate.WORKLOADS[name].resized(8)
    generate.write_inputs(workload, 3, tmp_path)
    untraced = [_run_cli(kind, tmp_path) for kind in kinds]

    originals = {(m, a): m.__dict__[a] for m, a in
                 ((cli, "assemble"), (estimation, "profile_score"), (estimation, "SigmaModel"))}
    tracer = tr.Tracer()
    tracer.install()
    try:
        assert estimation.profile_score is not originals[(estimation, "profile_score")]
        traced = [_run_cli(kind, tmp_path) for kind in kinds]
    finally:
        tracer.uninstall()
    assert traced == untraced
    for (module, attr), original in originals.items():
        assert module.__dict__[attr] is original
    names = {sp.name for sp in tracer.spans}
    assert {"design.assemble", "covariance.sigma_model", "estimation.gls_fit"} <= names
    assert ("forecast.predict" in names) == ("forecast" in kinds)
    assert ("estimation.profile_score" in names) == (name == "calendar_n4")


def test_wrapped_class_and_errors_pass_through():
    tracer = tr.Tracer()

    class Base:
        def __init__(self, x):
            self.x = x

    def boom():
        raise ValueError("boom")

    Traced = tracer.wrap("t.base", Base, lambda obj: {"x": obj.x})
    obj = Traced(3)
    assert isinstance(obj, Base) and obj.x == 3 and Traced.__name__ == "Base"
    with pytest.raises(ValueError, match="boom"):
        tracer.wrap("t.boom", boom)()
    assert [sp.name for sp in tracer.spans] == ["t.base", "t.boom"]
    assert tracer.spans[0].attrs == {"x": 3}
    assert all(sp.end >= sp.start for sp in tracer.spans)


def test_self_time_subtracts_direct_children():
    spans = [
        tr.Span(0, "root", None, 0.0, 10.0),
        tr.Span(1, "a", 0, 1.0, 4.0),
        tr.Span(2, "b", 1, 2.0, 3.0),
        tr.Span(3, "a", 0, 5.0, 6.0),
    ]
    table = tr.span_table(spans)
    assert table["root"] == {"calls": 1, "total_s": 10.0, "self_s": 6.0}
    assert table["a"] == {"calls": 2, "total_s": 4.0, "self_s": 3.0}
    assert [sp.id for sp in tr.command_spans(spans, 1)] == [1, 2]


def test_metric_names_match_the_benchmark_file():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(NAME.fullmatch(n) for n in declared)
    assert len(set(declared)) == len(declared)
    layer = set(tr.layer_metrics([], [])) | {"trace.overhead_fit_s"}
    assert {m["name"] for m in spec["per_layer"]} == layer
    assert {m["name"] for m in spec["end_to_end"]} == {"fit_s", "forecast_s", "setup_s", "peak_rss_mb"}
    declared_workloads = [w["name"] for w in spec["workloads"]]
    assert declared_workloads == [w for w in generate.WORKLOADS if w != "calendar_n4"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "generic_small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
