"""Smoke test of the benchmark at the network sizes of tests/test_inference.py.

Runs every workload through the real command line, untraced and traced,
and checks the output contract: the last line is the result object, every
metric named in BENCHMARK.json is emitted with its unit, traced spans
nest, and the traced run reproduces the untraced run's quality figures.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


# per-layer metrics each workload must reach; a traced function that is
# renamed or bypassed would read 0
EXERCISED = {
    "train": ("autodiff.backward.calls", "autodiff.forward_aug.points", "autodiff.Adam.step.floats",
              "training.shape_terms.calls", "training.fit.s"),
    "reconstruct": ("inference.joint_optimize.iterations", "autodiff.backward.param_grad_floats",
                    "canonicalize.lift_depth.points", "canonicalize.canonicalize.icp.self_s",
                    "inference.template_cloud.s", "meshing.field_points"),
    "mesh": ("meshing.field_points", "meshing.triangles", "autodiff.forward.points",
             "fields.compose_value.self_s"),
}


@pytest.mark.parametrize("workload", sorted(EXERCISED))
def test_workload_emits_every_metric(workload, tmp_path):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert workload in [w["name"] for w in spec["workloads"]]
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        proc = bench(ROOT, "--workload", workload, "--seed", "3", "--trace", str(trace),
                     "--profile", "tiny", "--build-dir", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"], proc.stdout
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert {n: m["unit"] for n, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec[kind]}
        if kind == "end_to_end":
            assert all(m["value"] > 0 for m in result["metrics"].values())
        else:
            assert all(result["metrics"][name]["value"] > 0 for name in EXERCISED[workload])

    reports = [json.load(open(tmp_path / "reports" / f"{workload}-tiny-seed3-trace{t}.json")) for t in (0, 1)]
    assert reports[0]["quality"] == reports[1]["quality"]
    spans = reports[1]["spans"]
    assert spans
    for _, start, end, parent in spans:
        assert start <= end
        if parent >= 0:
            assert spans[parent][1] <= start and end <= spans[parent][2]


def test_fails_without_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = bench(tmp_path, "--workload", "train", "--seed", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_missing_target_is_reported(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "src"))
    monkeypatch.syspath_prepend(HERE)
    import tracer

    bogus = ("shapefit.fields", "no_such_function", "fields.no_such_function", None)
    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + (bogus,))
    with tracer.Tracer() as tr:
        pass
    assert tr.missing == ["shapefit.fields.no_such_function"]
