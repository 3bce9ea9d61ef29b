"""Tests of the benchmark itself, at tiny scale.

    python3 -m pytest -q bench/test_bench.py

They stay out of the package's test suite (pyproject's testpaths), so timing
noise never gates it.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _run(*extra: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--seconds", "0.001", "--scale", "tiny"]
    return subprocess.run(cmd + list(extra), cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def _units(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_pass_reports_every_end_to_end_metric(workload):
    result = _result(_run("--workload", workload, "--seed", "5", "--trace", "0"))
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _units("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_reports_every_layer_metric():
    result = _result(_run("--workload", "sparse-separators", "--seed", "5", "--trace", "1"))
    assert result["correct"] is True  # includes: call counts repeat between traced passes
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _units("per_layer")
    assert result["metrics"]["graph.components.calls"]["value"] > 0


def _fingerprint(wl) -> list:
    out = []
    for label, item in sorted(wl.inputs.items()):
        if isinstance(item, int):
            out.append((label, item))
        else:
            out.append((label, item.n, tuple(item.sorted_edges())))
    return out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_changes_inputs_and_same_seed_repeats_them(workload):
    first = _fingerprint(workloads.build(workload, 1, "tiny"))
    assert first == _fingerprint(workloads.build(workload, 1, "tiny"))
    assert first != _fingerprint(workloads.build(workload, 2, "tiny"))


def test_digest_is_stable_across_two_passes():
    def digest() -> str:
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        cmd = [
            sys.executable, os.path.join(BENCH, "worker.py"),
            "--workload", "minor-density", "--seed", "9", "--scale", "tiny",
            "--t0", repr(time.perf_counter()),
        ]
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=170)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.strip().splitlines()[-1])["digest"]

    assert digest() == digest()


def test_recheck_rejects_a_tampered_separator():
    wl = workloads.build("sparse-separators", 3, "tiny")
    inst = next(i for i in wl.instances if i.name.startswith("heuristic/planar-grid"))
    cert = inst.solve({})
    inst.check(cert)
    smaller = type(cert)(cert.separator - {min(cert.separator)}, cert.largest_component, cert.n)
    with pytest.raises(workloads.CheckFailed):
        inst.check(smaller)


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "exact-small", "--seed", "1", "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
