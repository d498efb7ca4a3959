"""Smoke-run every benchmark script so the perf suite cannot rot.

Each ``benchmarks/bench_*.py`` is executed in a subprocess with
``REPRO_BENCH_SMOKE=1`` (tiny row counts, fixed seeds, shape assertions
off, no files written) and must exit cleanly.  This is a
correctness gate, not a measurement: it proves the benchmark code still
imports, builds its stacks, and runs its full code path against the
current engine.
"""

import glob
import importlib.util
import os
import subprocess
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(REPO_ROOT, "benchmarks")
SCRIPTS = sorted(os.path.basename(p)
                 for p in glob.glob(os.path.join(BENCH_DIR, "bench_*.py")))


def test_scripts_discovered():
    assert len(SCRIPTS) >= 4, SCRIPTS


@pytest.mark.parametrize("script", SCRIPTS)
def test_bench_smoke(script):
    env = dict(os.environ)
    env["REPRO_BENCH_SMOKE"] = "1"
    src = os.path.join(REPO_ROOT, "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", os.path.join("benchmarks", script),
         "-q", "--import-mode=importlib", "-p", "no:benchmark",
         "-p", "no:cacheprovider"],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, \
        "%s failed in smoke mode:\n%s\n%s" % (script, proc.stdout,
                                              proc.stderr)


def _load_bench_common():
    """Import ``benchmarks/common.py`` standalone (no package context)."""
    spec = importlib.util.spec_from_file_location(
        "bench_common_under_test",
        os.path.join(BENCH_DIR, "common.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_smoke_json_never_clobbers_measured_results(tmp_path, monkeypatch):
    """A smoke run creates no file: its timings are meaningless and
    every smoke gate asserts in-process, so it cannot overwrite a
    measured ``BENCH_<figure>.json`` or ``results.txt``."""
    common = _load_bench_common()
    monkeypatch.setattr(common, "SMOKE", True)
    monkeypatch.setattr(common, "BENCH_JSON_ROOT", str(tmp_path))
    monkeypatch.setattr(common, "RESULTS_PATH", str(tmp_path / "results.txt"))
    common.write_bench_json("fig0", {"value": 1})
    common.report("table")
    assert list(tmp_path.iterdir()) == []
