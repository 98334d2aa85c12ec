"""Benchmark scripts start and print their ``--help``."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_help(script: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / script), "--help"],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_perf_cluster_help_prints_percent_sign():
    done = run_help("perf_cluster.py")
    assert done.returncode == 0, done.stderr
    assert "~50%" in done.stdout
    assert "option_strings" not in done.stdout


def test_perf_dram_help_exits_zero():
    done = run_help("perf_dram.py")
    assert done.returncode == 0, done.stderr
    assert "--quick" in done.stdout
