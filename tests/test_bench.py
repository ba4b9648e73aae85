"""Schema of the ``scripts/bench.py`` report, at tiny sizes."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CELL_KEYS = {
    "model", "stream", "N", "status", "runs", "median_s", "loop_median_s",
    "reconstruct_median_s", "newton_steps", "us_per_newton_step", "factor_us_per_step",
    "snap_tries", "snaps_kept", "converged", "certificate_ok", "dual_residual",
    "objective", "peak_mem_mb",
}
ONLINE_KEYS = {
    "policy", "stream", "N", "status", "runs", "median_s", "us_per_epoch", "throughput",
    "discarded_frac", "peak_mem_mb",
}
PHASES = {"value_model", "program", "loop", "reconstruct", "certificate", "audit", "total"}
COLD_TIMES = ("import_s", "first_ideal_s", "first_circuit_s")


def test_bench_report_schema(tmp_path):
    # A zero budget lets each series run its first size and skips the next.
    argv = ["--label", "smoke", "--out-dir", str(tmp_path), "--sizes", "10,20",
            "--repeats", "2", "--budget", "0", "--trials", "1"]
    subprocess.run([sys.executable, str(ROOT / "scripts" / "bench.py"), *argv],
                   check=True, capture_output=True, timeout=300)
    report = json.loads((tmp_path / "BENCH_smoke.json").read_text())
    assert set(report) == {"label", "environment", "scaling", "online", "phases", "cold",
                           "bench_s"}
    assert report["label"] == "smoke"
    env = report["environment"]
    assert {"python", "numpy", "scipy", "cpu_count", "blas_threads"} <= set(env)
    cells = {(c["model"], c["stream"], c["N"]): c for c in report["scaling"]}
    assert set(cells) == {(m, s, n) for m in ("ideal", "circuit", "general") for s in (100, 101)
                          for n in (10, 20)}
    for (_, _, n), cell in cells.items():
        if n == 10:
            assert set(cell) == CELL_KEYS and cell["status"] == "ok", cell
            assert cell["runs"] == 1 and cell["converged"] and cell["certificate_ok"]
            assert cell["newton_steps"] > 0 and cell["us_per_newton_step"] > 0.0
            assert 0.0 < cell["factor_us_per_step"] < cell["us_per_newton_step"]
            assert 0.0 < cell["loop_median_s"] <= cell["median_s"]
            assert 0.0 < cell["reconstruct_median_s"] <= cell["median_s"]
            assert 0 <= cell["snaps_kept"] <= cell["snap_tries"]
            assert cell["peak_mem_mb"] > 0.0
        else:
            assert cell["status"] == "skipped" and cell["predicted_s"] > 0.0, cell
    online = {(c["policy"], c["stream"], c["N"]): c for c in report["online"]}
    assert set(online) == {(p, s, n) for p in ("burst", "even") for s in (100, 101)
                           for n in (2000, 10_000)}
    for (policy, _, n), cell in online.items():
        if n == 2000:
            burst = {"p_o_us"} if policy == "burst" else set()
            assert set(cell) == ONLINE_KEYS | burst and cell["status"] == "ok", cell
            assert all(cell[key] > 0.0 for key in burst), cell
            assert cell["runs"] == 1 and cell["throughput"] > 0.0
            assert cell["us_per_epoch"] == 1e6 * cell["median_s"] / n
            assert 0.0 <= cell["discarded_frac"] < 1.0
            assert cell["peak_mem_mb"] > 0.0
        else:
            assert cell["status"] == "skipped" and cell["predicted_s"] > 0.0, cell
    phases = report["phases"]
    assert phases["trials"] == 1 and phases["etas"] == [0.2, 0.4, 0.6, 0.8, 1.0]
    assert phases["solves"] > 0 and phases["newton_steps"] > 0
    assert set(phases["ms_per_solve"]) == PHASES
    # Every eta of a trial solves a program of the same shape.
    assert phases["template_hits"] + phases["template_misses"] == phases["solves"]
    assert phases["template_hits"] > 0
    assert (phases["template_ms"] > 0.0) == (phases["template_misses"] > 0)
    cold = report["cold"]
    assert set(cold) == {"runs", "N", "stream", *COLD_TIMES}
    assert (cold["runs"], cold["N"], cold["stream"]) == (5, 10, 100)
    assert all(cold[key] > 0.0 for key in COLD_TIMES), cold
