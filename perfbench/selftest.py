"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Runs every workload briefly on tiny inputs, untraced and traced, and
checks that

* every metric of BENCHMARK.json, and every per-workload metric the
  benchmark documents, is emitted with a unit, and that the result line
  is correct;
* a deliberately corrupted schedule in one operation is audited as
  failed and shows in ``failed_frac``.

Exits 0 when every check holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from dataclasses import replace

import run

#: Per-workload metrics printed besides the BENCHMARK.json ones.
NAMED = {
    "sweep-eta": ("trials_per_s", "trial_p50_ms", "trial_p90_ms"),
    "long-horizon": ("solve_ideal_s", "solve_circuit_s"),
    "online-long": ("epochs_per_s",),
}
COMMON = ("setup_s", "peak_mem_mb", "failed_frac")
SECONDS = 0.3


def tiny(workloads):
    return [
        replace(workloads.SweepEta(), bank=2),
        replace(workloads.LongHorizon(), epochs=8, bank=2),
        replace(workloads.OnlineLong(), epochs=200),
    ]


def corrupt(wl, out) -> None:
    """Stretch epoch 0's on-time far past its epoch in the first schedule
    of an operation, which the audit must reject."""
    if wl.name == "sweep-eta":
        out.payload[2][0].schedule.tau[0] = 1e9
    elif wl.name == "long-horizon":
        out.payload[1][0][2]["tau"][0] = 1e9
    else:
        out.payload[1].schedule.tau[0] = 1e9


class CorruptFirst:
    """The workload with its first operation's output corrupted."""

    def __init__(self, wl):
        self.wl = wl
        self.done = False

    def __getattr__(self, name):
        return getattr(self.wl, name)

    def op(self, inputs, j):
        out = self.wl.op(inputs, j)
        if not self.done:
            corrupt(self.wl, out)
            self.done = True
        return out


def quiet_run(wl, trace_on: bool):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return run.run(wl, seed=1, seconds=SECONDS, trace_on=trace_on)


def main() -> int:
    error = run.prepare()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    import workloads

    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    end_to_end = [m["name"] for m in bench["end_to_end"]]
    per_layer = [m["name"] for m in bench["per_layer"]]
    problems = []
    for wl in tiny(workloads):
        for trace_on, names in ((False, end_to_end), (True, per_layer)):
            result, metrics = quiet_run(wl, trace_on)
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            if sorted(emitted) != sorted(names):
                problems.append(f"{wl.name} trace={trace_on}: result metrics {sorted(emitted)}")
            wanted = names if trace_on else [*names, *COMMON, *NAMED[wl.name]]
            for name in wanted:
                if name not in metrics or not metrics[name][1]:
                    problems.append(f"{wl.name} trace={trace_on}: {name} missing or without unit")
            if not result["correct"] or result["failed"]:
                problems.append(f"{wl.name} trace={trace_on}: clean run reported {result}")
        result, metrics = quiet_run(CorruptFirst(wl), False)
        if result["failed"] < 1 or not metrics["failed_frac"][0] > 0.0:
            problems.append(f"{wl.name}: corrupted schedule not counted as failed")
        print(f"{wl.name}: checked")
    for p in problems:
        print(f"FAIL {p}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
