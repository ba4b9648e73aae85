"""What a fresh interpreter loads: ``import ehsched`` and the CLI calls that
solve nothing load numpy only; scipy's kernels load at the first solve that
calls them, and nothing loads ``scipy.special``.  The package loads its
library modules and no test reference."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ehsched import UserConfig, channelset_to_json, generate_channels

ROOT = Path(__file__).resolve().parent.parent

#: Runs ``argv[1]`` (Python source) in this fresh interpreter, then prints
#: the exit code it raised, if any, and the scipy and ehsched modules it
#: loaded.
PROBE = """\
import json, sys
code = None
try:
    exec(sys.argv[1])
except SystemExit as exc:
    code = exc.code
loaded = {pkg: sorted(name for name in sys.modules if name.startswith(pkg))
          for pkg in ("scipy", "ehsched")}
print(json.dumps({"code": code, **loaded}))
"""

#: The package and its seven library modules: what ``import ehsched`` loads.
LIBRARY = [
    "ehsched", "ehsched.channels", "ehsched.energy", "ehsched.experiments", "ehsched.offline",
    "ehsched.online", "ehsched.single_epoch", "ehsched.waterfill",
]
WITH_CLI = sorted([*LIBRARY, "ehsched.cli"])

#: ``python -m ehsched`` with the given arguments.
CLI = "import runpy; sys.argv = ['ehsched', *{args!r}]; runpy.run_module('ehsched', run_name='__main__')"

SOLVE = """\
from ehsched import HybridStorage, UserConfig, decompose_zf_dpc, generate_channels
from ehsched import solve_offline_circuit, solve_offline_ideal
from ehsched.experiments import reference_profile
eff = decompose_zf_dpc(generate_channels(2, [UserConfig(1)] * 2, seed=42))
args = (eff, None, reference_profile(), HybridStorage(5.0, 100.0, 0.5), 4.0)
"""


def fresh(source: str) -> tuple:
    """The exit code, the loaded scipy modules and the loaded ehsched
    modules of ``source`` run in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", PROBE, source], env=env, cwd=str(ROOT),
                         capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(out.stdout.splitlines()[-1])
    return result["code"], result["scipy"], result["ehsched"]


@pytest.mark.parametrize("source, code, modules", [
    ("import ehsched", None, LIBRARY),
    ("import ehsched.cli", None, WITH_CLI),
    (CLI.format(args=["--help"]), 0, WITH_CLI),
    # Sweep values without an axis are invalid input.
    (CLI.format(args=["sweep", "--values", "1,2", "--trials", "2"]), 2, WITH_CLI),
], ids=["import", "import-cli", "help", "sweep-exit-2"])
def test_no_scipy_without_a_solve(source, code, modules):
    assert fresh(source) == (code, [], modules)


def test_level_loads_no_scipy(tmp_path):
    channels = tmp_path / "channels.json"
    channels.write_text(json.dumps(
        channelset_to_json(generate_channels(2, [UserConfig(1)] * 2, seed=42))))
    args = ["level", "--channels", str(channels), "--budget", "2.0"]
    assert fresh(CLI.format(args=args)) == (0, [], WITH_CLI)


def test_p_o_and_simulate_load_no_scipy(tmp_path):
    """The burst power and the causal simulator need numpy only."""
    channels, scenario = tmp_path / "channels.json", tmp_path / "scenario.json"
    channels.write_text(json.dumps(
        channelset_to_json(generate_channels(2, [UserConfig(1)] * 2, seed=42))))
    scenario.write_text(json.dumps(
        {"T": 4.0, "arrivals": [[0.0, 3.0], [1.0, 2.0]], "sc_cap": 5.0, "b_cap": 100.0,
         "eta": 0.5}))
    problem = ["--channels", str(channels), "--scenario", str(scenario), "--p-peak", "4.0"]
    for args in (["p-o", "--channels", str(channels), "--eps", "1e-20"],
                 ["simulate", *problem, "--eps", "1.0", "--out", str(tmp_path / "trace.csv")]):
        assert fresh(CLI.format(args=args)) == (0, [], WITH_CLI), args


def test_ideal_solve_loads_lapack_but_not_special():
    _, loaded, _ = fresh(SOLVE + "solve_offline_ideal(*args)")
    assert "scipy.linalg" in loaded and "scipy.sparse" in loaded
    assert "scipy.special" not in loaded


def test_circuit_solve_and_burst_run_load_lapack_but_not_special():
    # p_o is a root of the stationarity condition, not scipy's Lambert W.
    source = SOLVE + "solve_offline_circuit(*args, 1.0)\nehsched.run_online(*args, eps=1.0)"
    _, loaded, _ = fresh("import ehsched\n" + source)
    assert "scipy.linalg" in loaded and "scipy.sparse" in loaded
    assert "scipy.special" not in loaded
