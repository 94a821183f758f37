"""Scripts under tools/ that are run by hand, not imported by the package."""

import importlib.util
import os
import re

TOOLS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "tools")

SMALL_HYDRO_CFG = """\
scenario = small_spread
particles = 1
grid.lo = -4
grid.hi = 4
grid.n = 101
solver = hydro_lagrange
t_final = 2e-4
n_steps = 20
mwls.neighbors = 12
mwls.order = 5
"""


def _load_tool(name):
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(TOOLS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_rounding_spread_prints_trials_and_summary(tmp_path, capsys):
    cfg = tmp_path / "small.cfg"
    cfg.write_text(SMALL_HYDRO_CFG)
    tool = _load_tool("rounding_spread")
    assert tool.main([str(cfg), "--trials", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    trials = [ln for ln in lines if ln.startswith("trial ")]
    assert [ln.split(":")[0] for ln in trials] == ["trial 0", "trial 1"]
    number = r"[-+0-9.e]+|inf|nan"
    for name in ("max_v_error", "max_q_error"):
        (summary,) = [ln for ln in lines if ln.startswith(name + ":")]
        assert re.fullmatch(
            rf"{name}: min ({number})  median ({number})  max ({number})",
            summary)
