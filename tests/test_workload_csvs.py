"""The benchmark workloads at seed 0, byte for byte.

perfbench/workloads.py writes each workload's scenario file (a bundled
scenario cut to a fixed run length); a plain `slitsim run` of it must
give these CSVs. A speed change that keeps every CSV byte-identical
keeps these hashes.
"""

import hashlib
import importlib.util
import os

import pytest

from slitsim import cli

WORKLOADS_PY = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "perfbench", "workloads.py")

SEED0_SHA256 = {
    "fd1d_fan": {
        "fields.csv": "1073d5bdacfda8cc25685c7472e010b8"
                      "9e3f5a3056b96c582246a2076a188a75",
        "trajectories.csv": "0230367fe84362286f0a658c336974398"
                            "a1e9b8f9d3e3581c49e9b15b14fb7b1"},
    "fd2d_pair": {
        "fields.csv": "d8d945f47a0f348bdddab2d4ef6b38a3"
                      "107cdd62c5ee9f0996c262cc6dbcd23b",
        "trajectories.csv": "89b0cc0f4e5f50cb0ca01903e627229f"
                            "4eafd640cd7dc911f209dffe1d53875d"},
    "hydro_lagrange": {
        "diagnostics.csv": "a684280322e25ad61c075fd8964de46e"
                           "079a84f3201a560ecd2f86c2f4b1b0b4",
        "trajectories.csv": "95effe8e2bd6228ef39af4382de54f48"
                            "9bf429df8fbd27f304fb09d78cec427d"},
}


def _workloads():
    spec = importlib.util.spec_from_file_location("workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", sorted(SEED0_SHA256))
def test_seed_zero_workload_csvs_are_pinned(tmp_path, name):
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(_workloads().scenario_text(name, 0), encoding="utf-8")
    manifest, code = cli.run(str(cfg), out_root=str(tmp_path / "runs"))
    assert code == 0
    got = {}
    for fname in SEED0_SHA256[name]:
        with open(os.path.join(manifest["out_dir"], fname), "rb") as fh:
            got[fname] = hashlib.sha256(fh.read()).hexdigest()
    assert got == SEED0_SHA256[name]
