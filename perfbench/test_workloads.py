"""Checks of the seeded workload generator.

    python3 -m pytest -q perfbench
"""

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402
from slitsim.config import load_config, parse_config  # noqa: E402


def _bundled(name):
    base = workloads.WORKLOADS[name][0]
    return load_config(os.path.join(workloads.SCENARIO_DIR, base + ".cfg"))


def _generated(name, seed):
    return parse_config(workloads.scenario_text(name, seed))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_zero_reproduces_bundled_scenario(name):
    bundled, gen = _bundled(name), _generated(name, 0)
    b, g = bundled.config, gen.config
    assert g.n_steps == workloads.WORKLOADS[name][1]
    assert g.dt == b.dt
    assert (g.packet, g.grid, g.solver, g.mwls, g.field_kind) == \
        (b.packet, b.grid, b.solver, b.mwls, b.field_kind)
    assert g.trajectory_starts == b.trajectory_starts
    assert (gen.mode, gen.qp_orders) == (bundled.mode, bundled.qp_orders)
    # snapshots keep their place in the run, as a share of its length
    assert [round(t / g.t_final, 9) for t in g.snapshot_times] == \
        [round(t / b.t_final, 9) for t in b.snapshot_times]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("seed", [1, 2, 17, 123456])
def test_other_seeds_keep_the_amount_of_work(name, seed):
    ref, gen = _generated(name, 0).config, _generated(name, seed).config
    assert gen.grid.n == ref.grid.n and gen.grid.dim == ref.grid.dim
    assert gen.grid.delta == ref.grid.delta
    assert (gen.dt, gen.n_steps, gen.t_final) == \
        (ref.dt, ref.n_steps, ref.t_final)
    assert len(gen.trajectory_starts) == len(ref.trajectory_starts)
    assert gen.snapshot_times == ref.snapshot_times
    assert (gen.packet, gen.solver, gen.mwls) == \
        (ref.packet, ref.solver, ref.mwls)
    if workloads.WORKLOADS[name][2] == "starts":
        assert gen.grid == ref.grid
        for s, r in zip(gen.trajectory_starts, ref.trajectory_starts):
            assert s != r
            assert max(abs(a - b) for a, b in zip(s, r)) \
                <= workloads.START_JITTER
    else:
        shift = gen.grid.lo - ref.grid.lo
        assert gen.grid.hi - ref.grid.hi == shift
        assert 0 < abs(shift) < 0.5 * ref.grid.delta


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_file(name):
    assert workloads.scenario_text(name, 7) == workloads.scenario_text(name, 7)
    body = [workloads.scenario_text(name, s).split("\n", 1)[1]
            for s in (7, 8)]
    assert body[0] != body[1]
