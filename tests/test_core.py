"""Grids, parameter containers, and quadrature."""

import numpy as np
import pytest

from slitsim import analytic, mwls
from slitsim.core import (ComplexField, MwlsConfig, ScenarioConfig,
                          UniformGrid, WavePacketParams, norm)
from slitsim.errors import GridTooSmall, TooFewPoints


def test_packet_defaults():
    p = WavePacketParams()
    assert p.Y == 1.0
    assert p.sigma0 == 0.2
    assert p.particles == 1
    assert p.exchange_sign == +1


@pytest.mark.parametrize("kwargs", [
    {"sigma0": 0.0},
    {"sigma0": -0.1},
    {"Y": -1.0},
    {"particles": 3},
    {"exchange_sign": 0},
])
def test_packet_validation(kwargs):
    with pytest.raises(ValueError):
        WavePacketParams(**kwargs)


def test_grid_spacing_and_axis():
    g = UniformGrid(-13.0, 13.0, 261)
    assert g.delta == pytest.approx(0.1)
    ax = g.axis()
    assert ax[0] == -13.0 and ax[-1] == 13.0
    assert len(ax) == 261
    assert g.shape == (261,)


def test_grid_2d_meshgrid_layout():
    g = UniformGrid(-1.0, 1.0, 21, dim=2)
    y1, y2 = g.meshgrid()
    assert y1.shape == (21, 21)
    # first coordinate varies along axis 0
    assert y1[0, 0] == -1.0 and y1[-1, 0] == 1.0
    assert np.all(y1[:, 0] == y1[:, -1])
    assert np.all(y2[0, :] == y2[-1, :])


def test_grid_contains():
    g = UniformGrid(-2.0, 2.0, 41)
    assert g.contains((0.5,))
    assert not g.contains((2.0,))
    assert not g.contains((-3.0,))
    g2 = UniformGrid(-2.0, 2.0, 41, dim=2)
    assert g2.contains((0.5, -1.9))
    assert not g2.contains((0.5, -2.1))
    with pytest.raises(ValueError):
        g2.contains((0.5,))


def test_grid_too_small():
    with pytest.raises(GridTooSmall):
        UniformGrid(0.0, 1.0, 10)


def test_grid_bad_interval():
    with pytest.raises(ValueError):
        UniformGrid(1.0, 1.0, 21)


def test_complex_field_shape_check():
    g = UniformGrid(0.0, 1.0, 11)
    with pytest.raises(ValueError):
        ComplexField(grid=g, re=np.zeros(12), im=np.zeros(11))


def test_complex_field_immutable():
    g = UniformGrid(0.0, 1.0, 11)
    fld = ComplexField(grid=g, re=np.zeros(11), im=np.zeros(11))
    with pytest.raises(ValueError):
        fld.re[0] = 1.0


def test_density_and_probability():
    g = UniformGrid(0.0, 1.0, 11)
    re = np.linspace(0.0, 1.0, 11)
    im = np.full(11, 0.5)
    fld = ComplexField(grid=g, re=re, im=im)
    assert np.allclose(fld.density(), re ** 2 + 0.25)
    assert fld.density()[10] == pytest.approx(1.25)


def test_norm_one_particle(one_field):
    g = UniformGrid(-13.0, 13.0, 261)
    fld = analytic.sample_field(one_field, g, 0.0)
    assert norm(fld) == pytest.approx(1.0, abs=1e-9)


def test_norm_two_particle(boson_field):
    g = UniformGrid(-3.0, 3.0, 121, dim=2)
    fld = analytic.sample_field(boson_field, g, 0.0)
    assert norm(fld) == pytest.approx(1.0, abs=1e-7)


def test_mwls_config_basis_size():
    # poly_order + 1 basis powers: 6 neighbours fit order 5, 5 do not
    y = np.linspace(0.0, 1.0, 20)
    mwls.JetOperator(y, MwlsConfig(n_neighbors=6, poly_order=5))
    with pytest.raises(TooFewPoints, match="support 6 basis"):
        mwls.JetOperator(y, MwlsConfig(n_neighbors=5, poly_order=5))


def test_mwls_config_underdetermined():
    c = MwlsConfig(n_neighbors=5, poly_order=5)
    with pytest.raises(TooFewPoints):
        mwls.JetOperator(np.linspace(0.0, 1.0, 20), c)


def test_mwls_config_validation():
    with pytest.raises(ValueError):
        MwlsConfig(poly_order=1)
    with pytest.raises(ValueError):
        MwlsConfig(weight_width=-0.5)


def _scenario(**overrides):
    base = dict(
        packet=WavePacketParams(),
        grid=UniformGrid(-13.0, 13.0, 261),
        t_final=1.0,
        n_steps=100,
        solver="schrodinger_fd",
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def test_scenario_dt():
    cfg = _scenario(n_steps=5000)
    assert cfg.dt == pytest.approx(2e-4)


def test_scenario_unknown_solver():
    with pytest.raises(ValueError):
        _scenario(solver="spectral")


def test_scenario_start_outside_grid():
    with pytest.raises(ValueError):
        _scenario(trajectory_starts=((14.0,),))


def test_scenario_auto_mwls():
    cfg = _scenario(solver="hydro_lagrange")
    assert cfg.mwls is not None
    assert cfg.mwls.n_neighbors == 12
    fd = _scenario()
    assert fd.mwls is None
