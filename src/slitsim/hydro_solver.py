"""Quantum-hydrodynamic propagation in Lagrange's and Euler's viewpoints.

State variables are the per-point position, velocity v, and log-amplitude
g (density P = e^{2g}). One Lagrangian step is

    r <- r + dt * v
    v <- v - dt * dQ/dy
    g <- g - (1/2) dt * dv/dy

with the quantum potential Q = -(1/2)[(dg/dy)^2 + d2g/dy2] evaluated from
MWLS jets at the current positions. Time stepping is forward Euler only:
the functional form of the MWLS derivatives changes every step, which
rules out multi-stage schemes. Euler's viewpoint keeps the grid fixed and
adds the advective terms

    v <- v - dt * dQ/dy - dt * v * dv/dy
    g <- g - (1/2) dt * dv/dy - dt * v * dg/dy

and, because the geometry never changes, reuses the least-squares
factorization from the first step.

Runs do not abort on physical breakdown: the run status flips to
"Degraded" and diagnostics keep being recorded, since observing the
breakdown near wave-function nodes is the point of these scenarios.

All shipped scenarios are one-dimensional; two-particle hydrodynamic runs
are deliberately not supported.
"""

from dataclasses import dataclass, replace

import numpy as np

from . import analytic
from .errors import IllConditioned
from .mwls import JetOperator

VALID = "Valid"
DEGRADED = "Degraded"


@dataclass(frozen=True)
class FluidEnsemble:
    """Hydrodynamic state on a set of (possibly moving) points."""

    y: np.ndarray          # positions, shape (n,)
    v: np.ndarray          # velocities
    g: np.ndarray          # log-amplitudes, P = e^{2g}
    t: float
    status: str = VALID

    def __post_init__(self):
        for arr in (self.y, self.v, self.g):
            arr.setflags(write=False)


@dataclass(frozen=True)
class HydroDiagnostics:
    """Per-snapshot comparison against the exact field."""

    t: float
    y: np.ndarray
    v_num: np.ndarray
    v_exact: np.ndarray     # NaN where the exact velocity is undefined
    q_num: np.ndarray
    q_exact: np.ndarray
    max_v_error: float
    max_q_error: float
    status: str
    mwls_max_condition: float | None   # None where no operator was built


def init_from_exact(field, points):
    """Ensemble sampling the exact field at t=0: g = ln|psi|, v = v_exact."""
    y = np.asarray(points, dtype=float).copy()
    # grid calls, which give -inf or NaN only at exact zeros: the closed
    # forms hold deep in the Gaussian tails, far below the relative
    # EPS_NODE threshold of the trajectory calls
    g = field.log_amplitude(y, 0.0)
    v, _ = field.velocity_and_potential(y, 0.0)
    return FluidEnsemble(y=y, v=v + 0.0, g=g, t=0.0)


def quantum_potential(op, g):
    """Q = -(1/2)[(dg/dy)^2 + d2g/dy2] at the operator's points, from the
    MWLS jets of the log-amplitude g.

    Returns (Q, dg/dy): Euler's viewpoint also advects g with the slope.
    """
    _, dg, d2g = op.apply(g)
    return -0.5 * (dg ** 2 + d2g), dg


def lagrangian_step(ensemble, dt, op):
    """One forward-Euler step on the moving grid.

    op is the JetOperator of the current positions ensemble.y: the
    normal-equation matrix is rebuilt (and solved) at every point, every
    step, because the point geometry moves.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    q, _ = quantum_potential(op, ensemble.g)
    _, dq, _ = op.apply(q)
    _, dv, _ = op.apply(ensemble.v)

    y_new = ensemble.y + dt * ensemble.v
    v_new = ensemble.v - dt * dq
    g_new = ensemble.g - 0.5 * dt * dv

    status = ensemble.status
    if (not np.all(np.isfinite(y_new)) or not np.all(np.isfinite(v_new))
            or not np.all(np.isfinite(g_new))):
        status = DEGRADED
    elif np.any(np.diff(y_new) <= 0):
        # moving points are Bohmian paths; crossing means breakdown
        status = DEGRADED
    return FluidEnsemble(y=y_new, v=v_new, g=g_new,
                         t=ensemble.t + dt, status=status)


def eulerian_step(ensemble, dt, op):
    """One forward-Euler step on the fixed grid (advective form).

    op is the JetOperator of the grid points, built once per run.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    q, dg = quantum_potential(op, ensemble.g)
    _, dq, _ = op.apply(q)
    _, dv, _ = op.apply(ensemble.v)

    v_new = ensemble.v - dt * dq - dt * ensemble.v * dv
    g_new = ensemble.g - 0.5 * dt * dv - dt * ensemble.v * dg

    status = ensemble.status
    if (not np.all(np.isfinite(v_new)) or not np.all(np.isfinite(g_new))):
        status = DEGRADED
    return FluidEnsemble(y=ensemble.y, v=v_new, g=g_new,
                         t=ensemble.t + dt, status=status)


def diagnose(ensemble, field, op):
    """Snapshot diagnostics comparing the ensemble to the exact field.

    op is the JetOperator of ensemble.y, or None where it was too
    ill-conditioned to build; the numerical Q is then NaN.
    """
    if op is None:
        q_num = np.full_like(ensemble.y, np.nan)
        max_cond = None
    else:
        q_num, _ = quantum_potential(op, ensemble.g)
        max_cond = float(op.condition_estimates.max())
    v_exact, q_exact = field.velocity_and_potential(ensemble.y,
                                                     ensemble.t)
    dv = np.abs(ensemble.v - v_exact)
    dq = np.abs(q_num - q_exact)
    max_v = float(np.nanmax(dv)) if np.any(np.isfinite(dv)) else np.inf
    max_q = float(np.nanmax(dq)) if np.any(np.isfinite(dq)) else np.inf
    status = ensemble.status
    if not (np.isfinite(max_v) and np.isfinite(max_q)):
        status = DEGRADED
    return HydroDiagnostics(
        t=ensemble.t, y=ensemble.y, v_num=ensemble.v,
        v_exact=v_exact, q_num=q_num, q_exact=q_exact,
        max_v_error=max_v, max_q_error=max_q, status=status,
        mwls_max_condition=max_cond)


def propagate_hydro(config, points=None):
    """Run the configured hydrodynamic scenario.

    Returns (ensemble snapshots, diagnostics). In Lagrange's viewpoint the
    recorded point paths are themselves the Bohmian trajectories. The run
    reports Degraded status instead of raising when the physics breaks
    down (node problem); only configuration errors raise.

    ``points`` overrides the initial point layout (default: the uniform
    config grid); restricting it to the packet neighborhoods suppresses
    the interference structure between them.
    """
    if config.solver not in ("hydro_lagrange", "hydro_euler"):
        raise ValueError(f"not a hydrodynamic solver: {config.solver}")
    field = analytic.field_for(config.packet, config.field_kind)
    if points is None:
        points = config.grid.axis()
    else:
        points = np.sort(np.asarray(points, dtype=float))
    ensemble = init_from_exact(field, points)
    dt = config.dt

    wanted = config.snapshot_indices
    lagrange = config.solver == "hydro_lagrange"

    def moving_operator(y):
        """The operator at the moving points; None degrades the run."""
        try:
            return JetOperator(y, config.mwls)
        except IllConditioned:
            return None

    # one operator per point layout, shared by the snapshot diagnostics
    # and the next step: fixed in Euler's viewpoint, rebuilt after every
    # step in Lagrange's. The previous Lagrangian operator stays alive
    # while the next one is built: freed first, glibc handed each build's
    # arrays back to the system and the next build faulted them in again
    # (14.4k minor page faults per 801-point, 60-step run against 0.9k)
    if lagrange:
        op = moving_operator(ensemble.y)
    else:
        op = JetOperator(points, config.mwls)

    snapshots = []
    diagnostics = []
    for k in range(config.n_steps + 1):
        if k:
            if lagrange:
                ensemble = lagrangian_step(ensemble, dt, op)
                op = moving_operator(ensemble.y)
            else:
                ensemble = eulerian_step(ensemble, dt, op)
            # the lattice time k*dt, as on the FD path: summing dt drifts
            ensemble = replace(ensemble, t=k * dt)
        if op is None:
            # no operator at these points: the run ends here, with this
            # time recorded once, Degraded
            ensemble = replace(ensemble, status=DEGRADED)
            snapshots.append(ensemble)
            diagnostics.append(diagnose(ensemble, field, None))
            break
        if k in wanted:
            snapshots.append(ensemble)
            diagnostics.append(diagnose(ensemble, field, op))
    return snapshots, diagnostics
