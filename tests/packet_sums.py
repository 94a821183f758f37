"""Packet-sum reference for slitsim.analytic (a helper, not a test module):
psi, grad psi and lap psi summed packet by packet, and the single packet's
similarity flow, from analytic.sigma_t, the packet centres and each field's
norm_constant, independent of the closed forms that tests check against it.
"""

import numpy as np

from slitsim import analytic


def _packet(params, center, y, t):
    """(psi, dpsi/dy, d2psi/dy2) of the normalized spreading Gaussian
    (2 pi sigma_t^2)^(-1/4) exp(-(y - c)^2 / (4 sigma0 sigma_t))."""
    dy = np.asarray(y, dtype=float) - center
    s0, st = params.sigma0, analytic.sigma_t(params, t)
    a = 1.0 / (2.0 * s0 * st)
    p = (2.0 * np.pi * st ** 2) ** -0.25 * np.exp(-dy ** 2 / (4.0 * s0 * st))
    return p, -a * dy * p, ((a * dy) ** 2 - a) * p


def psi_grad_lap(fld, *args):
    """(psi, tuple of dpsi/d coordinate, lap psi) of an exact field at
    (coordinates..., t)."""
    *ys, t = args
    if isinstance(fld, analytic.SlitPacketField):
        p, d, lap = _packet(fld.params, fld.center, *ys, t)
        return p, (d,), lap
    n, s, big_y = fld.norm_constant, fld.params.exchange_sign, fld.params.Y
    (a1, da1, la1), *a2 = [_packet(fld.params, big_y, y, t) for y in ys]
    (b1, db1, lb1), *b2 = [_packet(fld.params, -big_y, y, t) for y in ys]
    if fld.dim == 1:
        return n * (a1 + b1), (n * (da1 + db1),), n * (la1 + lb1)
    (a2, da2, la2), (b2, db2, lb2) = a2 + b2
    return (n * (a1 * b2 + s * b1 * a2),
            (n * (da1 * b2 + s * db1 * a2), n * (a1 * db2 + s * b1 * da2)),
            n * (la1 * b2 + a1 * lb2 + s * (lb1 * a2 + b1 * la2)))


def similarity_position(fld, y0, t):
    """Exact Bohmian path of a SlitPacketField from y0: the packet's
    self-similar spreading flow."""
    s = np.abs(analytic.sigma_t(fld.params, t)) / fld.params.sigma0
    return fld.center + (y0 - fld.center) * s
