"""Host-speed calibration kernels.

The benchmark host is shared: other tenants slow every run by up to 2x,
for seconds to minutes at a time, and by different factors for
interpreter-bound and memory-bound code. So each run also times a fixed
kernel shaped like its workload's hot path, in the same process, right
after `cli.run` (and after its peak memory is read, which the kernel
would otherwise raise). The run time divided by the kernel time cancels
most of the drift; multiplied by the kernel's reference time it reads
as seconds on a host running at reference speed.

The kernels use numpy only, never slitsim, and must not change: scored
times of two commits are comparable only when both used these kernels.
"""

import time

import numpy as np


def _lagrange(xs, ys, x):
    total = 0.0
    for j in range(4):
        lj = 1.0
        for k in range(4):
            if k != j:
                lj *= (x - xs[k]) / (xs[j] - xs[k])
        total += ys[j] * lj
    return total


def scalar_kernel(n=4000):
    """Interpreter-bound: scalar cubic interpolation on numpy indexing."""
    y = np.linspace(-13.0, 13.0, 261)
    v = np.sin(y)
    mask = np.zeros(261, dtype=bool)
    total = 0.0
    for i in range(n):
        x = -5.0 + 10.0 * (i % 997) / 997.0
        base = min(max(int(np.floor((x + 13.0) / 0.1)) - 1, 0), 257)
        idx = np.arange(base, base + 4)
        if mask[idx].sum() >= 3:
            continue
        total += _lagrange(-13.0 + idx * 0.1, v[idx], x)
        p = np.atleast_1d(np.asarray(x, dtype=float))
        total += float((np.abs(np.exp(-(p - 1.0) ** 2 + 0.5j * p)) ** 2)[0])
    return total


def stencil_kernel(n=300):
    """Array-bound: 4th-order second differences along both axes of 131^2."""
    f = np.random.default_rng(0).standard_normal((131, 131))
    g = f.copy()
    for _ in range(n):
        for axis in (0, 1):
            a = np.moveaxis(f, axis, 0)
            out = np.empty_like(a)
            out[2:-2] = (-30.0 * a[2:-2] + 16.0 * (a[3:-1] + a[1:-3])
                         - (a[4:] + a[:-4]))
            out[:2] = a[:2]
            out[-2:] = a[-2:]
            g = g + 1e-6 * np.moveaxis(out, 0, axis)
    return g


def mwls_kernel(n=5):
    """Memory- and LAPACK-bound: dense neighbour search on 801 points and
    a batched 6x6 eigenvalue and solve per point."""
    pts = np.linspace(-4.0, 4.0, 801)[:, None]
    for _ in range(n):
        dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
        idx = np.argsort(dist, axis=1, kind="stable")[:, :12]
        off = (pts[idx] - pts[:, None, :])[..., 0] * 100.0
        basis = np.stack([off ** e for e in range(6)], axis=2)
        gram = np.einsum("nks,nkt->nst", basis, basis) + np.eye(6)
        np.linalg.eigvalsh(gram)
        np.linalg.solve(gram, np.transpose(basis, (0, 2, 1)))
    return dist


def stencil_and_scalar_kernel():
    """About half array-bound and half interpreter-bound, like fd2d_pair,
    whose FD stencils share the time with scalar trajectory code."""
    stencil_kernel(150)
    scalar_kernel(2000)


#: Calibration kernel of each workload.
KERNELS = {
    "fd1d_fan": scalar_kernel,
    "fd2d_pair": stencil_and_scalar_kernel,
    "hydro_lagrange": mwls_kernel,
}
#: Time of each kernel on a host at reference speed: about its time on
#: the 2-core host the benchmark was built on.
REFERENCE_S = 0.1


def time_kernel(workload):
    """Wall time of one call of the workload's calibration kernel."""
    start = time.perf_counter()
    KERNELS[workload]()
    return time.perf_counter() - start
