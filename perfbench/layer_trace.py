"""Layer tracing from outside the package.

`install()` wraps the public entry points of each slitsim module where
its caller looks the name up (a module attribute, or a method on the
class) and returns the Tracer that records them. Hot boundaries
(10^4-10^6 calls per run) keep only an aggregate count and total time;
coarse calls also record a span (name, start, end, parent span). A
layer's self time is its total minus the time of traced calls made
inside it.
"""

import os
import statistics
import time
from collections import Counter, defaultdict


class Tracer:
    """Counts, times and spans of the wrapped calls of one process."""

    def __init__(self):
        self.calls = Counter()
        self.total = defaultdict(float)
        self.child = defaultdict(float)
        self.durations = defaultdict(list)
        self.counters = Counter()
        self.max_condition = 0.0
        self.spans = []
        self._stack = []        # open calls: [name, child time, span id]

    def timed(self, name, fn, span=False):
        """Wrap fn so each call adds to name's count and time."""
        def wrapper(*args, **kwargs):
            span_id = None
            if span:
                span_id = len(self.spans)
                self.spans.append(None)
            frame = [name, 0.0, span_id]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self._record(frame, start, end)
        return wrapper

    def _record(self, frame, start, end, keep=False):
        name, child, span_id = frame
        dur = end - start
        self.calls[name] += 1
        self.total[name] += dur
        self.child[name] += child
        if keep:
            self.durations[name].append(dur)
        if self._stack:
            self._stack[-1][1] += dur
        if span_id is not None:
            parent = next((f[2] for f in reversed(self._stack)
                           if f[2] is not None), None)
            self.spans[span_id] = {"id": span_id, "name": name,
                                   "start": start, "end": end,
                                   "parent": parent}

    def self_time(self, name):
        return self.total[name] - self.child[name]


def _wrap_iterate(tracer, iterate):
    """Time each next() of the FD solver's step generator."""
    def traced(*args, **kwargs):
        gen = iterate(*args, **kwargs)
        while True:
            frame = ["fd_solver.step", 0.0, None]
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                state = next(gen)
            except StopIteration:
                tracer._stack.pop()
                return
            end = time.perf_counter()
            tracer._stack.pop()
            tracer._record(frame, start, end, keep=True)
            yield state
    return traced


def install():
    """Wrap the slitsim entry points and return the recording Tracer."""
    from slitsim import analytic, bohm, cli, fd_solver, hydro_solver, mwls

    tr = Tracer()
    timed = tr.timed

    cli.load_config = timed("config.load", cli.load_config, span=True)

    fd_solver.iterate = _wrap_iterate(tr, fd_solver.iterate)
    fd_solver.laplacian = timed("fd_solver.laplacian", fd_solver.laplacian)

    bohm.velocity_field = timed("bohm.velocity_field", bohm.velocity_field)
    bohm.interpolate_velocity = timed("bohm.interpolate",
                                      bohm.interpolate_velocity)
    bohm.crossing_report = timed("bohm.crossing_report",
                                 bohm.crossing_report, span=True)
    integrate = timed("bohm.integrate_family", bohm.integrate_family,
                      span=True)

    def integrate_family(provider, starts, *args, **kwargs):
        results, fields = integrate(provider, starts, *args, **kwargs)
        tr.counters["bohm.traj_steps"] += sum(len(traj.times) - 1
                                              for traj, _ in results)
        tr.counters["bohm.traj_steps_planned"] += \
            provider.n_steps * len(starts)
        return results, fields
    bohm.integrate_family = integrate_family

    cli.exact_trajectory = timed("analytic.exact_trajectory",
                                 cli.exact_trajectory, span=True)
    cli.sample_field = timed("analytic.sample_field", cli.sample_field,
                             span=True)
    analytic.ExactField.velocity_at = timed(
        "analytic.velocity_at", analytic.ExactField.velocity_at)
    for cls in (analytic.OneParticleField, analytic.TwoParticleField,
                analytic.SlitPacketField):
        cls.psi = timed("analytic.psi", cls.psi)

    build = timed("mwls.build", mwls.JetOperator.__init__)

    def jet_init(self, *args, **kwargs):
        try:
            build(self, *args, **kwargs)
        finally:
            cond = getattr(self, "condition_estimates", None)
            if cond is not None:
                finite = cond[cond < float("inf")]
                tr.counters["mwls.build_targets"] += len(cond)
                tr.counters["mwls.ill_conditioned"] += int(
                    (cond > mwls.CONDITION_LIMIT).sum())
                if len(finite):
                    tr.max_condition = max(tr.max_condition,
                                           float(finite.max()))
    mwls.JetOperator.__init__ = jet_init
    mwls.JetOperator.apply = timed("mwls.apply", mwls.JetOperator.apply)

    hydro_solver.lagrangian_step = timed("hydro_solver.step",
                                         hydro_solver.lagrangian_step)
    hydro_solver.diagnose = timed("hydro_solver.diagnose",
                                  hydro_solver.diagnose, span=True)
    propagate = timed("hydro_solver.propagate", hydro_solver.propagate_hydro,
                      span=True)

    def propagate_hydro(*args, **kwargs):
        snapshots, diags = propagate(*args, **kwargs)
        tr.counters["hydro_solver.degraded_snapshots"] += sum(
            d.status == hydro_solver.DEGRADED for d in diags)
        return snapshots, diags
    hydro_solver.propagate_hydro = propagate_hydro

    write = timed("cli.write_csv", cli._write_csv, span=True)

    def write_csv(path, header, rows):
        write(path, header, rows)
        tr.counters["cli.csv_bytes"] += os.path.getsize(path)
    cli._write_csv = write_csv
    cli._flagged_deviation = timed("cli.flagged_deviation",
                                   cli._flagged_deviation, span=True)
    cli.run = timed("cli.run", cli.run, span=True)
    return tr


#: Array passes of one RK4 step of the real/imaginary split, each over
#: the whole grid: 8 Laplacians (read input, write output), 8 right-hand
#: side combinations (read Laplacian, potential and field, write), 6
#: stage inputs (read two, write one) and 2 updates (read five, write
#: one). A computed minimum of memory traffic, not a measurement.
RK4_ARRAY_PASSES = 8 * 2 + 8 * 4 + 6 * 3 + 2 * 6


def bytes_per_step(grid_points):
    """Computed bytes an RK4 step moves over float64 arrays of the grid."""
    return RK4_ARRAY_PASSES * grid_points * 8


def percentile(values, q):
    """The value below which a share q of the values lie (0 if none)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(tr, grid_points):
    """Per-layer metrics of one traced run, keyed as in BENCHMARK.json."""
    steps = tr.durations["fd_solver.step"]
    planned = tr.counters["bohm.traj_steps_planned"]
    return {
        "config.load_s": tr.total["config.load"],
        "fd_solver.steps": tr.calls["fd_solver.step"],
        "fd_solver.step_s": tr.total["fd_solver.step"],
        "fd_solver.step_p50_ms": 1e3 * (statistics.median(steps)
                                        if steps else 0.0),
        "fd_solver.step_p99_ms": 1e3 * percentile(steps, 0.99),
        "fd_solver.laplacian_calls": tr.calls["fd_solver.laplacian"],
        "fd_solver.bytes_per_step": (bytes_per_step(grid_points)
                                     if steps else 0),
        "bohm.velocity_field_s": tr.total["bohm.velocity_field"],
        "bohm.velocity_field_calls": tr.calls["bohm.velocity_field"],
        "bohm.interpolate_s": tr.total["bohm.interpolate"],
        "bohm.interpolate_calls": tr.calls["bohm.interpolate"],
        "bohm.integrate_self_s": tr.self_time("bohm.integrate_family"),
        "bohm.crossing_report_s": tr.total["bohm.crossing_report"],
        "bohm.traj_steps_completed_frac": (
            tr.counters["bohm.traj_steps"] / planned if planned else 0.0),
        "analytic.exact_trajectory_s": tr.total["analytic.exact_trajectory"],
        "analytic.velocity_at_calls": tr.calls["analytic.velocity_at"],
        "analytic.psi_calls": tr.calls["analytic.psi"],
        "analytic.sample_field_s": tr.total["analytic.sample_field"],
        "mwls.build_s": tr.total["mwls.build"],
        "mwls.build_calls": tr.calls["mwls.build"],
        "mwls.build_targets": tr.counters["mwls.build_targets"],
        "mwls.apply_s": tr.total["mwls.apply"],
        "mwls.apply_calls": tr.calls["mwls.apply"],
        "mwls.max_condition": tr.max_condition,
        "mwls.ill_conditioned": tr.counters["mwls.ill_conditioned"],
        "hydro_solver.steps": tr.calls["hydro_solver.step"],
        "hydro_solver.step_self_s": tr.self_time("hydro_solver.step"),
        "hydro_solver.diagnose_s": tr.total["hydro_solver.diagnose"],
        "hydro_solver.degraded_snapshots":
            tr.counters["hydro_solver.degraded_snapshots"],
        "cli.write_csv_s": tr.total["cli.write_csv"],
        "cli.csv_bytes": tr.counters["cli.csv_bytes"],
        "cli.flagged_deviation_s": tr.total["cli.flagged_deviation"],
    }

