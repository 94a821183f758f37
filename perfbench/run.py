"""slitsim benchmark: time to solution and oracle error, per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Writes the workload's scenario file from the seed, then runs it through
`slitsim.cli.run` again and again, each time in a fresh process, until
--seconds have passed. Every run's outputs are checked against the exact
oracle. With --trace 0 the end-to-end metrics of BENCHMARK.json are
reported as medians over the runs, times corrected for host speed by
calibrate.py; with --trace 1 untraced and traced runs alternate and the
per-layer metrics are reported. The last line of stdout is one JSON
object; a results file with every run and the environment goes to
perfbench/out/results/. See perfbench/README.md.
"""

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import layer_trace  # noqa: E402
import workloads  # noqa: E402

CHILD = os.path.join(HERE, "child.py")
OUT = os.path.join(HERE, "out")
#: BLAS and OpenMP threads of every run: one, so a run uses one core.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Units of the printed metrics that BENCHMARK.json does not score.
UNSCORED_UNITS = {"run_s": "s", "traj_err": "1", "fail_frac": "1",
                  "runs_timed": "count", "run_s_min": "s", "run_s_p90": "s",
                  "setup_s_raw_median": "s", "kernel_s_median": "s"}
#: A single run that takes longer than this counts as failed.
RUN_TIMEOUT_S = 60

#: Upper bounds on the oracle errors of a correct run at the benchmark's
#: run lengths, 8 to 22 times the largest values measured over seeds
#: 0-20: they catch a broken solver, not a change in the last digits.
#: traj_err has no meaning on hydro_lagrange (its points are not
#: compared to exact paths).
ERROR_BOUNDS = {
    "fd1d_fan": {"oracle_err": 5e-3, "traj_err": 1e-2},
    "fd2d_pair": {"oracle_err": 0.2, "traj_err": 2e-2},
    "hydro_lagrange": {"oracle_err": 0.1},
}


def oracle_errors(manifest_errors):
    """(oracle_err, traj_err or None) from a run's manifest errors."""
    if "field" in manifest_errors:
        final = list(manifest_errors["field"].values())[-1]
        traj = max(t["max_deviation_off_node"]
                   for t in manifest_errors["trajectories"])
        return final["max"], traj
    return manifest_errors["snapshots"][-1]["max_v_error"], None


def check(workload, rep):
    """Reasons the run failed; empty when its outputs are correct."""
    if "error" in rep:
        return [rep["error"]]
    problems = []
    if rep["exit_code"] not in (0, 2):
        problems.append(f"exit code {rep['exit_code']}")
    oracle, traj = oracle_errors(rep["errors"])
    rep["oracle_err"], rep["traj_err"] = oracle, traj
    for name, value in (("oracle_err", oracle), ("traj_err", traj)):
        bound = ERROR_BOUNDS[workload].get(name)
        if bound is not None and not (math.isfinite(value)
                                      and value <= bound):
            problems.append(f"{name} {value!r} exceeds {bound!r}")
    return problems


def run_child(workload, cfg, out_root, mode):
    env = dict(os.environ, **{v: BLAS_THREADS for v in BLAS_VARS})
    try:
        proc = subprocess.run(
            [sys.executable, CHILD, cfg, out_root, mode, workload],
            cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"run exceeded {RUN_TIMEOUT_S} s"}
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
    if proc.returncode != 0:
        return {"error": proc.stderr.strip()[-2000:]
                or f"exit code {proc.returncode}"}
    return json.loads(proc.stdout.splitlines()[-1])


def environment():
    """Versions, cores, thread pinning, commit and src size of this run."""
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
            env=dict(os.environ,
                     GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)))
        commit = commit.stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    src = os.path.join(ROOT, "src", "slitsim")
    lines = 0
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                lines += sum(1 for _ in fh)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "child_thread_env": {v: BLAS_THREADS for v in BLAS_VARS},
        "git_commit": commit,
        "src_lines": lines,
    }


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def _corrected(rep, key):
    """rep[key] in reference seconds: scaled by the calibration kernel's
    reference time over its time right after this run (calibrate.py)."""
    return rep[key] * calibrate.REFERENCE_S / rep["kernel_s"]


def end_to_end(reps, failed):
    """Scored metrics of the untraced runs, and raw timings for the record."""
    done = [r for r in reps if "run_s" in r]
    run_s = [r["run_s"] for r in done]
    return {
        "run_ref_s": _median(_corrected(r, "run_s") for r in done),
        "setup_s": _median(_corrected(r, "setup_s") for r in done),
        "peak_rss_mib": _median(r["peak_rss_mib"] for r in done),
        "oracle_err": _median(r.get("oracle_err") for r in done),
        "run_s": _median(run_s),
        "traj_err": _median(r.get("traj_err") for r in done),
        "fail_frac": failed / len(reps),
    }, {
        "runs_timed": len(done),
        "run_s_min": min(run_s, default=None),
        "run_s_p90": layer_trace.percentile(run_s, 0.9),
        "setup_s_raw_median": _median(r["setup_s"] for r in done),
        "kernel_s_median": _median(r["kernel_s"] for r in done),
    }


def per_layer(reps):
    """Medians over traced runs; the counts must repeat exactly."""
    traced = [r for r in reps if "layers" in r]
    plain = [r for r in reps if r["mode"] == "run" and "run_s" in r]
    if not traced or not plain:
        return {}, ["no complete traced and untraced run pair"]
    metrics, problems = {}, []
    for name, first in traced[0]["layers"].items():
        values = [r["layers"][name] for r in traced]
        if isinstance(first, int):
            metrics[name] = first
            if any(v != first for v in values):
                problems.append(f"count {name} differs between traced runs")
        else:
            metrics[name] = statistics.median(values)
    metrics["cli.run_cpu_s"] = statistics.median(r["run_cpu_s"]
                                                 for r in plain)
    metrics["trace.overhead_s"] = (
        statistics.median(_corrected(r, "run_s") for r in traced)
        - statistics.median(_corrected(r, "run_s")
                            for r in plain))
    return metrics, problems


def layer_shares(reps):
    """Each layer time as a share of the traced run it was measured in."""
    traced = [r for r in reps if "layers" in r]
    return {name: _median(r["layers"][name] / r["run_s"] for r in traced)
            for name in (traced[0]["layers"] if traced else ())
            if name.endswith("_s")}


def csv_report(workload, seed, reps):
    """sha256 of each CSV, whether runs agree, and the seed-0 reference."""
    sets = [r["csv_sha256"] for r in reps if "csv_sha256" in r]
    with open(os.path.join(HERE, "reference_sha256.json"),
              encoding="utf-8") as fh:
        reference = json.load(fh)[workload] if seed == 0 else None
    return {
        "sha256": sets[0] if sets else None,
        "identical_across_runs": all(s == sets[0] for s in sets),
        "matches_reference": (None if reference is None or not sets
                              else sets[0] == reference),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "slitsim", "cli.py")):
        print(f"no slitsim sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(OUT, tag)
    shutil.rmtree(work, ignore_errors=True)
    cfg = workloads.write_scenario(args.workload, args.seed, work)
    out_root = os.path.join(work, "runs")

    # an untimed start-up fills the bytecode and page caches
    run_child(args.workload, cfg, out_root, "setup")
    reps = []
    deadline = time.perf_counter() + args.seconds
    while (time.perf_counter() < deadline
           or (args.trace and len(reps) < 2)):
        mode = "trace" if args.trace and len(reps) % 2 else "run"
        rep = run_child(args.workload, cfg, out_root, mode)
        rep["mode"] = mode
        rep["problems"] = check(args.workload, rep)
        reps.append(rep)
    failed = sum(1 for r in reps if r["problems"])

    problems = []
    csvs = csv_report(args.workload, args.seed, reps)
    if not csvs["identical_across_runs"]:
        problems.append("CSV outputs differ between runs of one input")
    if args.trace:
        metrics, count_problems = per_layer(reps)
        problems += count_problems
        extra = {"layer_share_of_traced_run_s": layer_shares(reps)}
    else:
        metrics, extra = end_to_end(reps, failed)

    print(f"workload {args.workload}  seed {args.seed}  runs {len(reps)}  "
          f"failed {failed}  csv matches reference: "
          f"{csvs['matches_reference']}")
    units = dict(UNSCORED_UNITS, **{m["name"]: m["unit"] for m in wanted})
    shown = dict(metrics, **(extra if not args.trace else {}))
    for name, value in shown.items():
        value = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:34s} {value:>14s} {units.get(name, '')}")
    for p in problems + [p for r in reps for p in r["problems"]]:
        print(f"  problem: {p.splitlines()[-1] if p else p}")

    traced = [r for r in reps if "spans" in r]
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    with open(os.path.join(OUT, "results", tag + ".json"), "w",
              encoding="utf-8") as fh:
        json.dump({
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "scenario": workloads.scenario_text(args.workload, args.seed),
            "environment": environment(),
            "metrics": metrics, **extra, "csv": csvs, "problems": problems,
            "spans": traced[-1]["spans"] if traced else [],
            "runs": [{k: v for k, v in r.items() if k != "spans"}
                     for r in reps],
        }, fh, indent=1)
    shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics.get(m["name"]),
                                "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
