"""One benchmark repetition in a fresh process.

    python3 perfbench/child.py <scenario.cfg> <out_root> <mode> <workload>

mode is `setup` (import and config load only), `run` (untraced run) or
`trace` (run with the layer wrappers installed, then `slitsim compare`
on the outputs). After a run, and after its peak memory is read, the
workload's calibration kernel is timed (see calibrate.py). Prints one
JSON object on stdout.
"""

import hashlib
import json
import os
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _csv_sha256(manifest):
    out = {}
    for name in manifest["files"]:
        if name.endswith(".csv"):
            with open(os.path.join(manifest["out_dir"], name), "rb") as fh:
                out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def main(cfg_path, out_root, mode, workload):
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(ROOT, "src"))
    start = time.perf_counter()
    from slitsim import cli, config
    spec = config.load_config(cfg_path)
    result = {"setup_s": time.perf_counter() - start}
    if mode == "setup":
        return result

    sys.path.insert(0, here)
    import calibrate
    tracer = None
    if mode == "trace":
        import layer_trace
        tracer = layer_trace.install()

    cpu = time.process_time()
    start = time.perf_counter()
    try:
        manifest, code = cli.run(cfg_path, out_root=out_root)
    except Exception:
        result["error"] = traceback.format_exc(limit=-3)
        return result
    result["run_s"] = time.perf_counter() - start
    result["run_cpu_s"] = time.process_time() - cpu
    result["peak_rss_mib"] = (resource.getrusage(resource.RUSAGE_SELF)
                              .ru_maxrss / 1024.0)
    calibrate.time_kernel(workload)         # first call pays one-time costs
    result["kernel_s"] = calibrate.time_kernel(workload)
    result["exit_code"] = code
    result["status"] = manifest["status"]
    result["errors"] = manifest["errors"]
    result["csv_sha256"] = _csv_sha256(manifest)

    if tracer is not None:
        grid = spec.config.grid
        result["layers"] = layer_trace.layer_metrics(tracer,
                                                     grid.n ** grid.dim)
        result["spans"] = tracer.spans
        start = time.perf_counter()
        cli.compare(os.path.join(manifest["out_dir"], "manifest.json"))
        result["layers"]["cli.compare_s"] = time.perf_counter() - start
    return result


if __name__ == "__main__":
    print(json.dumps(main(*sys.argv[1:5])))
