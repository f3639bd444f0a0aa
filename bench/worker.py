"""The workload process: imports rrdid, then runs operations until time is up.

    python3 bench/worker.py SPEC_JSON SPAWN_TIME
    python3 bench/worker.py --probe SPAWN_TIME

SPAWN_TIME is the parent's time.monotonic() just before it started this
process. Setup ends once `rrdid.cli` is imported; it is measured as the
CPU time used so far and as wall time since SPAWN_TIME, with the machine's
speed sampled meanwhile (calibration.py). A probe only measures setup,
prints it and exits. Otherwise SPEC_JSON names the operations (one argv
list per input), the seconds to measure, whether to trace, and where to
write the result; the parent checks the outputs.

Every operation is one `rrdid.cli.run_cli` call with its stdout captured.
One untimed warm-up call runs first. Passes over all inputs repeat until
the seconds are used up; a traced run alternates untraced and traced
passes, so the two can be compared for the tracing overhead.
"""

import sys
import time


def main():
    spawn = float(sys.argv[2])
    from calibration import Sampler

    sampler = Sampler()
    sampler.start()
    import rrdid.cli
    setup = [sampler.clock(), time.monotonic() - spawn, sampler.take()]

    import json
    if sys.argv[1] == "--probe":
        sampler.stop()
        print(json.dumps(setup))
        return 0

    import contextlib
    import io

    import rrdid.simulate
    from tracing import Tracer

    with open(sys.argv[1], encoding="utf-8") as handle:
        spec = json.load(handle)
    ops = spec["ops"]
    outputs = [None] * len(ops)
    # [input, CPU seconds, exit code, identical output, traced, warm-up,
    #  wall seconds, mean speed sample in seconds or None]
    records = []
    tracer = Tracer(sampler.clock)
    modules = {"rrdid.cli": rrdid.cli, "rrdid.simulate": rrdid.simulate}

    def run(index, fn, traced=False, warm_up=False):
        buffer = io.StringIO()
        sampler.take()
        start, start_wall = sampler.clock(), time.perf_counter()
        with contextlib.redirect_stdout(buffer):
            code = fn(ops[index])
        seconds = sampler.clock() - start
        wall = time.perf_counter() - start_wall
        speed = sampler.take()
        text = buffer.getvalue()
        if outputs[index] is None:
            outputs[index] = text
        records.append([index, seconds, code, text == outputs[index], traced, warm_up, wall,
                        speed])

    try:
        run(0, rrdid.cli.run_cli, warm_up=True)
        traced_op = tracer.root(rrdid.cli.run_cli)
        passes = 0
        start = time.perf_counter()
        while True:
            if spec["trace"] and passes % 2 == 1:
                with tracer.installed(modules):
                    for index in range(len(ops)):
                        run(index, traced_op, traced=True)
            else:
                for index in range(len(ops)):
                    run(index, rrdid.cli.run_cli)
            passes += 1
            if time.perf_counter() - start >= spec["seconds"] and (
                    passes >= 2 or not spec["trace"]):
                break
    finally:
        sampler.stop()

    result = {
        "setup": setup,
        "peak_rss_mb": peak_rss_mb(),
        "blas_threads": blas_threads(),
        "records": records,
        "outputs": outputs,
        "trace": tracer.summary() if spec["trace"] else None,
    }
    if spec["trace"]:
        tracer.write(spec["spans_path"])
    with open(spec["result_path"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


def peak_rss_mb():
    """High-water resident set of this process image, in MiB."""
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def blas_threads():
    """Threads each bundled OpenBLAS reports, by library file name."""
    import ctypes
    import glob
    import os

    import numpy
    import scipy

    found = {}
    for package in (numpy, scipy):
        libs = os.path.join(os.path.dirname(package.__file__), os.pardir,
                            package.__name__ + ".libs", "*openblas*")
        for path in sorted(glob.glob(libs)):
            lib = ctypes.CDLL(path)
            for name in ("scipy_openblas_get_num_threads64_",
                         "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
                getter = getattr(lib, name, None)
                if getter is not None:
                    getter.restype = ctypes.c_int
                    getter.argtypes = []
                    found[os.path.basename(path)] = getter()
                    break
    return found


if __name__ == "__main__":
    sys.exit(main())
