"""One benchmark job: a fresh interpreter running one roqcharts command.

    python3 perfbench/job.py '<job spec as JSON>'

The spec names the source tree, the CLI arguments and whether to trace.
The job prints the command's own output, then one JSON line: the
monotonic time at which set-up (interpreter start and `import
roqcharts`) ended, the time spent inside `roqcharts.cli.main`, the exit
code, the peak resident set size and, when traced, the per-layer totals
and the recorded spans.

A job is cold because it is a new process, which is how a user meets the
program; the benchmark never reaches into the package's private caches.
"""

import json
import resource
import sys
import time


def peak_rss_kb() -> int:
    """Peak resident set size of this process image.

    ru_maxrss is not used where VmHWM is available: Linux carries the
    forking parent's high-water mark into ru_maxrss across exec, so every
    job would report at least the size of the run.py process.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    from roqcharts import cli  # imports the whole package

    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer().install()
    t_ready = time.clock_gettime(time.CLOCK_MONOTONIC)

    t0 = time.perf_counter()
    if tracer is not None:
        rc = tracer.run_root(cli.main, spec["argv"])
    else:
        rc = cli.main(spec["argv"])
    compute_s = time.perf_counter() - t0

    report = {"t_ready": t_ready, "compute_s": compute_s, "rc": rc,
              "maxrss_kb": peak_rss_kb()}
    if tracer is not None:
        report["layers"] = tracer.summary()
        report["spans"] = tracer.spans
        report["missing"] = tracer.missing
    sys.stdout.flush()
    print(json.dumps(report))
    return rc


if __name__ == "__main__":
    sys.exit(main())
