"""The roqcharts benchmark.

    python3 perfbench/run.py --workload tate --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the package is used from `src/` as it
stands, byte-compiled once per run.  Outputs go to `.bench_build/perfbench/`.
Workloads, metrics and the job model are described in
`perfbench/README.md`.

Load model: a closed loop with one client.  Jobs run back to back, one
at a time, each in its own fresh interpreter (`perfbench/job.py`)
calling `roqcharts.cli.main`.  A pass runs every job of the workload
once; untraced runs repeat passes until their total time is as close
to `--seconds` as whole passes allow.  Between jobs a fixed loop gauges
the host's speed, and the reported times (mean pass times, median
set-up time) are corrected for it; see `end_to_end`.  A traced run makes one
untraced pass and two traced passes and reports per-layer totals.
`--workload all` runs every workload in turn.

Every job's output is checked outside the timed region: the exit code,
the chart against the closed form on the same window, the verify
verdict, and (traced) empty collapse and Bockstein candidate lists and
identical counts in both traced passes.  The last line of standard output
is one JSON object with the keys correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build" / "perfbench"
RUN_LIMIT_S = 170    # a whole run must end within 180 s; jobs are killed at this mark
VERIFY_PASS = "PASS: 0 failing checks"

# kind, theory, pipeline, window radius r, top row: the window is
# [-r, r] x [-r, top], top = r unless given
WORKLOADS = {
    # ~90% of the time is the collapse certificate over spot states
    "tate": [("compute", th, "tate", r, None) for th in ("hz", "kr")
             for r in (6, 12, 20)],
    # no spectral-sequence page at all: the control for specseq changes.
    # Bockstein windows stop at row 12: from row 16 up the Bockstein run
    # reports d_5 candidates it cannot rule out and compute exits 1.
    "bockstein-cells": [("compute", "kr", "bockstein", 40, 12),
                        ("compute", "kr", "bockstein", 60, 12),
                        ("compute", "hz", "cells", 40, None),
                        ("compute", "hz", "cells", 60, None),
                        ("compute", "hz", "closed", 60, None),
                        ("compute", "kr", "closed", 60, None)],
    # many pipeline calls sharing one process, plus diff and closed forms
    "verify": [("verify", None, None, 12, None)],
}

# per-layer count metrics: compared exactly between the two traced passes
COUNT_METRICS = [
    "specseq.state_calls", "specseq.state_distinct", "specseq.monomial_calls",
    "specseq.candidate_pairs", "specseq.candidates_found",
    "exactalg.snf_calls", "exactalg.snf_distinct", "exactalg.presented_calls",
    "exactalg.homology_calls", "exactalg.nonzero_hom_calls",
    "theories.floor_survivor_calls", "theories.bockstein_candidates",
    "cells.row_calls", "chartio.chart_bytes", "cli.checks_run",
]
TIME_METRICS = [
    "specseq.certificate_s", "specseq.readout_s", "exactalg.snf_s",
    "exactalg.presented_s", "tate.invert_a_s", "tate.orbits_s", "tate.phi_s",
    "tate.genuine_s", "theories.seed_s", "theories.bockstein_s",
    "theories.bss_candidates_s", "cells.rows_s", "grading.closed_s",
    "chartio.diff_s", "chartio.serialize_s",
]
GAUGE_SHARE = 0.04   # host gauge time per unit of job time
REFERENCE_S = 0.005  # end-to-end times read as seconds where reference_work takes this
UNITS = {"peak_rss_mb": "MB", "ok_frac": "ratio", "trace.overhead_frac": "ratio",
         "trace.stage_coverage": "ratio", "chartio.chart_bytes": "bytes"}


def unit_of(name: str) -> str:
    return UNITS.get(name, "s" if name.endswith("_s") else "count")


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def make_jobs(workload: str, seed: int) -> list[dict]:
    """The workload's jobs, each window shifted by a seeded offset
    (d, -d) with |d| <= 2 (size unchanged), in a seeded order.

    The offsets stay on the anti-diagonal because the work grows with
    dx + dy (the Tate pipeline pads its window down to -xmax - 4): a
    `verify all` at offset (-2,-2) evaluates 126,605 spot states, at
    (2,2) 155,802, at (2,-2) and (-2,2) 141,216 and at (0,0) 143,560.
    """
    rng = random.Random(seed)
    jobs = []
    for kind, theory, pipeline, radius, top in WORKLOADS[workload]:
        top = radius if top is None else top
        d = rng.randint(-2, 2)
        window = [-radius + d, radius + d, -radius - d, top - d]
        spec = f"--window={window[0]}..{window[1]},{window[2]}..{window[3]}"
        if kind == "verify":
            name = f"verify-all-r{radius}"
            argv = ["verify", "all", spec]
            output = None
        else:
            name = f"{theory}-{pipeline}-r{radius}"
            output = str(BUILD / "charts" / f"{name}.chart")
            argv = ["compute", "--theory", theory, "--pipeline", pipeline,
                    spec, "--output", output]
        jobs.append({"name": name, "kind": kind, "theory": theory,
                     "pipeline": pipeline, "window": window, "argv": argv,
                     "output": output})
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# running jobs
# ---------------------------------------------------------------------------

def job_env() -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_job(job: dict, trace: bool, env: dict, deadline: float) -> dict:
    spec = dict(job, src=str(SRC), trace=trace)
    t_spawn = now()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "job.py"), json.dumps(spec)],
                              capture_output=True, text=True, env=env, cwd=ROOT,
                              timeout=max(1.0, deadline - t_spawn))
    except subprocess.TimeoutExpired:
        return {"name": job["name"], "rc": None, "wall_s": now() - t_spawn,
                "problems": [f"killed at the {RUN_LIMIT_S} s run limit"]}
    out = {"name": job["name"], "rc": proc.returncode, "wall_s": now() - t_spawn,
           "problems": []}
    lines = proc.stdout.splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        tail = proc.stderr.strip().splitlines()[-3:]
        out["problems"].append(f"no job report (exit {proc.returncode}): "
                               + " | ".join(tail))
        return out
    out["text"] = "\n".join(lines[:-1])
    out["setup_s"] = report["t_ready"] - t_spawn
    out["compute_s"] = report["compute_s"]
    out["rss_mb"] = report["maxrss_kb"] / 1024
    for key in ("layers", "spans", "missing"):
        if key in report:
            out[key] = report[key]
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-3:]
        out["problems"].append(f"exit code {proc.returncode}: " + " | ".join(tail))
    return out


def reference_work() -> int:
    """A fixed pure-Python loop, independent of roqcharts (about 5 ms on
    the machine in README.md), that gauges the host's speed."""
    counts: dict[tuple, int] = {}
    for i in range(15000):
        key = (i % 97, i % 89)
        counts[key] = counts.get(key, 0) + i * i % 7
    return sum(counts.values())


def gauge_host(budget_s: float) -> list[float]:
    """Times of reference_work run back to back for budget_s, at least twice."""
    times: list[float] = []
    end = now() + budget_s
    while len(times) < 2 or now() < end:
        t0 = now()
        reference_work()
        times.append(now() - t0)
    return times


def run_pass(jobs: list[dict], trace: bool, env: dict, deadline: float) -> dict:
    """Run every job once.  After each job the host is gauged for a
    GAUGE_SHARE of that job's time, outside the pass time; gauge_s holds
    one block of reference_work times per job."""
    for job in jobs:
        if job["output"] and os.path.exists(job["output"]):
            os.remove(job["output"])
    outs, gauge = [], []
    for job in jobs:
        outs.append(run_job(job, trace, env, deadline))
        gauge.append(gauge_host(GAUGE_SHARE * outs[-1]["wall_s"]))
    return {"wall_s": sum(out["wall_s"] for out in outs), "trace": trace,
            "jobs": outs, "gauge_s": gauge}


# ---------------------------------------------------------------------------
# correctness gate (outside the timed region)
# ---------------------------------------------------------------------------

class Gate:
    def __init__(self):
        from roqcharts import chartio, grading
        self.chartio, self.grading = chartio, grading
        self._verdicts: dict[tuple, list[str]] = {}

    def check(self, job: dict, out: dict) -> None:
        """Append to out["problems"] everything wrong with the job's output."""
        problems = out["problems"]
        if "text" not in out:
            return
        if job["kind"] == "verify":
            data = out["text"].encode()
            verdict = out["text"].splitlines()[-1:]
            if verdict != [VERIFY_PASS]:
                problems.append(f"verify verdict {verdict}")
            out["checks_run"] = sum(1 for line in out["text"].splitlines()
                                    if line.startswith(("ok ", "FAIL ")))
        else:
            try:
                with open(job["output"], "rb") as fh:
                    data = fh.read()
            except OSError as e:
                problems.append(f"no chart written: {e}")
                return
            out["checks_run"] = 0
        out["sha256"] = hashlib.sha256(data).hexdigest()
        if job["kind"] == "compute":
            # the verdict depends only on the job and the chart bytes
            key = (job["name"], out["sha256"])
            if key not in self._verdicts:
                self._verdicts[key] = self.check_chart(job, data)
            problems += self._verdicts[key]
        layers = out.get("layers")
        if layers:
            for key in ("specseq.candidates_found", "theories.bockstein_candidates"):
                if layers[key]:
                    problems.append(f"{key} = {layers[key]}, expected an empty list")

    def check_chart(self, job: dict, data: bytes) -> list[str]:
        try:
            chart = self.chartio.parse(data.decode())
        except (UnicodeDecodeError, self.chartio.ChartParseError) as e:
            return [f"chart does not parse: {e}"]
        problems = []
        window = self.grading.Window(*job["window"])
        if chart.window != window:
            problems.append(f"chart window {chart.window} is not {window}")
        closed = (self.grading.closed_form_hz if job["theory"] == "hz"
                  else self.grading.closed_form_kr)(window)
        report = self.chartio.diff(chart, closed)
        if not report.clean:
            problems.append("differs from the closed form: "
                            + report.summary().splitlines()[0])
        return problems


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def spread(values: list[float]) -> dict:
    """Mean, median, quartiles and sample count."""
    if len(values) >= 2:
        q1, q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q2 = q3 = values[0]
    return {"mean": statistics.fmean(values), "median": statistics.median(values),
            "q1": q1, "q3": q3, "n": len(values)}


def end_to_end(passes: list[dict], attempted: int, failed: int) -> tuple[dict, dict]:
    """Host-corrected times, median memory, and the share of good jobs.

    This shared host's speed drifts by a third over minutes, and the
    slowdown hits process CPU time as much as wall time.  Every time is
    therefore scaled by REFERENCE_S over the mean time of reference_work
    gauged between the run's jobs: it reads as seconds on a host where
    that loop takes REFERENCE_S.  The loop does not depend on roqcharts,
    so a change to the program moves the scaled time as it moves the
    measured one.

    Pass times are means over passes, not medians: the host also
    switches between a fast and a slow mode for seconds at a time, and
    the median of bimodal pass times jumps from one mode to the other
    as the share of slow passes crosses a half, where the mean moves in
    proportion to it.  Set-up time is the median over every job.  Jobs
    that failed before reporting add nothing.
    """
    samples = {
        "wall_s": [p["wall_s"] for p in passes],
        "compute_s": [sum(j.get("compute_s", 0.0) for j in p["jobs"]) for p in passes],
        "setup_s": [j["setup_s"] for p in passes for j in p["jobs"] if "setup_s" in j]
                   or [0.0],
        "peak_rss_mb": [max(j.get("rss_mb", 0.0) for j in p["jobs"]) for p in passes],
        "host_gauge_s": [t for p in passes for block in p["gauge_s"] for t in block],
    }
    stats = {k: spread(v) for k, v in samples.items()}
    host_factor = REFERENCE_S / stats["host_gauge_s"]["mean"]
    metrics = {
        "wall_s": stats["wall_s"]["mean"] * host_factor,
        "compute_s": stats["compute_s"]["mean"] * host_factor,
        "setup_s": stats["setup_s"]["median"] * host_factor,
        "peak_rss_mb": stats["peak_rss_mb"]["median"],
        "ok_frac": (attempted - failed) / attempted,
    }
    stats["host_factor"] = host_factor
    return metrics, stats


def pass_layers(p: dict) -> dict:
    """Per-layer totals over the jobs of one traced pass."""
    total: dict[str, float] = {}
    for j in p["jobs"]:
        for k, v in j.get("layers", {}).items():
            total[k] = total.get(k, 0) + v
        total["cli.checks_run"] = total.get("cli.checks_run", 0) + j.get("checks_run", 0)
    return total


def per_layer(base: dict, traced: list[dict]) -> dict:
    layers = [pass_layers(p) for p in traced]
    metrics = {k: layers[0].get(k, 0) for k in COUNT_METRICS}
    for k in TIME_METRICS:
        metrics[k] = statistics.median(lay.get(k, 0.0) for lay in layers)
    metrics["trace.overhead_frac"] = (
        statistics.median(p["wall_s"] for p in traced) / base["wall_s"] - 1)
    metrics["trace.stage_coverage"] = statistics.median(
        lay.get("trace.covered_s", 0.0) / lay["trace.root_s"]
        if lay.get("trace.root_s") else 0.0 for lay in layers)
    return metrics


def count_mismatches(first: dict, second: dict) -> list[str]:
    """Count metrics that differ between two traced runs of one job."""
    a, b = first.get("layers", {}), second.get("layers", {})
    return [f"{k}: {a.get(k)} then {b.get(k)}" for k in COUNT_METRICS
            if a.get(k) != b.get(k)]


# ---------------------------------------------------------------------------
# run context
# ---------------------------------------------------------------------------

def git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving it."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def context(args, workload: str, jobs: list[dict]) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "jobs": [{"name": j["name"], "window": j["window"]} for j in jobs],
    }


# ---------------------------------------------------------------------------

def parse_args(argv=None):
    p = argparse.ArgumentParser(description="roqcharts benchmark")
    p.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], required=True,
                   help="one workload, or all of them in turn")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def prepare() -> dict:
    """Check for the source tree and compile its byte code once."""
    if not (SRC / "roqcharts" / "__init__.py").is_file():
        sys.exit(f"error: no roqcharts package under {SRC}; run from the root "
                 "of a roqcharts checkout")
    (BUILD / "charts").mkdir(parents=True, exist_ok=True)
    # byte code goes to the usual __pycache__ directories, written even
    # where PYTHONDONTWRITEBYTECODE is set, so no job compiles the package
    import compileall
    if not compileall.compile_dir(str(SRC), quiet=1):
        sys.exit("error: the package does not compile")
    sys.path.insert(0, str(SRC))
    return job_env()


def run_workload(args, workload: str, env: dict, gate: Gate,
                 deadline: float) -> dict:
    """Measure one workload, print its summary and return its result."""
    jobs = make_jobs(workload, args.seed)
    by_name = {j["name"]: j for j in jobs}
    passes = []

    def measure(trace: bool) -> None:
        p = run_pass(jobs, trace, env, deadline)
        for out in p["jobs"]:
            gate.check(by_name[out["name"]], out)
        passes.append(p)

    if args.trace:
        for trace in (False, True, True):
            measure(trace)
        for first, second in zip(passes[1]["jobs"], passes[2]["jobs"]):
            mismatches = count_mismatches(first, second)
            if mismatches:
                second["problems"].append("counts differ between traced passes: "
                                          + "; ".join(mismatches))
    else:
        # add passes while one more, at the mean pass time, brings the
        # measured time closer to --seconds
        measured = 0.0
        while not passes or (measured * (1 + 0.5 / len(passes)) < args.seconds
                             and now() < deadline):
            measure(False)
            measured += passes[-1]["wall_s"]

    all_jobs = [out for p in passes for out in p["jobs"]]
    attempted = len(all_jobs)
    failed = sum(1 for out in all_jobs if out["problems"])
    if args.trace:
        metrics, stats = per_layer(passes[0], passes[1:]), {}
    else:
        metrics, stats = end_to_end(passes, attempted, failed)

    hashes = {out["name"]: out.get("sha256") for out in passes[0]["jobs"]}
    digest = hashlib.sha256(json.dumps(sorted(hashes.items())).encode()).hexdigest()
    stem = f"{workload}-seed{args.seed}-trace{args.trace}"
    details = {
        "context": context(args, workload, jobs), "metrics": metrics,
        "stats": stats, "failed_frac": failed / attempted,
        "output_sha256": hashes, "outputs_digest": digest,
        "passes": [{"wall_s": p["wall_s"], "trace": p["trace"], "gauge_s": p["gauge_s"],
                    "jobs": [{k: v for k, v in out.items()
                              if k not in ("text", "spans")} for out in p["jobs"]]}
                   for p in passes],
    }
    with open(BUILD / f"{stem}.json", "w") as fh:
        json.dump(details, fh, indent=1)
    if args.trace:
        spans = [{"pass": i, "job": out["name"], "spans": out.get("spans", [])}
                 for i, p in enumerate(passes) if p["trace"] for out in p["jobs"]]
        with open(BUILD / f"{stem}-spans.json", "w") as fh:
            json.dump(spans, fh)

    for out in all_jobs:
        for problem in out["problems"]:
            print(f"FAIL {out['name']}: {problem}")
    missing = sorted({m for out in all_jobs for m in out.get("missing", [])})
    if missing:
        print("tracer targets the package no longer has (their metrics read 0): "
              + ", ".join(missing))
    print(f"workload {workload}, seed {args.seed}, {len(passes)} passes, "
          f"{attempted} jobs, failed_frac {failed / attempted:.3f}, "
          f"python {platform.python_version()}, nproc {os.cpu_count()}")
    for name, value in metrics.items():
        line = f"  {name}: {value:.6g} {unit_of(name)}"
        if name in stats:
            s = stats[name]
            line += (f" (measured: mean {s['mean']:.6g}, median {s['median']:.6g}, "
                     f"q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={s['n']})")
        print(line)
    if "host_factor" in stats:
        g = stats["host_gauge_s"]
        print(f"  host gauge: reference_work mean {g['mean'] * 1e3:.4g} ms, "
              f"median {g['median'] * 1e3:.4g} ms, n={g['n']}; the times above are "
              f"measured x {stats['host_factor']:.4g}")
    print(f"  outputs sha256 digest {digest}")
    print(f"  details in {(BUILD / stem).relative_to(ROOT)}.json")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}}


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = now() + RUN_LIMIT_S
    env = prepare()
    gate = Gate()
    if args.workload != "all":
        print(json.dumps(run_workload(args, args.workload, env, gate, deadline)))
        return 0
    results = {w: run_workload(args, w, env, gate, deadline) for w in WORKLOADS}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{k}": v for w, r in results.items()
                    for k, v in r["metrics"].items()}}))
    return 0



if __name__ == "__main__":
    sys.exit(main())
