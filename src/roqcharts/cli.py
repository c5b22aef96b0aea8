"""Command-line entry point.

Subcommands: compute (run a pipeline and write a chart document),
verify (run the invariant suites), render (chart document to SVG or
text), diff (compare two chart documents).  Exit codes: 0 success,
1 verification or diff failure, 2 usage error.  Configuration is flags
only; nothing is read from the environment.
"""

from __future__ import annotations

import argparse
import sys

from . import chartio
from .grading import Chart, Window, closed_form_hz, closed_form_kr
from .cells import cellular_chart_hz, quotient_row_check
from .tate import TateSquareData
from .theories import (TheorySeed, connectivity_check, gap_check, hz_seed,
                       kr_seed, run_bockstein, run_tate_pipeline, inject_class)
from .chartio import diff as chart_diff


class CandidatesRemainError(Exception):
    """A pipeline left differential candidates it cannot rule out."""


VALID_PIPELINES = {
    "hz": ("cells", "tate", "closed"),
    "kr": ("tate", "bockstein", "closed"),
}


def _parse_window(spec: str) -> Window:
    """-12..12 for a square window, or -12..12,-4..8 for x and y ranges."""
    def span(s: str) -> tuple[int, int]:
        lo, sep, hi = s.partition("..")
        if not sep:
            raise ValueError(f"bad range {s!r}")
        return int(lo), int(hi)

    parts = spec.split(",")
    if len(parts) not in (1, 2):
        raise ValueError(f"bad window {spec!r}")
    (xlo, xhi), (ylo, yhi) = span(parts[0]), span(parts[-1])
    if xlo > xhi or ylo > yhi:
        raise ValueError(f"empty window {spec!r}")
    return Window(xlo, xhi, ylo, yhi)


def _positive_int(s: str) -> int:
    if not s.lstrip("-").isdigit() or int(s) < 1:
        raise argparse.ArgumentTypeError(f"must be an integer of at least 1, not {s!r}")
    return int(s)


def _seed(theory: str):
    return hz_seed() if theory == "hz" else kr_seed()


def _compute(theory: str, pipeline: str, window: Window, padding: int,
             threads: int) -> "chartio.Chart":
    if pipeline == "closed":
        return closed_form_hz(window) if theory == "hz" else closed_form_kr(window)
    if pipeline == "cells":
        return cellular_chart_hz(window, threads=threads)
    if pipeline == "tate":
        return run_tate_pipeline(_seed(theory), window, padding=padding).genuine
    if pipeline == "bockstein":
        res = run_bockstein(window, padding=padding)
        if res.candidates:
            raise CandidatesRemainError(f"surviving higher differential candidates: "
                                        f"{res.candidates[:3]}")
        return res.chart
    raise ValueError(pipeline)


def cmd_compute(args) -> int:
    if args.pipeline not in VALID_PIPELINES[args.theory]:
        print(f"error: pipeline {args.pipeline!r} is not available for theory "
              f"{args.theory!r} (choose from {VALID_PIPELINES[args.theory]})",
              file=sys.stderr)
        return 2
    window = _parse_window(args.window)
    try:
        chart = _compute(args.theory, args.pipeline, window, args.padding, args.threads)
        again = None
        if args.paranoid and args.pipeline in ("tate", "bockstein"):
            again = _compute(args.theory, args.pipeline, window, 2 * args.padding,
                             args.threads)
    except CandidatesRemainError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if again is not None:
        rep = chart_diff(chart, again)
        if not rep.clean:
            print("paranoid check failed: doubled padding changed the chart",
                  file=sys.stderr)
            print(rep.summary(), file=sys.stderr)
            return 1
    text = chartio.serialize(chart)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _verify_closed(title: str, check, closed: dict[str, Chart], report) -> None:
    for name, chart in closed.items():
        rep = check(chart)
        report(f"{title} {name}", rep.passed,
               "" if rep.passed else f"violations {rep.violations[:3]}")


# fixed window of the negative and mutation controls, whatever the user's
_CONTROL_WINDOW = Window.square(4)


def _verify_connectivity(hz: TheorySeed, closed: dict[str, Chart], report) -> None:
    _verify_closed("connectivity", connectivity_check, closed, report)
    # negative control: an a-periodic chart must fail the first clause
    tate = run_tate_pipeline(hz, _CONTROL_WINDOW, padding=2).tate
    rep = connectivity_check(tate)
    report("connectivity negative control (tate chart fails)", not rep.passed, "")


def _verify_cross(window: Window, padding: int, squares: dict[str, TateSquareData],
                  closed: dict[str, Chart], report) -> None:
    def compare(name: str, chart, reference, candidates: list) -> None:
        rep = chart_diff(chart, reference)
        if candidates:
            report(name, False, "surviving candidate (r, degree, source, target) "
                                f"{candidates[0]}, {len(candidates)} in all")
        else:
            report(name, rep.clean, "" if rep.clean else rep.summary().splitlines()[0])

    compare("hz cells == closed", cellular_chart_hz(window), closed["hz"], [])
    compare("hz tate == closed", squares["hz"].genuine, closed["hz"], [])
    compare("kr tate == closed", squares["kr"].genuine, closed["kr"], [])
    bss = run_bockstein(window, padding=padding)
    compare("kr bockstein == closed", bss.chart, closed["kr"], bss.candidates)
    rows = all(quotient_row_check(n) for n in range(1, max(2, window.ymax)))
    report("hz quotient rows", rows, "")


def _verify_axis(name: str, chart, xs: range, want: list[str], report) -> None:
    """Compare the x-axis groups at xs with want inside the chart's window."""
    seen = [(x, w) for x, w in zip(xs, want) if chart.window.contains((x, 0))]
    got = [str(chart.group((x, 0))) for x, _ in seen]
    report(name, got == [w for _, w in seen], f"x in {[x for x, _ in seen]}: {got}")


def _verify_axes(squares: dict[str, TateSquareData], report) -> None:
    hz, kr = squares["hz"], squares["kr"]
    _verify_axis("hz fixed-point negative axis Z,0,Z/2,...", hz.hfp, range(0, -7, -1),
                 ["Z", "0", "Z/2", "0", "Z/2", "0", "Z/2"], report)
    _verify_axis("kr fixed-point positive axis = ko", kr.hfp, range(0, 9),
                 ["Z", "Z/2", "Z/2", "0", "Z", "0", "0", "0", "Z"], report)
    _verify_axis("kr fixed-point negative axis, codegree 4", kr.hfp, range(0, -9, -1),
                 ["Z", "0", "0", "0", "Z/2", "0", "0", "0", "Z/2"], report)
    for name, data, step in (("hz", hz, 2), ("kr", kr, 4)):
        t = data.tate
        on_steps = {t.group(d) for d in t.window.degrees() if d[0] % step == 0}
        good = len(on_steps) <= 1 and all(t.group(d).is_zero() for d in t.window.degrees()
                                          if d[0] % step)
        report(f"{name} tate periodic pattern", good, "")
        p = data.phi
        goodp = all((not p.group(d).is_zero()) == (d[0] >= 0 and d[0] % step == 0)
                    for d in p.window.degrees())
        report(f"{name} geometric fixed points pattern", goodp, "")


def cmd_verify(args) -> int:
    window = _parse_window(args.window)
    failures = []

    def report(name: str, passed: bool, detail: str):
        status = "ok" if passed else "FAIL"
        line = f"{status:4} {name}"
        if detail and not passed:
            line += f": {detail}"
        print(line)
        if not passed:
            failures.append(name)

    scope = args.scope
    hz = hz_seed()
    if scope in ("all", "cross", "axes"):
        squares = {seed.name: run_tate_pipeline(seed, window, padding=args.padding)
                   for seed in (hz, kr_seed())}
    if scope in ("all", "gap", "connectivity", "cross"):
        closed = {"hz": closed_form_hz(window), "kr": closed_form_kr(window)}
    if scope in ("all", "gap"):
        _verify_closed("gap", gap_check, closed, report)
    if scope in ("all", "connectivity"):
        _verify_connectivity(hz, closed, report)
    if scope in ("all", "cross"):
        _verify_cross(window, args.padding, squares, closed, report)
    if scope in ("all", "axes"):
        _verify_axes(squares, report)
    if scope == "all":
        # mutation sanity: an injected class must be caught with its degree
        mutated = inject_class(closed_form_hz(_CONTROL_WINDOW), (-1, 1))
        rep = gap_check(mutated)
        caught = (not rep.passed) and rep.violations[0][0] == (-1, 1)
        report("mutation control (gap check catches (-1,1))", caught, "")
    print(f"{'PASS' if not failures else 'FAIL'}: {len(failures)} failing checks")
    return 1 if failures else 0


def cmd_render(args) -> int:
    if args.chart == "-":
        chart = chartio.parse(sys.stdin.read())
    else:
        with open(args.chart) as fh:
            chart = chartio.parse(fh.read())
    data = chartio.render(chart, args.format)
    if args.output:
        with open(args.output, "wb") as fh:
            fh.write(data)
    else:
        sys.stdout.buffer.write(data)
    return 0


def cmd_diff(args) -> int:
    with open(args.a) as fh:
        a = chartio.parse(fh.read())
    with open(args.b) as fh:
        b = chartio.parse(fh.read())
    rep = chart_diff(a, b)
    print(rep.summary())
    return 0 if rep.clean else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="roqcharts",
                                description="RO(Q)-graded coefficient charts "
                                            "by four cross-validating pipelines")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compute", help="run a pipeline and write a chart document")
    c.add_argument("--theory", choices=("hz", "kr"), required=True)
    c.add_argument("--pipeline", choices=("cells", "tate", "bockstein", "closed"),
                   required=True)
    c.add_argument("--window", default="-12..12")
    c.add_argument("--padding", type=_positive_int, default=4)
    c.add_argument("--threads", type=_positive_int, default=1)
    c.add_argument("--paranoid", action="store_true",
                   help="recompute with doubled padding and require identity")
    c.add_argument("--output", default=None)
    c.set_defaults(func=cmd_compute)

    v = sub.add_parser("verify", help="run the invariant suites")
    v.add_argument("scope", choices=("all", "gap", "connectivity", "cross", "axes"))
    v.add_argument("--window", default="-12..12")
    v.add_argument("--padding", type=_positive_int, default=4)
    v.set_defaults(func=cmd_verify)

    r = sub.add_parser("render", help="render a chart document")
    r.add_argument("chart")
    r.add_argument("--format", choices=("svg", "text"), default="svg")
    r.add_argument("--output", default=None)
    r.set_defaults(func=cmd_render)

    d = sub.add_parser("diff", help="compare two chart documents")
    d.add_argument("a")
    d.add_argument("b")
    d.set_defaults(func=cmd_diff)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0,) else 0
    try:
        return args.func(args)
    except (ValueError, OSError, chartio.ChartParseError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
