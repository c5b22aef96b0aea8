"""The command-line contract: exit codes, documents, golden renders."""

import argparse
import os
import pathlib
import runpy
import subprocess
import sys

import pytest

import roqcharts
from roqcharts import cells, cli
from roqcharts.chartio import diff as chart_diff, parse
from roqcharts.cli import _parse_window, _verify_axes, build_parser, main
from roqcharts.grading import ChartMap, Window, closed_form_hz, closed_form_kr
from roqcharts.tate import TateSquareData
from roqcharts.theories import (BocksteinResult, BssClass, CheckReport, hz_seed,
                                inject_class, kr_seed, run_tate_pipeline)

HERE = pathlib.Path(__file__).parent


def run_child(*args):
    """A child interpreter that imports the package under test."""
    src = str(pathlib.Path(roqcharts.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    return proc.returncode, proc.stdout, proc.stderr


def run_cli(*args):
    """The CLI in a child process that imports the package under test."""
    return run_child("-m", "roqcharts.cli", *args)


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # both cost set-up time on every run; pytest imports them itself, so
    # only a fresh interpreter shows what the package pulls in
    code, out, err = run_child("-c", "import sys, roqcharts.cli; print(sorted("
                               "{'dataclasses', 'inspect'} & set(sys.modules)))")
    assert (code, out, err) == (0, "[]\n", "")


def test_benchmark_tracer_finds_every_target():
    # the benchmark wraps package functions by name and reads 0 for any
    # it cannot find; a refactor that renames one must fail here instead
    code, out, err = run_child(
        "-c", "import sys; from roqcharts import cli; "
        f"sys.path.insert(0, {str(HERE.parent / 'perfbench')!r}); "
        "from tracer import Tracer; print(Tracer().install().missing)")
    assert (code, out, err) == (0, "[]\n", "")


def test_invalid_pipeline_combination_is_usage_error():
    code, _, err = run_cli("compute", "--theory", "hz",
                           "--pipeline", "bockstein", "--window=-2..2")
    assert code == 2
    assert "not available" in err
    code, _, _ = run_cli("compute", "--theory", "kr",
                         "--pipeline", "cells", "--window=-2..2")
    assert code == 2


def test_unknown_flags_are_usage_errors():
    assert main(["compute", "--theory", "hz"]) == 2
    assert main(["frobnicate"]) == 2


def test_cli_surface_is_pinned():
    # every option and positional of every subcommand: adding a knob is a
    # test edit; the window is the only input of the pipelines
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    surface = {name: ({s for a in p._actions for s in a.option_strings},
                      [a.dest for a in p._actions if not a.option_strings])
               for name, p in sub.choices.items()}
    assert surface == {
        "compute": ({"-h", "--help", "--theory", "--pipeline", "--window", "--threads",
                     "--output"}, []),
        "verify": ({"-h", "--help", "--window"}, ["scope"]),
        "render": ({"-h", "--help", "--format", "--output"}, ["chart"]),
        "diff": ({"-h", "--help"}, ["a", "b"]),
    }
    for args, flag in ((("compute", "--theory", "kr", "--pipeline", "tate",
                         "--padding", "4"), "--padding 4"),
                       (("compute", "--theory", "kr", "--pipeline", "bockstein",
                         "--paranoid"), "--paranoid"),
                       (("verify", "cross", "--padding", "4"), "--padding 4")):
        code, out, err = run_cli(*args, "--window=-2..2")
        assert (code, out) == (2, ""), args
        assert [line for line in err.splitlines() if "error" in line] == \
            [f"roqcharts: error: unrecognized arguments: {flag}"]


def test_numbers_take_a_plus_sign(tmp_path):
    out = tmp_path / "hz.chart"
    assert main(["compute", "--theory", "hz", "--pipeline", "cells", "--threads", "+2",
                 "--window=-2..+2", "--output", str(out)]) == 0
    assert parse(out.read_text()).window == Window.square(2)


def test_malformed_range_is_named(capsys):
    for spec, bad in (("a..b", "a..b"), ("-2..2,1..x", "1..x"), ("3", "3"), ("..", "..")):
        assert main(["compute", "--theory", "hz", "--pipeline", "closed",
                     f"--window={spec}"]) == 2
        assert capsys.readouterr() == ("", f"error: bad range {bad!r}\n"), spec


def test_compute_writes_parseable_document(tmp_path):
    out = tmp_path / "hz.chart"
    assert main(["compute", "--theory", "hz", "--pipeline", "cells",
                 "--window=-4..4", "--output", str(out)]) == 0
    chart = parse(out.read_text())
    assert chart.group((0, 0)).rank == 1
    assert chart.window.xmin == -4


def test_compute_matches_golden_document(tmp_path):
    out = tmp_path / "hz6.chart"
    assert main(["compute", "--theory", "hz", "--pipeline", "closed",
                 "--window=-6..6", "--output", str(out)]) == 0
    assert out.read_text() == (HERE / "golden" / "hz_closed_6.chart").read_text()


def test_render_matches_golden_text(tmp_path):
    chart = tmp_path / "kr6.chart"
    assert main(["compute", "--theory", "kr", "--pipeline", "closed",
                 "--window=-6..6", "--output", str(chart)]) == 0
    rendered = tmp_path / "kr6.txt"
    assert main(["render", str(chart), "--format", "text",
                 "--output", str(rendered)]) == 0
    assert rendered.read_bytes() == \
        (HERE / "golden" / "kr_closed_6_text.txt").read_bytes()


def test_render_svg_bytes_deterministic_across_threads(tmp_path):
    outs = []
    for threads in ("1", "4"):
        chart = tmp_path / f"hz_{threads}.chart"
        assert main(["compute", "--theory", "hz", "--pipeline", "cells",
                     "--window=-6..6", "--threads", threads,
                     "--output", str(chart)]) == 0
        svg = tmp_path / f"hz_{threads}.svg"
        assert main(["render", str(chart), "--output", str(svg)]) == 0
        outs.append(svg.read_bytes())
    assert outs[0] == outs[1]


def test_diff_exit_codes(tmp_path):
    a = tmp_path / "a.chart"
    b = tmp_path / "b.chart"
    main(["compute", "--theory", "hz", "--pipeline", "closed",
          "--window=-3..3", "--output", str(a)])
    main(["compute", "--theory", "kr", "--pipeline", "closed",
          "--window=-3..3", "--output", str(b)])
    assert main(["diff", str(a), str(a)]) == 0
    assert main(["diff", str(a), str(b)]) == 1


def test_diff_of_disjoint_windows_exits_one_without_traceback(tmp_path):
    a = tmp_path / "a.chart"
    b = tmp_path / "b.chart"
    for path, window in ((a, "--window=0..2"), (b, "--window=5..7")):
        main(["compute", "--theory", "hz", "--pipeline", "closed", window,
              "--output", str(path)])
    code, out, err = run_cli("diff", str(a), str(b))
    assert (code, err) == (1, "")
    assert out == ("windows [0..2]x[0..2] and [5..7]x[5..7] do not overlap; "
                   "nothing compared\n")


def test_mutated_document_fails_cross_diff(tmp_path):
    a = tmp_path / "a.chart"
    main(["compute", "--theory", "hz", "--pipeline", "closed",
          "--window=-3..3", "--output", str(a)])
    text = a.read_text()
    mutated = text.replace("entry: 0 0 | rank 1 torsion - | 1:square",
                           "entry: 0 0 | rank 0 torsion 2 | 1:dot")
    b = tmp_path / "b.chart"
    b.write_text(mutated)
    code, out, _ = run_cli("diff", str(a), str(b))
    assert code == 1
    assert "(0, 0)" in out


def test_verify_subsets(tmp_path):
    assert main(["verify", "gap", "--window=-6..6"]) == 0
    assert main(["verify", "connectivity", "--window=-5..5"]) == 0


def test_bockstein_surviving_candidates_exit_1_without_traceback():
    # windows reaching row 16 keep d_5 candidates between dual towers
    code, out, err = run_cli("compute", "--theory", "kr", "--pipeline", "bockstein",
                             "--window=-16..16")
    assert code == 1
    assert out == ""
    assert err == ("error: surviving higher differential candidates: [(5, (-5, 16), "
                   "BssClass(floor=0, desc=('utow', 2, 16), index2=False), "
                   "BssClass(floor=5, desc=('utow', 5, 11), index2=False))]\n")
    # a high window keeps longer ones: the search covers every floor read
    code, out, err = run_cli("compute", "--theory", "kr", "--pipeline", "bockstein",
                             "--window=-8..0,32..40")
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: surviving higher differential candidates: [(13, (-5, 32), "
                          "BssClass(floor=0, desc=('utow', 2, 32), index2=False), "
                          "BssClass(floor=13, desc=('utow', 9, 19), index2=False)), ")


def test_verify_cross_names_the_first_bockstein_candidate(monkeypatch, capsys):
    source = BssClass(0, ("usq", 0), False, 0)
    planted = (3, (0, 0), source, BssClass(3, source.desc, source.index2, source.order))
    monkeypatch.setattr("roqcharts.cli.run_bockstein", lambda window:
                        BocksteinResult(closed_form_kr(window), [], [planted]))
    assert main(["verify", "cross", "--window=-2..2"]) == 1
    fails = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("FAIL ")]
    assert fails[0] == ("FAIL kr bockstein == closed: surviving candidate "
                        f"(r, degree, source, target) {planted}, 1 in all")


def _assert_usage_error(*args):
    code, out, err = run_cli(*args)
    assert code == 2
    assert out == ""
    assert "error:" in err
    assert "Traceback" not in err


def test_empty_window_is_usage_error():
    _assert_usage_error("compute", "--theory", "hz", "--pipeline", "closed",
                        "--window=5..1")


def test_cells_threads_below_one_is_usage_error():
    for threads in ("0", "-3"):
        _assert_usage_error("compute", "--theory", "hz", "--pipeline", "cells",
                            "--threads", threads, "--window=-2..2")


def test_verify_all_on_a_window_off_the_axes(tmp_path):
    # the axis checks read only the axis degrees their charts contain, the
    # mutation control plants its class on its own fixed window, the Tate
    # square pads its fixed-point window out to the integer line, and the
    # Bockstein run needs no floor above 0 left of the antidiagonal
    for spec in ("3..3", "-8..-6", "-12..-9,5..9"):
        assert main(["verify", "all", f"--window={spec}"]) == 0, spec
        window = _parse_window(spec)
        for theory, pipeline in (("hz", "tate"), ("kr", "tate"), ("kr", "bockstein")):
            out = tmp_path / f"{theory}-{pipeline}.chart"
            assert main(["compute", "--theory", theory, "--pipeline", pipeline,
                         f"--window={spec}", "--output", str(out)]) == 0, (spec, pipeline)
            closed = (closed_form_hz if theory == "hz" else closed_form_kr)(window)
            assert chart_diff(parse(out.read_text()), closed).clean, (spec, pipeline)


def test_axis_check_fails_on_wrong_in_window_group():
    squares = {seed.name: run_tate_pipeline(seed, Window.square(2))
               for seed in (hz_seed(), kr_seed())}
    hz = squares["hz"]
    loc = ChartMap(inject_class(hz.hfp, (-2, 0)), hz.tate, (0, 0), hz.loc.matrices)
    squares["hz"] = TateSquareData(loc, hz.phi, hz.genuine)
    results = []
    _verify_axes(squares, lambda name, passed, detail: results.append(
        (name, passed, detail)))
    failed = [(name, detail) for name, passed, detail in results if not passed]
    assert failed == [("hz fixed-point negative axis Z,0,Z/2,... "
                       "(3 of 7 axis degrees in the window)",
                       "x in [0, -1, -2]: ['Z', '0', 'Z/2 + Z/2']")]


def test_axis_check_with_no_axis_degree_says_so(capsys):
    # an axis check that compares k of its n axis degrees, k < n, names the
    # count: the fixed points over [-2,2]^2 span x in [-2,3], those over
    # [5,9]^2 start at x = 5, and those over [-12,12]^2 hold every degree
    names = ("hz fixed-point negative axis Z,0,Z/2,...",
             "kr fixed-point positive axis = ko",
             "kr fixed-point negative axis, codegree 4")
    for spec, counts in (("-2..2", ("3 of 7", "4 of 9", "3 of 9")),
                         ("5..9,5..9", ("0 of 7", "4 of 9", "0 of 9")),
                         ("-12..12", None)):
        main(["verify", "axes", f"--window={spec}"])
        lines = capsys.readouterr().out.splitlines()[:3]
        if counts is None:
            assert lines == [f"ok   {n}" for n in names]
        else:
            assert lines == [f"ok   {n} ({c} axis degrees in the window)"
                             for n, c in zip(names, counts)], spec


def _plant_closed(monkeypatch, theory, d):
    """verify's closed-form chart of theory with a spurious class at d."""
    name = f"closed_form_{theory}"
    real = getattr(cli, name)
    monkeypatch.setattr(cli, name, lambda window: inject_class(real(window), d))


def _plant_square(monkeypatch, theory, stage, d):
    """verify's Tate square of theory with a spurious class at d in the
    chart of one stage: hfp, tate, phi or genuine."""
    real = cli.run_tate_pipeline

    def planted(seed, window):
        data = real(seed, window)
        if seed.name == theory:
            setattr(data, stage, inject_class(getattr(data, stage), d))
        return data
    monkeypatch.setattr(cli, "run_tate_pipeline", planted)


# each verify line not driven to FAIL elsewhere, with its narrowest scope
# and one fault that only it catches
VERIFY_PLANTS = [
    ("gap", "gap hz", lambda mp: _plant_closed(mp, "hz", (-1, 1))),
    ("gap", "gap kr", lambda mp: _plant_closed(mp, "kr", (-1, 1))),
    ("connectivity", "connectivity hz", lambda mp: _plant_closed(mp, "hz", (-6, 2))),
    ("connectivity", "connectivity kr", lambda mp: _plant_closed(mp, "kr", (-6, 2))),
    ("connectivity", "connectivity negative control (tate chart fails)",
     lambda mp: mp.setattr(cli, "connectivity_check", lambda chart: CheckReport(True, ()))),
    ("cross", "hz cells == closed", lambda mp: mp.setattr(
        cli, "cellular_chart_hz",
        lambda window: inject_class(cells.cellular_chart_hz(window), (0, 0)))),
    ("cross", "hz tate == closed", lambda mp: _plant_square(mp, "hz", "genuine", (0, 0))),
    ("cross", "kr tate == closed", lambda mp: _plant_square(mp, "kr", "genuine", (0, 0))),
    ("cross", "hz quotient rows", lambda mp: mp.setattr(cells, "rp_cohomology", lambda n: {})),
    ("axes", "kr fixed-point positive axis = ko",
     lambda mp: _plant_square(mp, "kr", "hfp", (1, 0))),
    ("axes", "kr fixed-point negative axis, codegree 4",
     lambda mp: _plant_square(mp, "kr", "hfp", (-1, 0))),
    ("axes", "hz tate periodic pattern", lambda mp: _plant_square(mp, "hz", "tate", (1, 0))),
    ("axes", "kr tate periodic pattern", lambda mp: _plant_square(mp, "kr", "tate", (1, 0))),
    ("axes", "hz geometric fixed points pattern",
     lambda mp: _plant_square(mp, "hz", "phi", (1, 0))),
    ("axes", "kr geometric fixed points pattern",
     lambda mp: _plant_square(mp, "kr", "phi", (1, 0))),
    ("all", "mutation control (gap check catches (-1,1))",
     lambda mp: mp.setattr(cli, "inject_class", lambda chart, d: chart)),
]


@pytest.mark.parametrize("scope, line, plant", VERIFY_PLANTS,
                         ids=[line for _, line, _ in VERIFY_PLANTS])
def test_every_verify_line_fails_on_its_planted_fault(monkeypatch, capsys, scope, line, plant):
    assert main(["verify", scope, "--window=-8..8"]) == 0
    assert f"ok   {line}" in capsys.readouterr().out.splitlines()
    plant(monkeypatch)
    assert main(["verify", scope, "--window=-8..8"]) == 1
    fails = [out for out in capsys.readouterr().out.splitlines() if out.startswith("FAIL ")]
    assert [out.partition(": ")[0] for out in fails] == [f"FAIL {line}"]


def _assert_parse_error(tmp_path, capsys, text, line_no):
    doc = tmp_path / "bad.chart"
    doc.write_text(text)
    for args in (["render", str(doc), "--format", "text"], ["diff", str(doc), str(doc)]):
        assert main(args) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: line {line_no}: ")
        assert len(err.splitlines()) == 1


def test_empty_window_in_document_is_parse_error(tmp_path, capsys):
    _assert_parse_error(tmp_path, capsys,
                        "roqcharts-chart v1\nname: x\nwindow: 5 1 0 0\n", 3)


def test_dot_without_torsion_in_document_is_parse_error(tmp_path, capsys):
    _assert_parse_error(tmp_path, capsys, "roqcharts-chart v1\nname: x\nwindow: -1 1 -1 1\n"
                        "entry: 0 0 | rank 0 torsion 0 | t:dot\n", 4)
    # a zero coefficient is refused before the divisibility chain divides by it
    _assert_parse_error(tmp_path, capsys, "roqcharts-chart v1\nname: x\nwindow: -1 1 -1 1\n"
                        "entry: 0 0 | rank 0 torsion 0,2 | a:dot; b:dot\n", 4)


def test_tracked_renders_are_current(tmp_path):
    # every file under out/ is what scripts/render_charts.py writes now
    script = runpy.run_path(str(HERE.parent / "scripts" / "render_charts.py"))
    assert script["main"](tmp_path) == 0
    tracked = HERE.parent / "out"
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        sorted(p.name for p in tracked.iterdir())
    stale = sorted(path.name for path in tmp_path.iterdir()
                   if path.read_bytes() != (tracked / path.name).read_bytes())
    assert stale == [], f"stale renders {stale}: rerun python3 scripts/render_charts.py"
