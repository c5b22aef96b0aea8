"""The command-line contract: exit codes, documents, golden renders."""

import pathlib
import subprocess
import sys
from dataclasses import replace

from roqcharts.chartio import diff as chart_diff, parse
from roqcharts.cli import _parse_window, _verify_axes, main
from roqcharts.grading import Window, closed_form_hz, closed_form_kr
from roqcharts.theories import (BocksteinResult, BssClass, hz_seed, inject_class,
                                kr_seed, run_tate_pipeline)

HERE = pathlib.Path(__file__).parent


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "roqcharts.cli", *args],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


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


def test_paranoid_compute(tmp_path):
    out = tmp_path / "kr.chart"
    assert main(["compute", "--theory", "kr", "--pipeline", "bockstein",
                 "--window=-4..4", "--paranoid", "--output", str(out)]) == 0


def test_bockstein_surviving_candidates_exit_1_without_traceback():
    # windows reaching row 16 keep d_5 candidates between dual towers
    code, out, err = run_cli("compute", "--theory", "kr", "--pipeline", "bockstein",
                             "--window=-16..16")
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith("error: surviving higher differential candidates: ")
    assert len(err.splitlines()) == 1


def test_verify_cross_names_the_first_bockstein_candidate(monkeypatch, capsys):
    source = BssClass(0, ("usq", 0), False, 0)
    planted = (3, (0, 0), source, replace(source, floor=3))
    monkeypatch.setattr("roqcharts.cli.run_bockstein", lambda window, padding:
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


def test_tate_padding_zero_is_usage_error():
    _assert_usage_error("compute", "--theory", "hz", "--pipeline", "tate",
                        "--padding", "0", "--window=-2..2")


def test_verify_padding_zero_is_usage_error():
    _assert_usage_error("verify", "cross", "--padding", "0", "--window=-3..3")


def test_bockstein_negative_padding_is_usage_error():
    _assert_usage_error("compute", "--theory", "kr", "--pipeline", "bockstein",
                        "--padding", "-50", "--window=-2..2")


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
    squares = {seed.name: run_tate_pipeline(seed, Window.square(1), padding=1)
               for seed in (hz_seed(), kr_seed())}
    hz = squares["hz"]
    squares["hz"] = replace(hz, hfp=inject_class(hz.hfp, (-2, 0)))
    results = []
    _verify_axes(squares, lambda name, passed, detail: results.append(
        (name, passed, detail)))
    failed = [(name, detail) for name, passed, detail in results if not passed]
    assert failed == [("hz fixed-point negative axis Z,0,Z/2,...",
                       "x in [0, -1, -2]: ['Z', '0', 'Z/2 + Z/2']")]


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
