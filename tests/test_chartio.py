"""Serialization round trips, parse errors, rendering, diff laws."""

import random
from xml.etree import ElementTree

import pytest
from hypothesis import given, settings, strategies as st

from roqcharts.cells import cellular_chart_hz
from roqcharts.chartio import ChartParseError, diff, parse, render, serialize
from roqcharts.grading import (Chart, ChartEntry, ChartError, Generator, Window,
                               CIRCLE, DOT, SQUARE, closed_form_hz, closed_form_kr)
from roqcharts.theories import hz_seed, kr_seed, run_bockstein, run_tate_pipeline


def random_chart(rng: random.Random) -> Chart:
    w = Window(rng.randint(-6, 0), rng.randint(1, 6),
               rng.randint(-6, 0), rng.randint(1, 6))
    entries = {}
    for d in w.degrees():
        if rng.random() > 0.25:
            continue
        frees, dot_orders = [], []
        for i in range(rng.randint(1, 3)):
            kind = rng.choice([SQUARE, CIRCLE, DOT])
            if kind == DOT:
                dot_orders.append(rng.choice([2, 2, 4, 8]))
            else:
                frees.append(Generator(f"g{d[0]}_{d[1]}_{i}", kind, 0))
        # two-power orders sorted ascending already form a divisibility
        # chain, which is what the document format records
        dots = [Generator(f"t{d[0]}_{d[1]}_{i}", DOT, o)
                for i, o in enumerate(sorted(dot_orders))]
        entries[d] = ChartEntry(tuple(frees + dots),
                                exact=rng.random() > 0.1)
    return Chart(name=f"rnd{rng.randint(0, 999)}", window=w, entries=entries,
                 maps={})


def test_serialize_parse_round_trip_seeded():
    rng = random.Random(20260809)
    for _ in range(60):
        chart = random_chart(rng)
        back = parse(serialize(chart))
        assert back.entries == chart.entries
        assert back.window == chart.window and back.name == chart.name
        assert serialize(back) == serialize(chart)


def test_closed_form_round_trips():
    for chart in (closed_form_hz(Window.square(8)),
                  closed_form_kr(Window.square(8))):
        back = parse(serialize(chart))
        assert back.entries == chart.entries


def test_empty_chart_is_header_only():
    chart = Chart(name="empty", window=Window.square(2), entries={}, maps={})
    text = serialize(chart)
    assert text.count("\n") == 3
    assert parse(text).entries == {}


def test_small_window_document_record_count():
    # enumerating the closed integral chart on [-2,2]^2 gives five records
    chart = closed_form_hz(Window.square(2))
    assert sorted(chart.entries) == [(-2, 2), (0, -2), (0, -1), (0, 0), (2, -2)]
    assert serialize(chart).count("entry: ") == 5


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ChartParseError) as e1:
        parse("nonsense")
    assert e1.value.line_no == 1
    bad = ("roqcharts-chart v1\nname: x\nwindow: 0 1 0 1\n"
           "entry: 0 0 | rank one torsion - | g:square\n")
    with pytest.raises(ChartParseError) as e2:
        parse(bad)
    assert e2.value.line_no == 4
    with pytest.raises(ChartParseError):
        parse("roqcharts-chart v1\nname: x\nwindow: 0 1 0 1\n"
              "entry: 0 0 | rank 0 torsion 2 | g:dot; h:dot\n")
    # torsion must be in invariant-factor normal form: each coefficient at
    # least 2 and dividing the next
    for torsion, gens in (("1", "g:dot"), ("2,3", "g:dot; h:dot"),
                          ("4,2", "g:dot; h:dot"), ("0,2", "g:dot; h:dot")):
        with pytest.raises(ChartParseError) as e3:
            parse("roqcharts-chart v1\nname: x\nwindow: 0 1 0 1\n\n"
                  f"entry: 0 0 | rank 0 torsion {torsion} | {gens}\n")
        assert e3.value.line_no == 5, torsion
    # nothing is silently dropped: a second entry at one degree, an
    # unknown entry flag, and a repeated header are each an error; an
    # entry outside the window is reported at its own line, also when the
    # window header comes after it
    head = "roqcharts-chart v1\nname: x\nwindow: 0 1 0 1\n"
    for doc, line_no in (
            (head + "entry: 0 0 | rank 1 torsion - | g:square\n"
                    "entry: 0 0 | rank 0 torsion 2 | h:dot\n", 5),
            (head + "entry: 0 0 | rank 1 torsion - | g:square | inexakt\n", 4),
            (head + "name: y\n", 4),
            (head + "window: 0 2 0 2\n", 4),
            ("roqcharts-chart v1\nname: x\n"
             "entry: 0 0 | rank 1 torsion - | g:square\n"
             "entry: 1 1 | rank 0 torsion 2 | h:dot\n"
             "entry: 5 5 | rank 1 torsion - | k:square\n"
             "window: 0 1 0 1\n", 5)):
        with pytest.raises(ChartParseError) as e4:
            parse(doc)
        assert e4.value.line_no == line_no, doc


_small_ints = st.integers(min_value=-2, max_value=9)


@given(rank=_small_ints, torsion=st.lists(_small_ints, max_size=3),
       gens=st.lists(st.tuples(st.sampled_from(["g", "2 u", "a:b", "| x", "", "x; y"]),
                               st.sampled_from([SQUARE, CIRCLE, DOT, "tri"])),
                     min_size=1, max_size=4))
@settings(max_examples=300, deadline=None)
def test_parse_reads_an_entry_line_or_names_its_line(rank, torsion, gens):
    # any entry line either parses to a chart that serialize writes back
    # byte for byte, or is refused with a ChartParseError at its line
    doc = ("roqcharts-chart v1\nname: x\nwindow: 0 1 0 1\n"
           f"entry: 0 0 | rank {rank} torsion {','.join(map(str, torsion)) or '-'} | "
           + "; ".join(f"{label}:{glyph}" for label, glyph in gens) + "\n")
    try:
        chart = parse(doc)
    except ChartParseError as e:
        assert e.line_no == 4
        return
    assert serialize(chart) == doc


def _one_entry_chart(*labels: str, name: str = "c", at=(0, 0)) -> Chart:
    gens = tuple(Generator(label, SQUARE) for label in labels)
    return Chart(name, Window.square(1), {at: ChartEntry(gens)}, {})


@pytest.mark.parametrize("labels", [("x; y",), ("g", "x | y"), ("x |", "| y"),
                                    ("x\ny",), ("g", "x\r"), ("x\r\ny",),
                                    ("x\u2028y",), ("x\x85",)],
                         ids=["semicolon", "bar", "bar-start", "newline",
                              "carriage-return", "crlf", "line-separator", "nel"])
def test_serialize_refuses_a_label_parse_cannot_read(labels):
    # each of these used to be written and then fail to parse back, e.g.
    # "x; y" as "line 4: malformed generator 'x'"; a label after the
    # first that starts with "| " ends the generator field just as " | " does
    with pytest.raises(ChartError) as e:
        serialize(_one_entry_chart(*labels))
    assert str(e.value).startswith(f"label {labels[-1]!r} at (0, 0) ")


@pytest.mark.parametrize("name", ["a\nb", "a\r", "a\x0cb"],
                         ids=["newline", "carriage-return", "form-feed"])
def test_serialize_refuses_a_name_with_a_line_break(name):
    # "a\nb" used to be written and then read as "line 3: unrecognized line 'b'"
    with pytest.raises(ChartError) as e:
        serialize(_one_entry_chart("g", name=name))
    assert str(e.value) == f"chart name {name!r} has a line break"


def test_serialize_refuses_an_entry_outside_the_window():
    # used to be written and then rejected by parse at the entry's line
    chart = _one_entry_chart("g", at=(5, 5))
    chart.window = Window(0, 1, 0, 1)
    with pytest.raises(ChartError) as e:
        serialize(chart)
    assert str(e.value) == "entry at (5, 5) outside window [0..1]x[0..1]"


def test_serialize_refuses_an_entry_without_generators():
    # its generator field would be empty, which parse reads as a malformed
    # generator ''
    chart = Chart("c", Window.square(1), {(0, 0): ChartEntry(())}, {})
    with pytest.raises(ChartError) as e:
        serialize(chart)
    assert str(e.value) == "entry at (0, 0) has no generators"


@pytest.mark.parametrize("labels", [("a:b",), ("a:dot", "b:square:circle"), ("| x", "y"),
                                    ("x;", ";y", "a|b", " z ", ""), ("tab\tx",)])
def test_labels_parse_can_read_round_trip(labels):
    # parse splits a generator at its last colon, so colons in labels are
    # fine; a first label may start with "| "
    chart = _one_entry_chart(*labels)
    text = serialize(chart)
    back = parse(text)
    assert back.entries == chart.entries and serialize(back) == text


@pytest.fixture(scope="module")
def charts8():
    w = Window.square(8)
    bss = run_bockstein(w)
    assert not bss.candidates
    return [closed_form_hz(w), closed_form_kr(w), cellular_chart_hz(w), bss.chart,
            run_tate_pipeline(hz_seed(), w).genuine,
            run_tate_pipeline(kr_seed(), w).genuine]


def test_written_group_is_the_entry_group(charts8):
    # serialize reads the group field off the generators (squares and
    # circles for the rank, dot orders for the torsion); that is the
    # entry's group because ChartEntry checked the dots form its chain
    for chart in charts8:
        records = serialize(chart).splitlines()[3:]
        assert len(records) == len(chart.entries) > 0, chart.name
        for rec, d in zip(records, sorted(chart.entries)):
            g = chart.entries[d].group
            assert rec.split(" | ")[1] == \
                f"rank {g.rank} torsion {','.join(map(str, g.torsion)) or '-'}", (chart.name, d)


def test_inexact_flag_survives_round_trip():
    chart = Chart(name="f", window=Window.square(1),
                  entries={(0, 0): ChartEntry((Generator("g", DOT, 2),),
                                              exact=False)}, maps={})
    assert not parse(serialize(chart)).entries[(0, 0)].exact


def test_diff_on_self_is_empty_and_symmetric():
    a = closed_form_kr(Window.square(6))
    assert diff(a, a).clean
    b = closed_form_hz(Window.square(6))
    ab, ba = diff(a, b), diff(b, a)
    assert {d for d, *_ in ab.group_diffs} == {d for d, *_ in ba.group_diffs}


def test_diff_nearest_origin_first():
    rep = diff(closed_form_hz(Window.square(6)), closed_form_kr(Window.square(6)))
    assert rep.group_diffs[0][0] == (1, 0)


def test_diff_on_window_mismatch_warns():
    rep = diff(closed_form_hz(Window.square(4)), closed_form_hz(Window.square(6)))
    assert rep.window_mismatch and rep.clean


def test_diff_of_disjoint_windows_is_unclean():
    rep = diff(closed_form_hz(Window(0, 2, 0, 2)), closed_form_hz(Window(5, 7, 5, 7)))
    assert not rep.clean and not rep.group_diffs
    assert rep.summary() == ("windows [0..2]x[0..2] and [5..7]x[5..7] do not "
                             "overlap; nothing compared")
    # sharing one row is an overlap, compared with a warning as before
    rep = diff(closed_form_hz(Window(0, 2, 0, 2)), closed_form_hz(Window(2, 4, 0, 2)))
    assert rep.clean and rep.window_mismatch


def test_inexact_entries_compare_by_composition_factors():
    g = (Generator("x", DOT, 2), Generator("y", DOT, 2))
    a = Chart("a", Window.square(1), {(0, 0): ChartEntry(g, exact=False)}, {})
    zz4 = (Generator("z", DOT, 4),)
    b = Chart("b", Window.square(1), {(0, 0): ChartEntry(zz4, exact=False)}, {})
    rep = diff(a, b)
    assert rep.group_diffs and rep.group_diffs[0][3] == "composition factors"
    c = Chart("c", Window.square(1),
              {(0, 0): ChartEntry(g[:1] + g[1:], exact=False)}, {})
    assert diff(a, c).clean


def test_render_determinism():
    chart = closed_form_kr(Window.square(6))
    assert render(chart, "svg") == render(chart, "svg")
    assert render(chart, "text") == render(chart, "text")
    with pytest.raises(ValueError):
        render(chart, "png")


def test_text_render_glyphs():
    text = render(closed_form_hz(Window.square(3)), "text").decode()
    lines = text.splitlines()
    row0 = [l for l in lines if l.strip().startswith("0 ")][0]
    assert "□" in row0  # the unit square sits on the axis row
    assert "○" in text  # a circle
    assert "·" in text  # dots


def test_svg_escapes_name_and_labels():
    # markup characters in the chart name and a generator label come back
    # out of a strict XML parser unchanged
    name, label = "hz <cells> & more", "a<b> & c"
    chart = Chart(name, Window.square(1),
                  {(0, 0): ChartEntry((Generator(label, SQUARE, 0),))}, {})
    root = ElementTree.fromstring(render(chart, "svg"))
    ns = "{http://www.w3.org/2000/svg}"
    assert name in [t.text for t in root.iter(ns + "text")]
    assert [t.text for t in root.iter(ns + "title")] == [label]


def test_svg_has_legend_glyphs():
    svg = render(closed_form_kr(Window.square(4)), "svg").decode()
    assert svg.startswith("<svg")
    assert "<rect" in svg and "<circle" in svg
    assert "#cc0000" in svg  # red dots
    assert "Z&#183;1" in svg and "Z&#183;&#963;" in svg
