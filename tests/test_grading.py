"""Closed-form charts: frozen entries, structure maps, structural laws."""

import re

import pytest

from roqcharts import grading
from roqcharts.cli import main
from roqcharts.exactalg import ExactAlgebraError, FgAbelian, IntMatrix, map_is_iso
from roqcharts.grading import (CIRCLE, DOT, MAP_DEGREES, SQUARE, ChartEntry, ChartError,
                               Generator, OutOfWindowError, Window,
                               closed_form_hz, closed_form_kr, desc_matrix,
                               hz_map_image, hz_summands, hz_support, kr_map_image,
                               kr_summands, mult_map, reduce_matrix)


Z = FgAbelian.free(1)
F2 = FgAbelian.cyclic(2)
ZERO = FgAbelian.zero()


@pytest.fixture(scope="module")
def hz12():
    return closed_form_hz(Window.square(12))


@pytest.fixture(scope="module")
def kr12():
    return closed_form_kr(Window.square(12))


def test_hz_chart_entries(hz12):
    assert hz12.group((0, 0)) == Z
    assert hz12.entry((0, 0)).gens[0].label == "1"
    assert hz12.group((0, -3)) == F2
    assert hz12.entry((0, -3)).gens[0].label == "a^3"
    assert hz12.group((-3, 3)) == F2  # bottom of the first dual tower
    assert hz12.group((-1, 1)) == ZERO  # the gap
    assert hz12.group((2, -2)) == Z
    assert hz12.entry((-2, 2)).gens[0].label == "2u^-1"
    assert hz12.entry((-2, 2)).gens[0].annotation == "circle"


def test_kr_chart_entries(kr12):
    assert kr12.group((0, 0)) == Z
    assert kr12.group((1, 0)) == F2
    assert kr12.entry((1, 0)).gens[0].label == "a vb"
    assert kr12.group((4, -4)) == Z
    assert kr12.entry((4, -4)).gens[0].label == "U"
    assert kr12.group((-1, 1)) == ZERO
    assert kr12.entry((2, -2)).gens[0].annotation == "circle"


def test_kr_integer_line_is_ko(kr12):
    got = [str(kr12.group((n, 0))) for n in range(0, 13)]
    assert got == ["Z", "Z/2", "Z/2", "0", "Z", "0", "0", "0",
                   "Z", "Z/2", "Z/2", "0", "Z"]


def test_kr_tower_and_ray_overlaps(kr12):
    assert kr12.group((-5, 11)) == FgAbelian(1, (2,))
    assert kr12.group((-5, 10)) == FgAbelian.from_orders([2, 2])
    assert kr12.group((-5, 9)) == FgAbelian.from_orders([2, 2])
    labels = {g.label for g in kr12.entry((-5, 11)).gens}
    assert labels == {"vb^3 U^-2", "t(1,11)"}


def test_kr_negative_blocks(kr12):
    assert kr12.entry((-4, 4)).gens[0].label == "2U^-1"
    assert kr12.group((-3, 5)) == Z  # vbar-diagonal square
    assert kr12.group((0, 8)) == Z   # vb^4 U^-1
    assert kr12.group((0, 4)) == Z   # 2u vb^2 U^-1
    assert kr12.group((-5, 5)) == F2  # tower bottom


def test_mult_map_examples(hz12):
    assert mult_map(hz12, "a", (0, 0)).entries == ((1,),)
    assert mult_map(hz12, "a", (-2, 2)).is_zero()
    assert mult_map(hz12, "u", (0, 0)).entries == ((1,),)
    assert mult_map(hz12, "u", (-2, 2)).entries == ((2,),)  # circle composite


def test_mult_map_out_of_window(hz12):
    with pytest.raises(OutOfWindowError):
        mult_map(hz12, "u", (12, -12))
    with pytest.raises(OutOfWindowError):
        mult_map(hz12, "a", (0, -12))


def check_square_commutes(chart, name1: str, name2: str) -> list:
    """Degrees where the two multiplications fail to commute (in window)."""
    d1, d2 = MAP_DEGREES[name1], MAP_DEGREES[name2]
    bad = []
    w = chart.window
    for d in w.degrees():
        mid1 = (d[0] + d1[0], d[1] + d1[1])
        mid2 = (d[0] + d2[0], d[1] + d2[1])
        far = (d[0] + d1[0] + d2[0], d[1] + d1[1] + d2[1])
        if not (w.contains(mid1) and w.contains(mid2) and w.contains(far)):
            continue
        first = mult_map(chart, name2, mid1).mul(mult_map(chart, name1, d))
        second = mult_map(chart, name1, mid2).mul(mult_map(chart, name2, d))
        orders = chart.orders(far)
        if reduce_matrix(first, orders) != reduce_matrix(second, orders):
            bad.append(d)
    return bad


def test_structure_squares_commute(hz12, kr12):
    assert check_square_commutes(hz12, "a", "u") == []
    assert check_square_commutes(kr12, "a", "vbar") == []
    assert check_square_commutes(kr12, "a", "U") == []
    assert check_square_commutes(kr12, "vbar", "U") == []


def test_gap_diagonals_vanish(hz12, kr12):
    for chart in (hz12, kr12):
        for d in chart.window.degrees():
            if d[0] - d[1] in (-1, -2, -3):
                assert chart.group(d).is_zero(), d


def test_strongly_even_diagonal(hz12, kr12):
    for chart in (hz12, kr12):
        for k in range(0, 13):
            g = chart.group((k, k))
            assert g.is_free() and g.rank <= 1
    for k in range(0, 13):
        assert kr12.group((k, k)) == Z  # the vbar powers


def test_connectivity_vanishing(hz12, kr12):
    for chart in (hz12, kr12):
        for d in chart.window.degrees():
            if d[0] < 0 and d[0] + d[1] < 0:
                assert chart.group(d).is_zero(), d


def test_a_iso_below_antidiagonal(hz12, kr12):
    for chart in (hz12, kr12):
        w = chart.window
        for d in w.degrees():
            x, y = d
            if x >= 0 and x + y < 0 and w.contains((x, y - 1)):
                mat = mult_map(chart, "a", d)
                assert map_is_iso(mat, chart.orders(d), chart.orders((x, y - 1))), d


def test_a_column_periodicity(hz12):
    # every lower-half-plane dot maps isomorphically to the dot below it
    w = hz12.window
    for d in w.degrees():
        x, y = d
        e = hz12.entry(d)
        if e is None or not (x >= 0 and y < -x and w.contains((x, y - 1))):
            continue
        assert e.group == F2
        mat = mult_map(hz12, "a", d)
        assert map_is_iso(mat, e.orders, hz12.orders((x, y - 1)))


def test_annotation_group_consistency(hz12, kr12):
    for chart in (hz12, kr12):
        for e in chart.entries.values():
            free = sum(1 for g in e.gens if g.annotation in ("square", "circle"))
            dots = sum(1 for g in e.gens if g.annotation == "dot")
            assert e.group.rank == free
            assert len(e.group.torsion) == dots


def test_charts_store_only_nonzero_entries(hz12, kr12):
    for chart in (hz12, kr12):
        for e in chart.entries.values():
            assert e.gens


@pytest.mark.parametrize("window", [Window.square(12), Window(-60, 60, -60, 12),
                                    Window(-7, -3, 2, 9), Window(1, 8, -20, -9),
                                    Window(-4, 4, 3, 3), Window(-1, -1, -6, 6)])
def test_hz_support_is_where_summands_live(window):
    # the generated support is the brute-force set of degrees with an hz
    # summand, in window order
    assert list(hz_support(window)) == [d for d in window.degrees() if hz_summands(*d)]


@pytest.mark.parametrize("window", [Window.square(12), Window(-7, -3, 2, 9),
                                    Window(1, 8, -20, -9), Window(-20, 20, 4, 4),
                                    Window(-9, 9, -1, -1)])
def test_closed_hz_walks_its_support_as_the_full_window_would(window):
    # walking hz_support instead of every window degree changes no entry,
    # no map and no insertion order
    walked = grading._build_chart("hz-closed", window, window.degrees(), hz_summands,
                                  grading.hz_generator, hz_map_image, ("a", "u"))
    chart = closed_form_hz(window)
    assert list(chart.entries.items()) == list(walked.entries.items())
    for name in ("a", "u"):
        assert list(chart.maps[name].items()) == list(walked.maps[name].items())


def test_empty_window_rejected():
    with pytest.raises(Exception):
        Window(3, 2, 0, 0)


@pytest.mark.parametrize("orders, chain", [
    ((2, 3), False), ((4, 2), False), ((2, 4), True), ((), True), ((2,), True),
    ((3,), True), ((1,), False), ((-2,), False), ((2, 2), True), ((2, 4, 8), True),
    ((2, 4, 6), False), ((1, 3), False), ((1, 1), False), ((-2, 4), False),
    ((4, -2), False), ((2, 1), False), ((6, 3, 2), False)])
def test_entry_dots_must_form_the_torsion_chain(orders, chain):
    # the entry check is FgAbelian's: the same verdict, and on rejection
    # its message, wherever squares and circles stand among the dots
    try:
        FgAbelian(0, orders)
        error = None
    except ExactAlgebraError as e:
        error = str(e)
    assert (error is None) == chain
    dots = tuple(Generator(f"t{i}", DOT, o) for i, o in enumerate(orders))
    square, circle = Generator("g", SQUARE), Generator("c", CIRCLE)
    interleaved = tuple(g for dot in dots for g in (circle, dot))
    for gens in ((square,) + dots, dots, dots + (circle,), interleaved + (square,)):
        if chain:
            assert ChartEntry(gens).group == \
                FgAbelian(len(gens) - len(orders), orders)
        else:
            with pytest.raises(ChartError) as e:
                ChartEntry(gens)
            assert str(e.value) == f"dot orders of {[g.label for g in gens]}: {error}"


def test_desc_matrix_rejects_images_outside_the_target():
    def a_image(desc):
        return hz_map_image("a", desc)
    assert desc_matrix(hz_summands(0, 0), hz_summands(0, -1), a_image) == \
        IntMatrix.from_rows([[1]])
    with pytest.raises(ChartError):
        desc_matrix(hz_summands(0, 0), hz_summands(0, -2), a_image)


def test_closed_maps_are_built_on_first_read(monkeypatch, tmp_path):
    real = grading.desc_matrix
    built = []

    def spy(src, dst, image):
        built.append(src)
        return real(src, dst, image)
    monkeypatch.setattr(grading, "desc_matrix", spy)

    # compute writes entries only, so it builds no map at all
    for theory in ("hz", "kr"):
        out = tmp_path / f"{theory}.chart"
        assert main(["compute", "--theory", theory, "--pipeline", "closed",
                     "--window=-12..12", "--output", str(out)]) == 0
    assert built == []

    w = Window.square(12)
    for build, summands, image, names in (
            (closed_form_hz, hz_summands, hz_map_image, ("a", "u")),
            (closed_form_kr, kr_summands, kr_map_image, ("a", "vbar", "U"))):
        built.clear()
        chart = build(w)
        # naming the families builds none of them
        assert "a" in chart.maps and "x" not in chart.maps
        assert list(chart.maps) == list(names) and built == []
        for name in names:
            dx, dy = MAP_DEGREES[name]
            eager = {}
            for d in w.degrees():
                target = (d[0] + dx, d[1] + dy)
                if summands(*d) and w.contains(target):
                    mat = real(summands(*d), summands(*target),
                               lambda desc: image(name, desc))
                    if mat.rows:
                        eager[d] = mat
            family = chart.maps[name]
            assert family == eager, name
            assert chart.maps[name] is family
        assert built  # the reads went through the spied builder

    # the membership check runs when the family is read, naming the summand
    def planted(name, desc):
        return [(("usq", 5), 1)] if (name, desc) == ("u", ("usq", 0)) \
            else hz_map_image(name, desc)
    monkeypatch.setattr(grading, "hz_map_image", planted)
    chart = closed_form_hz(Window.square(4))
    assert chart.maps["a"]
    for _ in range(2):
        with pytest.raises(ChartError, match=re.escape("('usq', 0) maps to ('usq', 5)")):
            chart.maps["u"]
