"""The Tate square: localization, orbits, fixed points, assembly."""

import functools
import re

import pytest

from roqcharts.exactalg import (FgAbelian, IntMatrix, presented_cokernel,
                                presented_kernel)
from roqcharts.grading import (Chart, ChartEntry, Generator, Window, DOT, SQUARE,
                               mult_map)
from roqcharts.tate import (StabilizationError, TatePipelineError, TateSquareData,
                            assemble_genuine, geometric_fixed_points_with_maps,
                            homotopy_orbits, invert_a_with_maps, torsion_split_by_a,
                            _les_entry)
from roqcharts.exactalg import PresentedGroup
from roqcharts.theories import hz_seed, kr_seed, run_tate_pipeline
from roqcharts import cli, exactalg
from roqcharts.chartio import diff, serialize
from roqcharts.grading import closed_form_hz, closed_form_kr

Z = FgAbelian.free(1)
F2 = FgAbelian.cyclic(2)


@functools.cache
def square(theory: str, radius: int) -> TateSquareData:
    """The Tate square on Window.square(radius) with padding 2, built once
    per theory and radius for all the tests here."""
    seed = hz_seed() if theory == "hz" else kr_seed()
    return run_tate_pipeline(seed, Window.square(radius), padding=2)


def single_class_chart(window=Window(-3, 3, -3, 3)):
    entries = {(0, 0): ChartEntry((Generator("x", SQUARE, 0),))}
    return Chart(name="one", window=window, entries=entries, maps={"a": {}})


def test_invert_a_kills_nilpotent_chart():
    # one Z at the origin with zero a-multiplication inverts to nothing
    tate = invert_a_with_maps(single_class_chart())[0]
    assert not tate.entries


def test_invert_a_is_a_periodic_and_idempotent():
    t = square("hz", 6).tate
    for x in range(t.window.xmin, t.window.xmax + 1):
        base = t.group((x, t.window.ymin))
        for y in range(t.window.ymin, t.window.ymax + 1):
            assert t.group((x, y)) == base
    again = invert_a_with_maps(t)[0]
    assert all(again.group(d) == t.group(d) for d in again.window.degrees())


def test_invert_a_instability_error():
    w = Window(0, 0, -3, 0)
    message = re.escape(f"a-column at x = 0 does not stabilize at the bottom of {w} "
                        f"(map out of (0, -2) is not an isomorphism)")
    # a column of Z's with multiplication by 2 never stabilizes; nor does
    # Z/2 under Z's with a the reduction mod 2 (the bottom groups differ)
    z = Generator("g", SQUARE, 0)
    for bottom, a in ((z, 2), (Generator("g", DOT, 2), 1)):
        entries = {(0, y): ChartEntry((bottom if y == -3 else z,)) for y in range(-3, 1)}
        amaps = {(0, y): IntMatrix.from_rows([[a]]) for y in range(-2, 1)}
        chart = Chart(name="bad", window=w, entries=entries, maps={"a": amaps})
        with pytest.raises(StabilizationError, match=message):
            invert_a_with_maps(chart)


def test_localization_maps_hit_the_colimit():
    data = square("hz", 6)
    # on the antidiagonal the map is reduction of Z onto Z/2
    assert data.loc_maps[(0, 0)].entries == ((1,),)
    # above the antidiagonal nothing maps anywhere (source is zero)
    assert data.loc_maps[(0, 3)].cols == 0


def test_orbits_patterns_hz():
    ob = square("hz", 8).orbits
    for d in ob.window.degrees():
        x, y = d
        if x % 2 == 0:
            expect = Z if y == -x else FgAbelian.zero()
        else:
            expect = F2 if y >= -x else FgAbelian.zero()
        assert ob.group(d) == expect, d
    # the kernel generators are twice the fixed-point ones
    assert any(g.annotation == "circle" for g in ob.entry((0, 0)).gens)


def test_orbits_are_built_on_demand(monkeypatch):
    # neither the pipeline nor compute builds the orbits chart; the first
    # read of .orbits builds the same chart as an eager call, once
    calls = []
    monkeypatch.setattr("roqcharts.tate.homotopy_orbits",
                        lambda *args: calls.append(args) or homotopy_orbits(*args))
    data = run_tate_pipeline(kr_seed(), Window.square(4), padding=2)
    assert cli.main(["compute", "--theory", "hz", "--pipeline", "tate",
                     "--window=-4..4"]) == 0
    assert calls == []
    eager = homotopy_orbits(data.hfp, data.tate, data.loc_maps)
    assert serialize(data.orbits) == serialize(eager)
    assert data.orbits.maps == eager.maps
    assert len(calls) == 1


def test_orbits_trivial_when_tate_vanishes():
    # with a zero localization target the orbits are just the fixed points
    hfp = single_class_chart()
    tate = Chart(name="zero", window=hfp.window, entries={}, maps={"a": {}})
    from roqcharts.tate import homotopy_orbits
    orbits = homotopy_orbits(hfp, tate, {})
    assert orbits.group((0, 0)) == Z


def test_geometric_fixed_points_requires_certificate():
    with pytest.raises(TatePipelineError):
        geometric_fixed_points_with_maps(square("hz", 4).tate, False)


def test_geometric_fixed_points_requires_periodicity():
    from roqcharts.tate import NotPeriodicError
    with pytest.raises(NotPeriodicError):
        geometric_fixed_points_with_maps(single_class_chart(), True)


def test_periodicity_check_compares_groups_where_orders_differ():
    # a planted entry breaks a-periodicity at its own column, the first
    # such column named; a column holding Z + Z/2 in either generator
    # order has different orders but equal groups, so it is periodic
    from roqcharts.tate import NotPeriodicError
    tate = square("kr", 6).tate
    w = tate.window
    planted = {**tate.entries, (2, w.ymax): ChartEntry((Generator("p", DOT, 3),)),
               (4, 0): ChartEntry((Generator("p", DOT, 3),))}
    chart = Chart(name="planted", window=w, entries=planted, maps=tate.maps)
    with pytest.raises(NotPeriodicError, match=re.escape("not a-periodic at x = 2")):
        geometric_fixed_points_with_maps(chart, True)

    w = Window(-1, 1, -2, 2)
    z, two = Generator("z", SQUARE, 0), Generator("t", DOT, 2)
    entries = {(x, y): ChartEntry((z, two) if y else (two, z))
               for x in range(-1, 2) for y in range(-2, 3)}
    phi, _ = geometric_fixed_points_with_maps(Chart("mixed", w, entries, {"a": {}}), True)
    assert phi.group((1, 2)) == FgAbelian(1, (2,))


def test_phi_integer_line_connective():
    for theory, step in (("hz", 2), ("kr", 4)):
        p = square(theory, 8).phi
        for x in range(p.window.xmin, 0):
            assert p.group((x, 0)).is_zero()
        for x in range(0, p.window.xmax + 1):
            expect = F2 if x % step == 0 else FgAbelian.zero()
            assert p.group((x, 0)) == expect


def test_degenerate_square_returns_fixed_points():
    # phi = tate leaves tate/phi = 0, so the fibre is hfp itself
    data = square("hz", 6)
    hfp, tate = data.hfp, data.tate
    ident = {d: IntMatrix.identity(len(tate.orders(d)))
             for d in tate.window.degrees()}
    w = Window.square(4)
    genuine = assemble_genuine(hfp, tate, data.loc_maps, tate, ident, w, "degen")
    for d in w.degrees():
        assert genuine.group(d) == hfp.group(d), d


@pytest.mark.parametrize("theory", ["hz", "kr"])
def test_genuine_names_kernel_generators_by_fixed_points(theory):
    labels = [g.label for e in square(theory, 12).genuine.entries.values()
              for g in e.gens]
    assert labels and not [lab for lab in labels if "ker[" in lab]


@pytest.mark.parametrize("theory", ["hz", "kr"])
def test_genuine_is_fixed_points_where_phi_is_tate(theory):
    # tate/phi vanishes for x >= 0, so there the genuine entry is the
    # fixed-point entry: labels, glyphs and orders
    data = square(theory, 12)
    right = [d for d in data.genuine.window.degrees() if d[0] >= 0]
    assert any(data.genuine.entry(d) for d in right)
    for d in right:
        mine, theirs = data.genuine.entry(d), data.hfp.entry(d)
        assert (mine and mine.gens) == (theirs and theirs.gens), d


def test_genuine_refuses_phi_inclusion_that_is_not_iso():
    data = square("hz", 6)
    phi, phi_maps = geometric_fixed_points_with_maps(data.tate, True)
    d = (0, 0)
    assert phi.orders(d) == (2,)
    planted = {**phi_maps, d: IntMatrix.zero(1, 1)}
    with pytest.raises(TatePipelineError, match=r"\(0, 0\)"):
        assemble_genuine(data.hfp, data.tate, data.loc_maps, phi, planted,
                         Window.square(4), "planted")


def test_les_entry_flags_unresolvable_extension():
    coker = PresentedGroup.from_lattices(IntMatrix.identity(1),
                                         IntMatrix.from_rows([[2]]))
    ker = PresentedGroup.from_lattices(IntMatrix.identity(1),
                                       IntMatrix.from_rows([[2]]))
    entry = _les_entry(coker, "tow", ker, ["g"], ker_torsion_covered=False)
    assert not entry.exact
    entry2 = _les_entry(coker, "tow", ker, ["g"], ker_torsion_covered=True)
    assert entry2.exact


def test_torsion_split_by_a():
    def unreachable():
        raise AssertionError("a free group needs no a-map")
    assert torsion_split_by_a((0,), unreachable)
    assert torsion_split_by_a((), unreachable)
    one = IntMatrix.from_rows([[1]])
    assert torsion_split_by_a((2,), lambda: one)
    assert torsion_split_by_a((0, 2), lambda: IntMatrix.from_rows([[0], [1]]))
    assert not torsion_split_by_a((2,), lambda: IntMatrix.from_rows([[2]]))
    assert not torsion_split_by_a((2,), lambda: IntMatrix.zero(1, 0))
    assert not torsion_split_by_a((2,), lambda: None)
    assert not torsion_split_by_a((4,), lambda: one)


def test_round_trip_both_theories():
    w = Window.square(8)
    assert diff(square("hz", 8).genuine, closed_form_hz(w)).clean
    kr = square("kr", 8)
    assert diff(kr.genuine, closed_form_kr(w)).clean
    assert all(e.exact for e in kr.genuine.entries.values())


def test_local_cohomology_vanishing():
    for theory in ("hz", "kr"):
        assert not invert_a_with_maps(square(theory, 8).orbits)[0].entries


def a_map_mismatches(chart, reference):
    """Degrees where ker(a) or coker(a) differ as groups between two charts.

    Basis-free: the two charts may choose different generators, so only
    the groups the a-multiplication cuts out are compared.
    """
    bad = []
    for d in chart.window.degrees():
        down = (d[0], d[1] - 1)
        if not chart.window.contains(down):
            continue
        groups = []
        for c in (chart, reference):
            m = mult_map(c, "a", d)
            groups.append((presented_kernel(m, c.orders(d), c.orders(down)).group,
                           presented_cokernel(m, c.orders(down)).group))
        if groups[0] != groups[1]:
            bad.append(d)
    return bad


@pytest.fixture(scope="module")
def genuine_and_closed_8():
    w = Window.square(8)
    return {"hz": (square("hz", 8).genuine, closed_form_hz(w)),
            "kr": (square("kr", 8).genuine, closed_form_kr(w))}


@pytest.mark.parametrize("theory", ["hz", "kr"])
def test_genuine_a_maps_match_closed_form(genuine_and_closed_8, theory):
    genuine, closed = genuine_and_closed_8[theory]
    assert genuine.maps["a"]
    assert a_map_mismatches(genuine, closed) == []


def test_genuine_a_map_check_reports_corrupted_degree(genuine_and_closed_8):
    genuine, closed = genuine_and_closed_8["hz"]
    d = (0, 0)
    good = mult_map(genuine, "a", d)
    assert not good.is_zero()
    corrupted = Chart(name=genuine.name, window=genuine.window, entries=genuine.entries,
                      maps={"a": {**genuine.maps["a"], d: IntMatrix.zero(good.rows, good.cols)}})
    assert a_map_mismatches(corrupted, closed) == [d]


def test_warm_exactalg_memos_change_no_chart():
    def charts():
        out = []
        for seed in (hz_seed(), kr_seed()):
            data = run_tate_pipeline(seed, Window.square(6))
            out += [(serialize(c), c.maps) for c in (data.genuine, data.hfp)]
        return out

    exactalg.cache_clear()
    cold = charts()
    assert all(maps for _, maps in cold)
    assert charts() == cold
