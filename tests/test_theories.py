"""Seeds, the theta operation, the Bockstein run, slices, checkers."""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from roqcharts import theories
from roqcharts.exactalg import FgAbelian, has_nonzero_hom
from roqcharts.grading import (MAP_DEGREES, ChartError, Window, closed_form_hz,
                               closed_form_kr, hz_generator, hz_map_image, hz_order,
                               hz_summands)
from roqcharts.chartio import diff, serialize
from roqcharts.specseq import find_candidates
from roqcharts.theories import (TheoryError, TheorySeed, bss_floor_survivors,
                                bss_to_sss, build_pages, connectivity_check,
                                gap_check, hz_seed,
                                inject_class, kr_seed, run_bockstein,
                                run_hfpss, run_tate_pipeline,
                                sss_entry_e1, sss_entry_einf, sss_to_bss)
from roqcharts.tate import StabilizationError, fixed_point_window, run_tate_square

Z = FgAbelian.free(1)
F2 = FgAbelian.cyclic(2)


# ---------------------------------------------------------------------------
# seeds
# ---------------------------------------------------------------------------

def test_seeds_parse_from_declarative_text():
    hz = hz_seed()
    assert hz.name == "hz"
    assert [g.name for g in hz.presentation.generators] == ["a", "lam"]
    kr = kr_seed()
    assert len(kr.rules) == 2
    assert kr.rules[1].target == (("a", 3), ("vb", 1))


def test_kr_labels_show_odd_lam_powers():
    # an odd lam power has no kr class name, so its exponent is shown
    # whole, as hz shows it; the even powers keep their names
    kr = kr_seed()
    assert kr.label_of((0, 0, 1), 1) == "lam^1"
    assert kr.label_of((1, 0, 5), 1) == "a lam^5"
    assert hz_seed().label_of((1, 5), 1) == "a lam^5"
    assert kr.label_of((1, 0, 4), 1) == "a U"
    assert kr.label_of((0, 1, -2), 2) == "2u vb U^-1"


# ---------------------------------------------------------------------------
# fixed points
# ---------------------------------------------------------------------------

def test_hfpss_examples():
    hz = run_hfpss(hz_seed(), Window.square(6))
    assert hz.group((0, -1)) == F2
    assert hz.group((-2, 2)) == Z
    kr = run_hfpss(kr_seed(), Window.square(9))
    assert kr.group((1, 0)) == F2
    assert kr.entry((1, 0)).gens[0].label == "a vb"
    assert kr.group((8, -8)) == Z
    assert [str(kr.group((n, 0))) for n in range(9)] == \
        ["Z", "Z/2", "Z/2", "0", "Z", "0", "0", "0", "Z"]
    # derived codegree classes on the negative axis keep their usual names
    assert hz.entry((-2, 0)).gens[0].label == "a^2 u^-1"
    assert kr.entry((-4, 0)).gens[0].label == "a^4 U^-1"


def test_declared_maps_are_classes_of_the_last_page():
    # the fixed-point charts carry every declared map; a map by a monomial
    # that is no class of the last page is an error naming it
    assert list(run_hfpss(hz_seed(), Window.square(4)).maps) == ["a", "u", "U"]
    assert list(run_hfpss(kr_seed(), Window.square(4)).maps) == ["a", "vbar", "U"]
    seed = kr_seed()
    broken = TheorySeed(seed.name, seed.presentation, seed.rules,
                        {**seed.map_monos, "u": {"lam": 2}})
    with pytest.raises(TheoryError, match="structure maps u are not"):
        run_hfpss(broken, Window.square(4))


# windows on the axes, on both sides of them, and off them on either side
TATE_SCOPE_WINDOWS = (Window.square(6), Window(-8, -6, -8, -6), Window(-12, -9, 5, 9),
                      Window(-3, 9, -14, 2))


@pytest.mark.parametrize("margin", (1, 8))
@pytest.mark.parametrize("seed", (hz_seed(), kr_seed()), ids=("hz", "kr"))
def test_tate_margin_does_not_change_the_genuine_chart(seed, margin):
    # the derived fixed-point window is scope enough: one margin degrees
    # wider on every side gives the same genuine charts
    for w in TATE_SCOPE_WINDOWS:
        want = serialize(run_tate_pipeline(seed, w).genuine)
        f = fixed_point_window(w)
        hfp = run_hfpss(seed, Window(f.xmin - margin, f.xmax + margin,
                                     f.ymin - margin, f.ymax + margin))
        got = run_tate_square(hfp, w, f"{seed.name}-tate").genuine
        assert serialize(got) == want, w


def test_tate_stabilization_room_is_tight():
    # one row less below the antidiagonal and the right-hand column of
    # kr's fixed points on [-12,12]^2 has no room to stabilize
    w = Window.square(12)
    f = fixed_point_window(w)
    hfp = run_hfpss(kr_seed(), Window(f.xmin, f.xmax, f.ymin + 1, f.ymax))
    with pytest.raises(StabilizationError, match=r"^a-column at x = 13 "):
        run_tate_square(hfp, w, "kr-tate")


def test_collapse_certificates_empty():
    for seed in (hz_seed(), kr_seed()):
        assert find_candidates(build_pages(seed)[-1], Window.square(8)) == [], \
            seed.name


# ---------------------------------------------------------------------------
# theta
# ---------------------------------------------------------------------------

def _theta(desc):
    return hz_map_image("theta", desc)


def test_theta_values():
    assert _theta(("usq", 1)) == [(("ucol", 3, 0), 1)]          # u -> a^3
    assert _theta(("usq", 2)) == []                             # u^2 -> 0
    assert _theta(("ucol", 2, 3)) == [(("ucol", 5, 2), 1)]      # a^2 u^3 -> a^5 u^2
    assert _theta(("ucirc", 1)) == []                           # 2u^-1 -> 0
    assert _theta(("utow", 1, 6)) == [(("utow", 2, 5), 1)]
    assert _theta(("utow", 1, 5)) == []                         # stub survives
    assert _theta(("utow", 2, 9)) == []                         # even towers are cycles


def test_theta_degree_and_square():
    assert MAP_DEGREES["theta"] == (-2, -1)
    for x, y in Window.square(12).degrees():
        for desc in hz_summands(x, y):
            for img, coeff in _theta(desc):
                assert coeff == 1
                assert img in hz_summands(x - 2, y - 1)
                assert _theta(img) == []


def test_theta_unknown_generator_rejected():
    with pytest.raises(ChartError):
        _theta(("mystery", 1))


# ---------------------------------------------------------------------------
# the Bockstein run
# ---------------------------------------------------------------------------

def test_bockstein_matches_closed_form():
    w = Window.square(12)
    res = run_bockstein(w)
    assert res.candidates == []
    assert diff(res.chart, closed_form_kr(w)).clean
    assert all(e.exact for e in res.chart.entries.values())


def test_bockstein_named_survivors():
    w = Window.square(6)
    res = run_bockstein(w)
    e = res.chart.entry((1, 0))
    assert e.group == F2 and e.gens[0].label == "vh a"
    e4 = res.chart.entry((4, 0))
    assert e4.group == Z and e4.gens[0].annotation == "circle"
    assert e4.gens[0].label == "2 vh^2 u"
    for d in [(0, 1), (-1, 1), (-2, 1), (1, 2), (0, 2), (-1, 2)]:
        assert res.chart.group(d).is_zero()


def test_bockstein_absorbs_stub_tops():
    res = run_bockstein(Window.square(8))
    degrees = {d for d, _ in res.absorbed}
    assert (-7, 9) not in degrees  # outside window
    assert (-3, 5) in degrees      # vbar square over the first stub top
    assert res.chart.group((-3, 5)) == Z


def test_bockstein_floor_zero_keeps_even_towers():
    table = theories._BaseTable()
    full = [c.desc for c in bss_floor_survivors(0, (-5, 9), table)]
    assert ("utow", 2, 9) in full
    gone = [c.desc for c in bss_floor_survivors(1, (-5, 9), table)]
    assert ("utow", 2, 9) not in gone


# [4..9]x[-14..-9] is the window whose class (9, -9) lies on floor 1,
# one above x_max + y_max; square(16) reaches its d_5 candidate's floor 5
FLOOR_SCOPE_WINDOWS = (Window.square(12), Window.square(16), Window(4, 9, -14, -9))


def _floor_cutoff(w):
    """The top floor run_bockstein reads: hz's connectivity bound."""
    return max(0, w.xmax, (w.xmax + w.ymax) // 2)


def test_hz_is_zero_below_both_connectivity_lines():
    # the fact the Bockstein floor cutoff is derived from
    for d in Window.square(80).degrees():
        if d[0] < 0 and d[0] + d[1] < 0:
            assert hz_summands(*d) == [], d


@pytest.mark.parametrize("surplus", (1, 8))
def test_floor_surplus_does_not_change_the_run(surplus):
    # reading 1 or 8 floors past the derived cutoff gives the same
    # survivor table, and the class at (9, -9) on floor 1 is in the chart
    for w in FLOOR_SCOPE_WINDOWS:
        cutoff = _floor_cutoff(w)
        want = theories._survivor_table(w, cutoff, theories._BaseTable())
        table = theories._survivor_table(w, cutoff + surplus, theories._BaseTable())
        assert table == want, w
        assert all(cls.floor <= cutoff for classes in table.values() for cls in classes), w
    assert run_bockstein(Window(4, 9, -14, -9)).chart.entry((9, -9)) is not None


@given(st.integers(-20, 20), st.integers(0, 7), st.integers(0, 7), st.integers(-12, 8))
@settings(max_examples=200, deadline=None)
def test_floor_cutoff_holds_every_class(xmin, width, height, top):
    # windows whose top right corner lies from 12 rows below to 8 rows
    # above the antidiagonal
    xmax = xmin + width
    ymax = -xmax + top
    w = Window(xmin, xmax, ymax - height, ymax)
    cutoff = _floor_cutoff(w)
    table = theories._survivor_table(w, cutoff + 8, theories._BaseTable())
    assert all(cls.floor <= cutoff for classes in table.values() for cls in classes)


def _hand_floor_survivors(floor, p):
    """The kernel/image combinatorics of theta, transcribed by hand per
    descriptor kind: the reference the computed floors must match."""
    out = []
    for desc in hz_summands(p[0], p[1]):
        kind = desc[0]
        if kind == "usq":
            out.append((desc, desc[1] % 2 == 1, 0))
        elif kind == "ucirc":
            out.append((desc, False, 0))
        elif kind == "ucol":
            k, j = desc[1], desc[2]
            if j % 2 == 1:
                continue  # not a cycle
            if floor == 0 or k <= 2:
                out.append((desc, False, 2))
        elif kind == "utow":
            j, y = desc[1], desc[2]
            if j % 2 == 1:
                if y <= 2 * j + 3:
                    out.append((desc, False, 2))
            elif floor == 0:
                out.append((desc, False, 2))
    return out


def test_floor_homology_matches_hand_rules():
    w = Window.square(40)
    table = theories._BaseTable()
    for floor in range(0, 31):
        for p in w.degrees():
            got = [(c.desc, c.index2, c.order)
                   for c in bss_floor_survivors(floor, p, table)]
            assert got == _hand_floor_survivors(floor, p), (floor, p)


def test_floors_follow_theta(monkeypatch):
    # make the odd tower class t(1,7) a cycle: it must survive at its base
    # degree on every floor, and the chart must stop matching the closed form
    w = Window.square(8)
    p = (-3, 7)  # the degree of t(1,7)
    assert not bss_floor_survivors(0, p, theories._BaseTable())
    assert diff(run_bockstein(w).chart, closed_form_kr(w)).clean
    real = theories.hz_map_image
    monkeypatch.setattr(theories, "hz_map_image", lambda name, desc: (
        [] if (name, desc) == ("theta", ("utow", 1, 7)) else real(name, desc)))
    # a table built after the patch: a table caches theta as it reads it
    table = theories._BaseTable()
    for floor in (0, 1, 5):
        assert [c.desc for c in bss_floor_survivors(floor, p, table)] == [("utow", 1, 7)]
    assert not diff(run_bockstein(w).chart, closed_form_kr(w)).clean


def test_survivor_table_holds_only_survivors():
    w = Window(-8, 8, -8, 6)
    floors = w.xmax + w.ymax + 4
    table = theories._survivor_table(w, floors, theories._BaseTable())
    brute, brute_table = {}, theories._BaseTable()
    for d in Window(w.xmin - 1, w.xmax, w.ymin, w.ymax).degrees():
        for s in range(floors + 1):
            classes = bss_floor_survivors(s, (d[0] - s, d[1] - s), brute_table)
            if classes:
                brute.setdefault(d, []).extend(classes)
    assert table == brute
    assert all(table.values())
    for classes in table.values():
        seen = [cls.floor for cls in classes]
        assert seen == sorted(seen)


def _plant_theta(monkeypatch, desc, img):
    real = theories.hz_map_image
    monkeypatch.setattr(theories, "hz_map_image", lambda name, d: (
        [(img, 1)] if (name, d) == ("theta", desc) else real(name, d)))


def test_theta_laws_hold_in_the_window(monkeypatch):
    # a^2 u^2 -> a^5 u, which theta sends on to a^8: theta o theta != 0
    # through (2, -7), where the floors above 0 divide by theta's image
    _plant_theta(monkeypatch, ("ucol", 2, 2), ("ucol", 5, 1))
    with pytest.raises(TheoryError) as err:
        run_bockstein(Window.square(8))
    assert str(err.value) == "theta o theta != 0 at base degree (2, -7)"


def test_theta_laws_hold_wherever_the_run_reads_theta(monkeypatch):
    # (4, -10), the degree of a^6 u^2, lies below the window, but the
    # floors above it reach into it
    w = Window.square(8)
    assert not w.contains((4, -10))
    _plant_theta(monkeypatch, ("ucol", 6, 2), ("ucol", 9, 1))
    with pytest.raises(TheoryError) as err:
        run_bockstein(w)
    assert str(err.value) == "theta o theta != 0 at base degree (2, -11)"


@pytest.mark.parametrize("desc, img, p", [
    (("ucol", 2, 2), ("ucol", 6, 1), (4, -6)),    # wrong degree
    (("utow", 1, 5), ("utow", 2, 4), (-3, 5)),    # into the zero group at (-5, 4)
])
def test_theta_lands_in_a_target_summand(monkeypatch, desc, img, p):
    assert img not in hz_summands(p[0] - 2, p[1] - 1)
    _plant_theta(monkeypatch, desc, img)
    with pytest.raises(TheoryError) as err:
        run_bockstein(Window.square(8))
    assert str(err.value) == (f"theta out of base degree {p}: "
                              f"{desc!r} maps to {img!r}, not a target summand")


def test_bockstein_reads_each_base_degree_once(monkeypatch):
    # one run asks for the summands of a degree once, builds each hz map
    # (theta, and a for the splitting rule) out of a degree once, and
    # computes each floor group (floor 0, or the floors above, at one base
    # degree) once
    class At(list):
        """A summand list that remembers its degree."""

    real_summands = theories.hz_summands
    real_matrix = theories.desc_matrix
    real_homology = theories.presented_homology
    THETA = MAP_DEGREES["theta"]
    asked, maps_out, groups = Counter(), Counter(), Counter()
    built = {}  # id of each theta matrix -> (degree, matrix), which keeps the id

    def summands(x, y):
        asked[x, y] += 1
        out = At(real_summands(x, y))
        out.degree = (x, y)
        return out

    def matrix(src, dst, image):
        mat = real_matrix(src, dst, image)
        shift = (dst.degree[0] - src.degree[0], dst.degree[1] - src.degree[1])
        maps_out[shift, src.degree] += 1
        if shift == THETA:
            built[id(mat)] = (src.degree, mat)
        return mat

    def homology(out, out_orders, into, orders):
        p = built[id(out)][0]
        upper = id(into) in built
        if upper:
            assert built[id(into)][0] == (p[0] - THETA[0], p[1] - THETA[1])
        groups[upper, p] += 1
        return real_homology(out, out_orders, into, orders)

    monkeypatch.setattr(theories, "hz_summands", summands)
    monkeypatch.setattr(theories, "desc_matrix", matrix)
    monkeypatch.setattr(theories, "presented_homology", homology)
    run_bockstein(Window(-40, 40, -40, 12))
    assert {shift for shift, _ in maps_out} == {THETA, MAP_DEGREES["a"]} and groups
    assert max(asked.values()) == 1
    assert max(maps_out.values()) == 1
    assert max(groups.values()) == 1


def test_higher_candidates_decide_hom_per_pair():
    # the candidate list is the pairwise Hom test's, in content and order,
    # over every floor the table holds: no d_r is too long to be searched
    for radius, count, shapes in ((16, 1, {5}), (40, 40, {5, 9, 13, 17})):
        w = Window.square(radius)
        table = theories._survivor_table(w, w.xmax + w.ymax + 4, theories._BaseTable())
        brute = []
        for d in w.degrees():
            for cls in table.get(d, []):
                for tgt in table.get((d[0] - 1, d[1]), []):
                    r = tgt.floor - cls.floor
                    if r >= 2 and has_nonzero_hom(FgAbelian.from_orders([cls.order]),
                                                  FgAbelian.from_orders([tgt.order])):
                        brute.append((r, d, cls, tgt))
        assert len(brute) == count and {r for r, *_ in brute} == shapes, radius
        assert theories.bss_higher_candidates(w, table) == brute, radius


def test_hz_order_is_the_generator_order():
    for d in Window.square(40).degrees():
        for variant in ("genuine", "hfp"):
            for desc in hz_summands(*d, variant=variant):
                assert hz_order(desc) == hz_generator(desc).order, desc
    with pytest.raises(ChartError):
        hz_order(("nope", 1))


# ---------------------------------------------------------------------------
# slices
# ---------------------------------------------------------------------------

def test_slice_entries():
    assert sss_entry_e1(0, 0) == Z
    assert sss_entry_e1(1, 1) == F2
    assert sss_entry_e1(-2, 0) == FgAbelian.zero()
    assert sss_entry_e1(2, 1) == FgAbelian.zero()  # odd parity
    # along the display diagonal from (2,0) the first class appears two
    # floors up, where it is the square of the formal variable times x
    assert sss_entry_e1(*bss_to_sss(2, 0)) == FgAbelian.zero()
    assert sss_entry_e1(*bss_to_sss(3, 1)) == FgAbelian.zero()
    assert sss_entry_e1(*bss_to_sss(4, 2)) == Z
    assert sss_entry_einf(4, 0) == Z
    assert sss_entry_einf(3, 3) == FgAbelian.zero()  # eta^3 dies


def test_slice_transform_round_trip():
    for xb in range(-9, 10):
        for yb in range(-9, 10):
            assert sss_to_bss(*bss_to_sss(xb, yb)) == (xb, yb)
    with pytest.raises(TheoryError):
        sss_to_bss(1, 0)


def test_slice_totals_reproduce_ko():
    ko = ["Z", "Z/2", "Z/2", "0", "Z", "0", "0", "0", "Z"]
    for n in range(9):
        groups = [sss_entry_einf(n, s) for s in range(0, 40)]
        total = FgAbelian.from_orders([0] * sum(g.rank for g in groups)
                                      + [t for g in groups for t in g.torsion])
        assert str(total) == ko[n], n


# ---------------------------------------------------------------------------
# checkers
# ---------------------------------------------------------------------------

def test_gap_and_connectivity_pass_on_closed_forms():
    w = Window.square(12)
    for chart in (closed_form_hz(w), closed_form_kr(w)):
        assert gap_check(chart).passed
        assert connectivity_check(chart).passed


def test_mutation_is_caught_with_its_degree():
    w = Window.square(6)
    mutated = inject_class(closed_form_hz(w), (-1, 1))
    rep = gap_check(mutated)
    assert not rep.passed
    assert rep.violations[0][0] == (-1, 1)


def test_tate_chart_fails_connectivity():
    data = run_tate_pipeline(hz_seed(), Window.square(4))
    rep = connectivity_check(data.tate)
    assert not rep.passed
