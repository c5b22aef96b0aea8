"""Seeds, the theta operation, the Bockstein run, slices, checkers."""

from collections import Counter

import pytest

from roqcharts import theories
from roqcharts.exactalg import FgAbelian, has_nonzero_hom
from roqcharts.grading import (ChartError, Window, closed_form_hz, closed_form_kr,
                               hz_degree, hz_generator, hz_order, hz_summands)
from roqcharts.chartio import diff
from roqcharts.specseq import find_candidates
from roqcharts.theories import (TheoryError, TheorySeed, bss_floor_survivors,
                                bss_to_sss, build_pages, connectivity_check,
                                gap_check, hz_seed,
                                inject_class, kr_seed, run_bockstein,
                                run_hfpss, run_tate_pipeline,
                                sss_entry_e1, sss_entry_einf, sss_to_bss,
                                THETA_DEGREE, theta_apply)

Z = FgAbelian.free(1)
F2 = FgAbelian.cyclic(2)


# ---------------------------------------------------------------------------
# seeds
# ---------------------------------------------------------------------------

def test_seeds_parse_from_declarative_text():
    hz = hz_seed()
    assert hz.name == "hz" and hz.connective
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
    broken = TheorySeed(seed.name, seed.presentation, seed.rules, seed.connective,
                        {**seed.map_monos, "u": {"lam": 2}})
    with pytest.raises(TheoryError, match="structure maps u are not"):
        run_hfpss(broken, Window.square(4))


def test_collapse_certificates_empty():
    for seed in (hz_seed(), kr_seed()):
        assert find_candidates(build_pages(seed)[-1], Window.square(8)) == [], \
            seed.name


# ---------------------------------------------------------------------------
# theta
# ---------------------------------------------------------------------------

def test_theta_values():
    assert theta_apply(("usq", 1)) == ("ucol", 3, 0)          # u -> a^3
    assert theta_apply(("usq", 2)) is None                     # u^2 -> 0
    assert theta_apply(("ucol", 2, 3)) == ("ucol", 5, 2)       # a^2 u^3 -> a^5 u^2
    assert theta_apply(("ucirc", 1)) is None                   # 2u^-1 -> 0
    assert theta_apply(("utow", 1, 6)) == ("utow", 2, 5)
    assert theta_apply(("utow", 1, 5)) is None                 # stub survives
    assert theta_apply(("utow", 2, 9)) is None                 # even towers are cycles


def test_theta_degree_and_square():
    w = Window.square(12)
    for d in w.degrees():
        from roqcharts.grading import hz_summands
        for desc in hz_summands(d[0], d[1]):
            img = theta_apply(desc)
            if img is None:
                continue
            src, dst = hz_degree(desc), hz_degree(img)
            assert (dst[0] - src[0], dst[1] - src[1]) == (-2, -1)
            assert theta_apply(img) is None


def test_theta_unknown_generator_rejected():
    with pytest.raises(TheoryError):
        theta_apply(("mystery", 1))


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
    full = [c.desc for c in bss_floor_survivors(0, (-5, 9))]
    assert ("utow", 2, 9) in full
    gone = [c.desc for c in bss_floor_survivors(1, (-5, 9))]
    assert ("utow", 2, 9) not in gone


def test_bockstein_rejects_negative_padding():
    with pytest.raises(TheoryError):
        run_bockstein(Window.square(2), padding=-1)


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
    for floor in range(0, 31):
        for p in w.degrees():
            got = [(c.desc, c.index2, c.order)
                   for c in bss_floor_survivors(floor, p)]
            assert got == _hand_floor_survivors(floor, p), (floor, p)


def test_floors_follow_theta(monkeypatch):
    # make the odd tower class t(1,7) a cycle: it must survive at its base
    # degree on every floor, and the chart must stop matching the closed form
    w = Window.square(8)
    p = hz_degree(("utow", 1, 7))
    assert not bss_floor_survivors(0, p)
    assert diff(run_bockstein(w).chart, closed_form_kr(w)).clean
    real = theories.theta_apply
    monkeypatch.setattr(theories, "theta_apply",
                        lambda desc: None if desc == ("utow", 1, 7) else real(desc))
    for floor in (0, 1, 5):
        assert [c.desc for c in bss_floor_survivors(floor, p)] == [("utow", 1, 7)]
    assert not diff(run_bockstein(w).chart, closed_form_kr(w)).clean


def test_survivor_table_holds_only_survivors():
    w = Window(-8, 8, -8, 6)
    floors = w.xmax + w.ymax + 4
    table = theories._survivor_table(w, floors, theories._BaseTable())
    brute = {}
    for d in Window(w.xmin - 1, w.xmax, w.ymin, w.ymax).degrees():
        for s in range(floors + 1):
            classes = bss_floor_survivors(s, (d[0] - s, d[1] - s))
            if classes:
                brute.setdefault(d, []).extend(classes)
    assert table == brute
    assert all(table.values())
    for classes in table.values():
        seen = [cls.floor for cls in classes]
        assert seen == sorted(seen)


def _plant_theta(monkeypatch, desc, img):
    real = theories.theta_apply
    monkeypatch.setattr(theories, "theta_apply",
                        lambda d: img if d == desc else real(d))


def test_theta_laws_hold_in_the_window(monkeypatch):
    _plant_theta(monkeypatch, ("ucol", 2, 2), ("ucol", 5, 1))
    with pytest.raises(TheoryError) as err:
        run_bockstein(Window.square(8))
    assert str(err.value) == ("theta law violations: "
                              "[\"theta squared nonzero on ('ucol', 2, 2)\"]")


def test_theta_laws_hold_wherever_the_run_reads_theta(monkeypatch):
    # (4, -10) lies below the window, but the floors above it reach into it
    w = Window.square(8)
    assert not w.contains(hz_degree(("ucol", 6, 2)))
    _plant_theta(monkeypatch, ("ucol", 6, 2), ("ucol", 9, 1))
    with pytest.raises(TheoryError) as err:
        run_bockstein(w)
    assert str(err.value) == ("theta law violations: "
                              "[\"theta squared nonzero on ('ucol', 6, 2)\"]")


def test_bockstein_reads_each_base_degree_once(monkeypatch):
    # one run asks for the summands of a degree once, builds theta out of
    # a degree once, and computes each floor group (floor 0, or the floors
    # above, at one base degree) once
    class At(list):
        """A summand list that remembers its degree."""

    real_summands = theories.hz_summands
    real_matrix = theories.desc_matrix
    real_homology = theories.presented_homology
    asked, theta_out, groups = Counter(), Counter(), Counter()
    built = {}  # id of each theta matrix -> (degree, matrix), which keeps the id

    def summands(x, y):
        asked[x, y] += 1
        out = At(real_summands(x, y))
        out.degree = (x, y)
        return out

    def matrix(src, dst, image):
        mat = real_matrix(src, dst, image)
        if (dst.degree[0] - src.degree[0], dst.degree[1] - src.degree[1]) == THETA_DEGREE:
            theta_out[src.degree] += 1
            built[id(mat)] = (src.degree, mat)
        return mat

    def homology(out, out_orders, into, orders):
        p = built[id(out)][0]
        upper = id(into) in built
        if upper:
            assert built[id(into)][0] == (p[0] - THETA_DEGREE[0], p[1] - THETA_DEGREE[1])
        groups[upper, p] += 1
        return real_homology(out, out_orders, into, orders)

    monkeypatch.setattr(theories, "hz_summands", summands)
    monkeypatch.setattr(theories, "desc_matrix", matrix)
    monkeypatch.setattr(theories, "presented_homology", homology)
    run_bockstein(Window(-40, 40, -40, 12))
    assert theta_out and groups
    assert max(asked.values()) == 1
    assert max(theta_out.values()) == 1
    assert max(groups.values()) == 1


def test_higher_candidates_decide_hom_per_pair():
    # the candidate list is the pairwise Hom test's, in content and order
    w = Window.square(16)
    table = theories._survivor_table(w, w.xmax + w.ymax + 4, theories._BaseTable())
    brute = []
    for d in w.degrees():
        for cls in table.get(d, []):
            for tgt in table.get((d[0] - 1, d[1]), []):
                r = tgt.floor - cls.floor
                if 2 <= r <= 12 and has_nonzero_hom(FgAbelian.from_orders([cls.order]),
                                                    FgAbelian.from_orders([tgt.order])):
                    brute.append((r, d, cls, tgt))
    assert brute
    assert theories.bss_higher_candidates(w, table) == brute


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
    data = run_tate_pipeline(hz_seed(), Window.square(4), padding=2)
    rep = connectivity_check(data.tate)
    assert not rep.passed
