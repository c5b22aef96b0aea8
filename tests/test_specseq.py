"""The page engine: monomial bases, Leibniz differentials, page turns."""

import functools
import itertools
import re
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from roqcharts import exactalg, specseq
from roqcharts.exactalg import FgAbelian, PresentedGroup, has_nonzero_hom
from roqcharts.grading import (Window, hz_generator, hz_summands,
                               kr_generator, kr_summands)
from roqcharts.specseq import (CollapseError, DifferentialError,
                               DifferentialRule, Page, PageGenerator,
                               Presentation, PresentationError,
                               collapse_to_chart, find_candidates,
                               lambda_period, rule_shift)
from roqcharts.theories import build_pages, hz_seed, kr_seed, run_hfpss


Z = FgAbelian.free(1)
F2 = FgAbelian.cyclic(2)


def hz_pres():
    return Presentation((PageGenerator("a", (-1, 1, -1)),
                         PageGenerator("lam", (0, 1, -1), invertible=True)))


D1 = DifferentialRule(source=(("lam", 1),), coeff=2, target=(("a", 1),))


@functools.cache
def pages(theory: str) -> tuple:
    """E_1 and the turned pages of a theory, built once for the tests here."""
    return tuple(build_pages(hz_seed() if theory == "hz" else kr_seed()))


# ---------------------------------------------------------------------------
# presentations and monomial bases
# ---------------------------------------------------------------------------

def test_presentation_rejects_two_invertibles():
    with pytest.raises(PresentationError):
        Presentation((PageGenerator("x", (0, 1, -1), True),
                      PageGenerator("y", (0, 2, -2), True)))


def test_presentation_rejects_nonfinite_generator():
    with pytest.raises(PresentationError):
        Presentation((PageGenerator("x", (1, 1, 1)),))
    with pytest.raises(PresentationError):
        Presentation((PageGenerator("x", (0, 1, -1)),))  # s=0, t+b=0 not invertible


def test_monomial_basis_free_on_a_and_lambda():
    p = Page(hz_pres())
    assert p.monomials_at((-2, 3, -3)) == ((2, 1),)       # a^2 lam
    assert p.monomials_at((0, -3, 3)) == ((0, -3),)       # lam^-3
    assert p.monomials_at((0, 0, 0)) == ((0, 0),)
    assert p.monomials_at((1, 0, 0)) == ()
    assert p.monomials_at((-1, 2, 0)) == ()


def test_empty_alphabet_unit_only():
    p = Page(Presentation(()))
    assert p.monomials_at((0, 0, 0)) == ((),)
    assert p.monomials_at((0, 1, -1)) == ()


def test_monomial_bases_match_brute_force():
    # b moves both residuals but is the last to move neither
    pres = Presentation((PageGenerator("b", (-2, 1, 1)),
                         PageGenerator("a", (-1, 1, -1)),
                         PageGenerator("c", (0, 2, 1)),
                         PageGenerator("lam", (0, 1, -1), invertible=True)))
    page = Page(pres)
    by_tri: dict = {}
    for mono in itertools.product(range(4), range(7), range(6), range(-20, 21)):
        by_tri.setdefault(pres.tridegree_of(mono), []).append(mono)
    for tri in itertools.product(range(-6, 1), range(-4, 9), range(-6, 7)):
        assert page.monomials_at(tri) == tuple(sorted(by_tri.get(tri, []))), tri


@st.composite
def twin_alphabets(draw):
    """A valid alphabet whose first generator x has a twin y at the same
    s and t + b: y = x lam^j with lam the invertible generator, if there
    is one, else y = x.  So the tridegree of x has at least two monomials."""
    gens = []
    for i in range(draw(st.integers(min_value=1, max_value=3))):
        s = draw(st.integers(min_value=-2, max_value=0))
        tb = draw(st.integers(min_value=0 if s else 1, max_value=2))
        t = draw(st.integers(min_value=-2, max_value=2))
        gens.append(PageGenerator(f"g{i}", (s, t, tb - t)))
    lt = draw(st.sampled_from([0, 1, -1, 2, 3]))
    s, t, b = gens[0].tridegree
    j = draw(st.integers(min_value=1, max_value=2)) if lt else 0
    gens.append(PageGenerator("y", (s, t + j * lt, b - j * lt)))
    if lt:
        gens.append(PageGenerator("lam", (0, lt, -lt), invertible=True))
    return Presentation(tuple(draw(st.permutations(gens))))


@given(twin_alphabets())
@settings(max_examples=40, deadline=None)
def test_monomial_bases_match_box_enumeration(pres):
    # every monomial at s >= -3, t + b <= 3, |t| <= 3 has non-invertible
    # exponents at most 3 (each generator moves s down or t + b up by at
    # least 1), so an invertible exponent of size at most 3 + 3 * (2 + 2 +
    # 2 + 8), the twin's t being at most 8 in size
    page = Page(pres)
    ranges = [range(-45, 46) if g.invertible else range(4) for g in pres.generators]
    by_tri: dict = {}
    for mono in itertools.product(*ranges):
        by_tri.setdefault(pres.tridegree_of(mono), []).append(mono)
    for s, tb, t in itertools.product(range(-3, 1), range(0, 4), range(-3, 4)):
        tri = (s, t, tb - t)
        assert page.monomials_at(tri) == tuple(sorted(by_tri.get(tri, []))), tri
    x = next(g for g in pres.generators if g.name == "g0")
    assert len(page.monomials_at(x.tridegree)) >= 2


def test_first_page_states_are_shared_per_basis_size():
    # E_1 keeps no state per tridegree: every spot with an n-monomial
    # basis gets the one free state of rank n, the empty spots included
    pres = Presentation((PageGenerator("a", (-1, 1, -1)),
                         PageGenerator("c", (-1, 2, -2)),
                         PageGenerator("lam", (0, 1, -1), invertible=True)))
    page = Page(pres)
    by_size: dict = {}
    for tri in itertools.product(range(-4, 1), range(-3, 4), range(-6, 4)):
        state = page.state(tri)
        assert by_size.setdefault(len(page.monomials_at(tri)), state) is state, tri
    assert by_size[0] is PresentedGroup.full_free(0)
    assert set(by_size) == {0, 1, 2, 3, 4, 5}
    assert all(state.group == FgAbelian.free(n) for n, state in by_size.items())
    assert not page._state_memo


def test_kr_monomials():
    pres = Presentation((PageGenerator("a", (-1, 1, -1)),
                         PageGenerator("vb", (0, 1, 1)),
                         PageGenerator("lam", (0, 1, -1), invertible=True)))
    p = Page(pres)
    assert p.monomials_at((-3, 4, -2)) == ((3, 1, 0),)    # a^3 vb
    assert p.monomials_at((0, 2, -2)) == ((0, 0, 2),)     # lam^2


# ---------------------------------------------------------------------------
# differentials
# ---------------------------------------------------------------------------

def test_rule_shift_validation():
    r, shift = rule_shift(hz_pres(), D1)
    assert (r, shift) == (1, (-1, 0, 0))
    bad = DifferentialRule(source=(("lam", 1),), coeff=1,
                           target=(("a", 2),))
    with pytest.raises(DifferentialError):
        rule_shift(hz_pres(), bad)


def test_kr_second_round_has_honest_shape_three():
    seed = kr_seed()
    r, shift = rule_shift(seed.presentation, seed.rules[1])
    assert (r, shift) == (3, (-3, 2, 0))


def test_d1_alternates_on_lambda_powers():
    page = Page(hz_pres()).turn(D1)
    # odd powers die, even powers survive as cycles
    for j in range(-6, 7):
        tri = (0, j, -j)
        g = page.state(tri).group
        assert g == (Z if j % 2 == 0 else FgAbelian.zero()), j
    assert page.is_cycle({"lam": 2})       # the square is a cycle
    assert not page.is_cycle({"lam": 1})


def test_degree_mismatched_assignment_rejected():
    # both are rejected when the page is turned: the first has the wrong
    # shift, the second (d(a lam) = a^2) the d_1 shape but a source that
    # is not a power of one generator, so no Leibniz extension
    for rule in (DifferentialRule((("lam", 1),), 1, (("lam", 2),)),
                 DifferentialRule((("a", 1), ("lam", 1)), 1, (("a", 2),))):
        with pytest.raises(DifferentialError):
            Page(hz_pres()).turn(rule)


def test_rounds_come_in_increasing_shape():
    seed = kr_seed()
    d1, d3 = seed.rules
    with pytest.raises(DifferentialError) as err:
        Page(seed.presentation).turn(d3).turn(d1)
    assert "increasing shape" in str(err.value)
    assert Page(seed.presentation).turn(d1).turn(d3).shape == 3


def test_undefined_class_is_refused():
    # kr's d(lam^2) = a^3 vb turned straight from E_1: a class with an odd
    # power of lam does not factor as a power of lam^2 times cycles
    seed = kr_seed()
    for tri, name in (((0, 1, -1), "lam"), ((-3, 3, -1), "a^3 vb lam^-1")):
        with pytest.raises(DifferentialError) as err:
            Page(seed.presentation).turn(seed.rules[1]).state(tri)
        assert str(err.value) == \
            f"d undefined on live class involving {name} (cycle basis)"


def test_square_nonzero_rejected_with_witness():
    # d(lam) = a^3 vb lam^-1 has the legal r = 3 shape but fails d o d = 0
    pres = Presentation((PageGenerator("a", (-1, 1, -1)),
                         PageGenerator("vb", (0, 1, 1)),
                         PageGenerator("lam", (0, 1, -1), invertible=True)))
    rule = DifferentialRule(source=(("lam", 1),), coeff=1,
                            target=(("a", 3), ("vb", 1), ("lam", -1)))
    assert rule_shift(pres, rule)[0] == 3
    page = Page(pres)
    with pytest.raises(DifferentialError) as err:
        find_candidates(page.turn(rule), Window.square(2))
    assert "d o d" in str(err.value)


def test_zero_assignment_is_identity_turn():
    rule = DifferentialRule(source=(("lam", 1),), coeff=0,
                            target=(("a", 1),))
    before = Page(hz_pres())
    after = before.turn(rule)
    for tri in [(0, 1, -1), (-2, 3, -1), (0, -4, 4), (-1, 1, -1)]:
        assert after.state(tri).group == before.state(tri).group


def test_branches_from_one_page_keep_their_own_states():
    # two rounds turned from the same page must not share their states
    e1 = Page(hz_pres())
    zero = DifferentialRule(source=(("lam", 1),), coeff=0,
                            target=(("a", 1),))
    killed = e1.turn(D1)
    kept = e1.turn(zero)
    tri = (0, 1, -1)
    assert killed.state(tri).group.is_zero()
    assert kept.state(tri).group == Z
    assert killed.state(tri).group.is_zero()
    assert e1.state(tri).group == Z


# ---------------------------------------------------------------------------
# the two theories degreewise
# ---------------------------------------------------------------------------

def expected_hz_e2(x, y):
    return FgAbelian.from_orders(
        [hz_generator(k).order for k in hz_summands(x, y, variant="hfp")])


def expected_kr_e3(x, y):
    return FgAbelian.from_orders(
        [kr_generator(k).order for k in kr_summands(x, y, variant="hfp")])


def test_hz_e2_degreewise():
    w = Window.square(10)
    chart = collapse_to_chart(pages("hz")[-1], w, "e2")
    for d in w.degrees():
        assert chart.group(d) == expected_hz_e2(*d), d


def test_kr_e3_degreewise():
    w = Window.square(10)
    chart = collapse_to_chart(pages("kr")[-1], w, "e3")
    for d in w.degrees():
        assert chart.group(d) == expected_kr_e3(*d), d


def test_no_remaining_candidates():
    w = Window.square(10)
    assert find_candidates(pages("hz")[-1], w) == []
    assert find_candidates(pages("kr")[-1], w) == []


def _spy_scanned(monkeypatch) -> list:
    """The pages scanned for live spots, in order: `_orbits` is called once
    per page the certificate searches; the chart readout reuses the last
    page's scan."""
    scanned = []
    orbits = specseq._orbits

    def spy(page, window):
        scanned.append(page)
        return orbits(page, window)

    monkeypatch.setattr(specseq, "_orbits", spy)
    return scanned


def test_certificate_scans_every_page_after_the_first(monkeypatch):
    # hz E_2 answers for d_2..d_16; kr E_2 for d_2 alone (between its d_1
    # and d_3 rounds) and kr E_3 for d_4..d_16; no shape lies below the
    # first round, so E_1 is never scanned; each page is scanned once
    scanned = _spy_scanned(monkeypatch)
    for seed, want in ((hz_seed(), [1]), (kr_seed(), [1, 3])):
        scanned.clear()
        run_hfpss(seed, Window.square(4))
        assert [page.shape for page in scanned] == want, seed.name


def test_intermediate_page_answers_for_its_own_shapes(monkeypatch):
    # hz and kr never offer a d_2 target (every monomial has even t + b);
    # with c at (0, 1, 0) the planted E_2 does, and the search over the
    # whole chain reports those candidates from E_2, while it never tests
    # a shape at which a round was applied
    pres = Presentation((PageGenerator("a", (-1, 1, -1)),
                         PageGenerator("c", (0, 1, 0)),
                         PageGenerator("lam", (0, 1, -1), invertible=True)))
    d3 = DifferentialRule((("lam", 1),), 1,
                          (("a", 3), ("c", 2), ("lam", -2)))
    e2 = Page(pres).turn(D1)
    last = e2.turn(d3)
    scanned = _spy_scanned(monkeypatch)
    found = find_candidates(last, Window.square(3))
    assert scanned == [e2, last]
    d2 = [(src, dst) for r, src, dst in found if r == 2]
    assert len(d2) == 203
    assert all(has_nonzero_hom(e2.state(src).group, e2.state(dst).group)
               for src, dst in d2)
    assert {r for r, _, _ in found} <= {2} | set(range(4, specseq._R_CAP + 1))


def test_collapse_refuses_live_differential():
    # the first page of the integral theory still supports d1
    with pytest.raises(CollapseError) as err:
        collapse_to_chart(pages("hz")[0], Window.square(3), "raw")
    assert "d_1" in str(err.value)


def test_zero_band_certificate_scope(monkeypatch):
    # a scan too shallow for the window must be refused by the zero band,
    # naming the lowest live spot; the default depth passes on the same call
    for theory in ("hz", "kr"):
        collapse_to_chart(pages(theory)[-1], Window.square(4), "x")
    monkeypatch.setattr(specseq, "_SCAN_DEPTH", 3)
    for theory in ("hz", "kr"):
        with pytest.raises(CollapseError) as err:
            collapse_to_chart(pages(theory)[-1], Window.square(4), "x")
        assert "no zero band" in str(err.value)
        assert "(-4, -4)" in str(err.value) and "(-8, 4, -4)" in str(err.value)


def test_single_filtration_on_window():
    # every chart degree of both final pages sits in one filtration;
    # collapse_to_chart would raise otherwise, so reaching here suffices
    for theory in ("hz", "kr"):
        collapse_to_chart(pages(theory)[-1], Window.square(6), "ok")


# ---------------------------------------------------------------------------
# the lam^p-orbit certificate
# ---------------------------------------------------------------------------

def _shift(tri, k, p):
    return (tri[0], tri[1] + k * p, tri[2] - k * p)


def test_periodic_lookup_matches_direct_evaluation():
    # the premise of the orbit search: lam^p moves every spot state to an
    # isomorphic one, also far below the antidiagonal
    degrees = [(0, 0), (3, -1), (-5, 2), (8, 4), (7, -15), (-12, -12), (4, -20)]
    for theory in ("hz", "kr"):
        for page in pages(theory):
            p = lambda_period(page, 16)
            nonzero = set()
            for x, y in degrees:
                for s in range(0, min(0, x + y) - 3, -1):
                    tri = (s, x - s, y)
                    g = page.state(tri).group
                    if not g.is_zero():
                        nonzero.add((x, y))
                    for k in range(-3, 4):
                        assert page.state(_shift(tri, k, p)).group == g, (theory, tri, k)
            assert {(-12, -12), (4, -20)} <= nonzero, (theory, page.shape)


def test_class_memo_matches_direct_evaluation():
    # a page with a lam-period keeps one state per translation class,
    # evaluated at whichever tridegree of the class was asked for first;
    # at every tridegree of a box it is the state a direct evaluation
    # there gives, cycle and boundary matrices included
    assert [page.period for page in pages("hz")[1:]] == [2]
    assert [page.period for page in pages("kr")[1:]] == [2, None]
    box = [(s, t, tb - t) for s in range(-12, 1) for tb in range(0, 14)
           for t in range(-12, 13)]
    for theory in ("hz", "kr"):
        for page in pages(theory)[1:]:
            for tri in box:
                shared, direct = page.state(tri), page._evaluate(tri)
                assert shared.cycles == direct.cycles, (theory, page.shape, tri)
                assert shared.rels == direct.rels, (theory, page.shape, tri)
                assert shared.group == direct.group, (theory, page.shape, tri)


def test_page_without_invertible_generator_keeps_states_per_tridegree():
    # with no invertible generator there is no translation class: the
    # odd round d(c) = a e still turns, every state is memoized under its
    # own tridegree, and the page certifies and reads off Z[c^2] (x) Z[a, e]
    # / (a e) at the even columns x >= 0
    pres = Presentation((PageGenerator("a", (-1, 1, -1)),
                         PageGenerator("c", (0, 1, 0)),
                         PageGenerator("e", (0, 0, 1))))
    e1 = Page(pres)
    e2 = e1.turn(DifferentialRule((("c", 1),), 1, (("a", 1), ("e", 1))))
    assert e1.period is None and e2.period is None
    w = Window.square(4)
    chart = collapse_to_chart(e2, w, "x")
    assert set(chart.entries) == {d for d in w.degrees() if d[0] >= 0 and d[0] % 2 == 0}
    assert all(chart.group(d) == Z for d in chart.entries)
    assert e2._state_memo
    for tri, state in e2._state_memo.items():
        assert state == e2._evaluate(tri), tri


def test_readout_checks_shared_spots_independently(monkeypatch):
    # on hz E_2 a degree's live spot is a lam^2-translate of its orbit
    # representative's and shares its memoized state; the readout checks
    # such a spot against a direct evaluation, so a wrong evaluation
    # there is caught and named
    page, w = build_pages(hz_seed())[-1], Window.square(6)
    chart = collapse_to_chart(page, w, "hz")
    orbit, rep_live = specseq._scan(page, w)
    d, (rep, shift) = next((d, orbit(d)) for d in w.degrees()
                           if orbit(d)[0] != d and d in chart.entries)
    spot = specseq._add_tri(rep_live[rep][0], shift)
    assert page.state(spot) is page.state(rep_live[rep][0])
    evaluate = page._evaluate
    monkeypatch.setattr(page, "_evaluate", lambda tri: PresentedGroup.full_free(3)
                        if tri == spot else evaluate(tri))
    with pytest.raises(CollapseError) as err:
        collapse_to_chart(page, w, "hz")
    assert f"degree {d}:" in str(err.value) and str(spot) in str(err.value)


def test_scan_builds_nothing_for_empty_filtrations():
    # live_tridegrees asks for no state at a filtration with no monomial
    # exponents, and finds the same live spots as a full scan
    class Spy:
        def __init__(self, page):
            self.page, self.asked = page, []

        def __getattr__(self, name):
            return getattr(self.page, name)

        def state(self, tri):
            self.asked.append(tri)
            return self.page.state(tri)

    for theory in ("hz", "kr"):
        for page in pages(theory):
            spy = Spy(page)
            for d in Window.square(6).degrees():
                live = specseq.live_tridegrees(spy, d)
                full = [(s, d[0] - s, d[1])
                        for s in range(0, specseq._scan_floor(d) - 1, -1)]
                assert live == [tri for tri in full
                                if not page.state(tri).group.is_zero()], (theory, d)
            assert spy.asked, theory
            assert all(page._solve(tri) for tri in spy.asked), theory


def test_chain_keeps_no_basis_table():
    # after a full readout the chain keeps its spot states and the shared
    # exponent solutions (one entry per (s, t + b), lam's t being 1) and
    # no table of bases; the bases it builds from the solutions are still
    # the brute-force enumeration
    w = Window.square(6)
    for seed in (hz_seed(), kr_seed()):
        chain = build_pages(seed)
        collapse_to_chart(chain[-1], w, seed.name, map_monos=seed.map_monos)
        for page in chain:
            tables = {name for name, value in vars(page).items() if isinstance(value, dict)}
            assert tables == {"_state_memo", "_solve_memo"}, seed.name
            assert page._solve_memo is chain[0]._solve_memo
            assert all(isinstance(st, PresentedGroup) for st in page._state_memo.values())
        assert chain[0]._solve_memo and {key[2] for key in chain[0]._solve_memo} == {0}
        pres = seed.presentation
        by_tri: dict = {}
        ranges = [range(-40, 41) if g.invertible else range(13) for g in pres.generators]
        for mono in itertools.product(*ranges):
            by_tri.setdefault(pres.tridegree_of(mono), []).append(mono)
        for s in range(-12, 1):
            for x, y in w.degrees():
                tri = (s, x - s, y)
                assert chain[-1].monomials_at(tri) == tuple(sorted(by_tri.get(tri, []))), tri


def test_hfpss_peak_memory_stays_under_ceiling():
    # the chain keeps spot states and exponent solutions alone: a kr
    # fixed-point run on the padded window of a radius-12 Tate job, cold
    # caches, peaks at about 1.67 MB traced when run alone (1.47 MB after
    # the other tests; 3.23 MB while the chain kept its bases and orbit
    # tables)
    exactalg.cache_clear()
    tracemalloc.start()
    try:
        run_hfpss(kr_seed(), Window(-16, 16, -20, 16))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * 1.67e6, peak


def test_period_comes_from_the_page():
    # the final-page periods are the column steps 2 and 4 of the Tate
    # charts, which the verify axes check tests on its own
    assert [lambda_period(page, 16) for page in pages("hz")] == [1, 2]
    assert [lambda_period(page, 16) for page in pages("kr")] == [1, 2, 4]
    # nothing is found below the least period
    assert lambda_period(pages("hz")[-1], 1) is None
    assert lambda_period(pages("kr")[-1], 3) is None


def _orbit_table(page, window):
    """Every window degree with its orbit's representative and shift, as a
    table built by walking the window: the first degree in window order
    with the same key (x + y, y mod step) is the representative."""
    lam = page.pres.invertible
    extent = min(window.xmax - window.xmin, window.ymax - window.ymin)
    p = lambda_period(page, extent // abs(lam.tridegree[1]) if lam else 0)
    step = p * lam.tridegree[1] if p else window.ymax - window.ymin + 1
    first, table = {}, {}
    for d in window.degrees():
        rep = first.setdefault((d[0] + d[1], d[1] % step), d)
        k = (rep[1] - d[1]) // step
        table[d] = (rep, (0, k * step, -k * step))
    return table


def test_orbit_rule_matches_the_orbit_table():
    # the rule gives each degree the representative and shift a table
    # walked over the window gives, on every searched hz and kr page, a
    # page without an invertible generator and one whose lam has t < 0
    no_lam = Page(Presentation((PageGenerator("a", (-1, 1, -1)),)))
    neg_lam = Page(Presentation((PageGenerator("a", (-1, 1, -1)),
                                 PageGenerator("lam", (0, -1, 1), invertible=True))))
    windows = [Window.square(6), Window(-3, 4, -5, 2), Window(0, 3, 0, 9),
               Window(-16, 16, -20, 16), Window(-2, 9, -14, -1), Window(5, 5, -3, 3)]
    for page in (pages("hz")[1], pages("kr")[1], pages("kr")[2], no_lam, neg_lam):
        for w in windows:
            orbit = specseq._orbits(page, w)
            assert {d: orbit(d) for d in w.degrees()} == _orbit_table(page, w), (page, w)


def test_no_invertible_generator_gives_single_degree_orbits():
    page = Page(Presentation((PageGenerator("a", (-1, 1, -1)),)))
    assert lambda_period(page, 16) is None
    w = Window(-3, 4, -5, 2)
    orbit = specseq._orbits(page, w)
    assert all(orbit(d) == (d, (0, 0, 0)) for d in w.degrees())
    # a period longer than the window does the same
    w = Window(0, 3, 0, 9)
    orbit = specseq._orbits(pages("kr")[-1], w)
    assert all(orbit(d) == (d, (0, 0, 0)) for d in w.degrees())


def test_orbit_search_matches_exhaustive_search(monkeypatch):
    page, w = pages("hz")[0], Window.square(6)
    p = lambda_period(page, 12)
    by_orbit = set(find_candidates(page, w))
    monkeypatch.setattr(specseq, "lambda_period", lambda page, limit: None)
    exhaustive = set(find_candidates(page, w))
    assert by_orbit and by_orbit < exhaustive
    for r, src, dst in exhaustive:
        assert any((r, _shift(src, k, p), _shift(dst, k, p)) in by_orbit
                   for k in range(-13, 14)), (r, src, dst)


@pytest.mark.parametrize("theory,period", [("hz", 1), ("kr", 1), ("kr", 2)])
def test_wrong_period_fails_loudly(monkeypatch, theory, period):
    monkeypatch.setattr(specseq, "lambda_period", lambda page, limit: period)
    with pytest.raises(CollapseError) as err:
        collapse_to_chart(pages(theory)[-1], Window.square(6), "x")
    assert re.search(r"\(-?\d+, -?\d+, -?\d+\)", str(err.value))


def test_multiple_of_the_period_gives_the_same_chart(monkeypatch):
    w = Window.square(8)
    chart = run_hfpss(kr_seed(), w)
    monkeypatch.setattr(specseq, "lambda_period", lambda page, limit: 8)
    again = run_hfpss(kr_seed(), w)
    assert again.entries == chart.entries and again.maps == chart.maps


def test_leftover_candidate_named_in_window():
    w = Window(3, 6, -9, -5)
    with pytest.raises(CollapseError) as err:
        collapse_to_chart(pages("hz")[0], w, "raw")
    msg = str(err.value)
    s, t, b = map(int, re.search(r"from \((-?\d+), (-?\d+), (-?\d+)\)", msg).groups())
    assert w.contains((s + t, b)), msg
    assert "d_1" in msg and "orbits" in msg and "in window" not in msg


# ---------------------------------------------------------------------------
# the Leibniz rule on products
# ---------------------------------------------------------------------------

mono_exp = st.integers(min_value=0, max_value=5)
lam_exp = st.integers(min_value=-5, max_value=5)


@given(mono_exp, lam_exp, mono_exp, lam_exp)
@settings(max_examples=120, deadline=None)
def test_leibniz_mod_two_on_products(a1, l1, a2, l2):
    """d(mn) = d(m) n + (-1)^{deg m} m d(n) with the Koszul sign on total
    degree; coefficients are compared mod 2, which is exactly what the
    two-torsion targets of these theories can see."""
    page = Page(hz_pres()).turn(D1)

    def d(mono):
        # the round on the single monomial mono, as a one-cycle state
        img = tuple(x + y for x, y in zip(mono, page._step))
        mat = page._d_of_cycles(PresentedGroup.full_free(1), (mono,), (img,), "mono")
        return {} if mat is None else {img: mat.entries[0][0]}

    def mul(mono, other):
        return tuple(x + y for x, y in zip(mono, other))

    m, n = (a1, l1), (a2, l2)
    lhs = d(mul(m, n))
    sign = -1 if (sum(m) % 2) else 1  # total degree of a^i lam^j is i + j...
    rhs: dict = {}
    for mono, c in d(m).items():
        rhs[mul(mono, n)] = rhs.get(mul(mono, n), 0) + c
    for mono, c in d(n).items():
        rhs[mul(m, mono)] = rhs.get(mul(m, mono), 0) + sign * c
    keys = set(lhs) | set(rhs)
    for k in keys:
        assert (lhs.get(k, 0) - rhs.get(k, 0)) % 2 == 0
