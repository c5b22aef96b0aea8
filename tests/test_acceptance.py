"""Acceptance suite: one test per criterion, at the stated tolerance.

Group comparisons are exact (isomorphism of invariant-factor normal
forms) everywhere; timings are wall-clock with all memo caches cleared
first, single-threaded.
"""

import functools
import random
import time

from roqcharts.cells import cellular_chart_hz
from roqcharts.chartio import diff, parse, render, serialize
from roqcharts.cli import main
from roqcharts import exactalg, theories
from roqcharts.exactalg import FgAbelian
from roqcharts.grading import (Chart, ChartEntry, Generator, Window, CIRCLE,
                               DOT, SQUARE, closed_form_hz, closed_form_kr,
                               hz_generator, hz_map_image, hz_summands,
                               kr_generator, kr_summands)
from roqcharts.theories import (bss_floor_survivors, bss_to_sss,
                                connectivity_check, gap_check, hz_seed,
                                inject_class, kr_seed, run_bockstein,
                                run_tate_pipeline, sss_entry_e1,
                                sss_entry_einf, sss_to_bss)
from roqcharts.theories import build_pages
from roqcharts.specseq import collapse_to_chart, find_candidates
from roqcharts.tate import TateSquareData

WINDOW = Window.square(12)
Z = FgAbelian.free(1)
F2 = FgAbelian.cyclic(2)


@functools.cache
def _square(theory: str) -> TateSquareData:
    """The Tate square on WINDOW, built once for the criteria that read it."""
    seed = hz_seed() if theory == "hz" else kr_seed()
    return run_tate_pipeline(seed, WINDOW)


def _cold():
    _square.cache_clear()
    exactalg.cache_clear()


def test_criterion_01_hz_triple_equality():
    _cold()
    t0 = time.monotonic()
    cells = cellular_chart_hz(WINDOW, threads=1)
    tate = _square("hz").genuine
    closed = closed_form_hz(WINDOW)
    r1, r2, r3 = diff(cells, closed), diff(tate, closed), diff(cells, tate)
    elapsed = time.monotonic() - t0
    assert r1.clean and r2.clean and r3.clean
    assert all(e.exact for e in tate.entries.values())
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    print(f"PASS criterion 1: hz cells == tate == closed on {WINDOW}, "
          f"exact groups, {elapsed:.2f}s")


def test_criterion_02_kr_double_equality():
    _cold()
    t0 = time.monotonic()
    bss = run_bockstein(WINDOW)
    tate = _square("kr").genuine
    closed = closed_form_kr(WINDOW)
    assert bss.candidates == []
    r1, r2, r3 = diff(bss.chart, closed), diff(tate, closed), diff(bss.chart, tate)
    elapsed = time.monotonic() - t0
    assert r1.clean and r2.clean and r3.clean
    # composition factors agree everywhere by the above; every degree is
    # in fact exact, the extensions being split by a-divisibility
    assert all(e.exact for e in bss.chart.entries.values())
    assert all(e.exact for e in tate.entries.values())
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    print(f"PASS criterion 2: kr bockstein == tate == closed on {WINDOW}, "
          f"exact everywhere, {elapsed:.2f}s")


def test_criterion_03_hfpss_intermediates():
    for seed, summands, generator in ((hz_seed(), hz_summands, hz_generator),
                                      (kr_seed(), kr_summands, kr_generator)):
        page = build_pages(seed)[-1]
        chart = collapse_to_chart(page, WINDOW, "hfp")
        for d in WINDOW.degrees():
            want = FgAbelian.from_orders(
                [generator(k).order for k in summands(*d, variant="hfp")])
            assert chart.group(d) == want, (seed.name, d)
        assert find_candidates(page, WINDOW) == [], seed.name
    print("PASS criterion 3: fixed-point pages match their displays "
          "degreewise; exhaustive search finds no later differential")


def test_criterion_04_tate_rings():
    for theory, step in (("hz", 2), ("kr", 4)):
        tate = _square(theory).tate
        w = tate.window
        for d in w.degrees():
            want = F2 if d[0] % step == 0 else FgAbelian.zero()
            assert tate.group(d) == want, (theory, d)
        for x in range(w.xmin, w.xmax + 1):
            base = tate.group((x, w.ymin))
            assert all(tate.group((x, y)) == base
                       for y in range(w.ymin, w.ymax + 1))
    print("PASS criterion 4: Tate charts are F2 on exactly the even "
          "(resp. 0 mod 4) columns and a-periodic")


def test_criterion_05_geometric_fixed_points():
    for theory, step in (("hz", 2), ("kr", 4)):
        phi = _square(theory).phi
        w = phi.window
        for x in range(w.xmin, w.xmax + 1):
            want = F2 if (x >= 0 and x % step == 0) else FgAbelian.zero()
            assert phi.group((x, 0)) == want, (theory, x)
            for y in range(w.ymin, w.ymax + 1):
                assert phi.group((x, y)) == want
    kr_phi = _square("kr").phi
    assert kr_phi.group((1, 0)).is_zero()
    print("PASS criterion 5: geometric fixed point lines F2[x] and F2[x^2]; "
          "degree one vanishes for Real K-theory")


def test_criterion_06_axes():
    hz = _square("hz").hfp
    assert [str(hz.group((x, 0))) for x in range(0, -9, -1)] == \
        ["Z", "0", "Z/2", "0", "Z/2", "0", "Z/2", "0", "Z/2"]
    kr = _square("kr").hfp
    assert [str(kr.group((x, 0))) for x in range(0, 9)] == \
        ["Z", "Z/2", "Z/2", "0", "Z", "0", "0", "0", "Z"]
    assert [str(kr.group((x, 0))) for x in range(0, -9, -1)] == \
        ["Z", "0", "0", "0", "Z/2", "0", "0", "0", "Z/2"]
    assert kr.entry((-4, 0)).gens[0].label == "a^4 U^-1"
    print("PASS criterion 6: group-cohomology negative axes (codegree 2 "
          "and 4) and the connective real line on the positive axis")


def test_criterion_07_gap_and_connectivity():
    for closed in (closed_form_hz(WINDOW), closed_form_kr(WINDOW)):
        assert gap_check(closed).passed
        assert connectivity_check(closed).passed
    mutated = inject_class(closed_form_hz(WINDOW), (-1, 1))
    rep = gap_check(mutated)
    assert not rep.passed and rep.violations[0][0] == (-1, 1)
    mutated2 = inject_class(closed_form_kr(WINDOW), (-6, 2))
    rep2 = connectivity_check(mutated2)
    assert not rep2.passed and rep2.violations[0][0] == (-6, 2)
    print("PASS criterion 7: gap and connectivity hold on both genuine "
          "charts; injected classes are caught at their degrees")


def test_criterion_08_theta_laws():
    count = total = 0
    for x, y in WINDOW.degrees():
        for desc in hz_summands(x, y):
            total += 1
            for img, _ in hz_map_image("theta", desc):
                assert img in hz_summands(x - 2, y - 1)
                assert hz_map_image("theta", img) == []
                count += 1
    # 85 window generators in all; the 31 with nonzero image are the
    # columns under the three odd powers plus two odd tower ranges
    assert (count, total) == (31, 85)
    res = run_bockstein(WINDOW)
    assert res.candidates == []
    print(f"PASS criterion 8: theta squares to zero with degree -(2,1) "
          f"({count} nonzero instances over {total} window generators); "
          f"no survivor admits a later differential")


def test_criterion_09_slice_extraction():
    # blob diagonals of the collapsed display, in its own coordinates
    for t in range(0, 6):
        assert sss_entry_e1(*bss_to_sss(-2 + t, t)).is_zero()
    assert sss_entry_e1(*bss_to_sss(0, 0)) == Z
    for k in range(1, 6):
        assert sss_entry_e1(*bss_to_sss(k, k)) == F2  # the eta powers
    assert sss_entry_e1(*bss_to_sss(2, 0)).is_zero()
    assert sss_entry_e1(*bss_to_sss(3, 1)).is_zero()
    assert sss_entry_e1(*bss_to_sss(4, 2)) == Z
    # survivors: unit and two eta powers stay, later ones die; the
    # doubled class generates the fourth homotopy group
    assert sss_entry_einf(0, 0) == Z
    assert sss_entry_einf(1, 1) == F2 and sss_entry_einf(2, 2) == F2
    assert sss_entry_einf(3, 3).is_zero()
    assert sss_entry_einf(4, 0) == Z
    survivors = bss_floor_survivors(2, (2, -2), theories._BaseTable())
    assert len(survivors) == 1 and survivors[0].index2
    ko = ["Z", "Z/2", "Z/2", "0", "Z", "0", "0", "0", "Z"]
    for n in range(9):
        groups = [sss_entry_einf(n, s) for s in range(0, 40)]
        total = FgAbelian.from_orders([0] * sum(g.rank for g in groups)
                                      + [t for g in groups for t in g.torsion])
        assert str(total) == ko[n]
    for xb in range(-12, 13):
        for yb in range(-12, 13):
            assert sss_to_bss(*bss_to_sss(xb, yb)) == (xb, yb)
    print("PASS criterion 9: slice table matches the marked subsequence, "
          "total degrees 0..8 give the real connective line, transforms "
          "round-trip")


def _random_chart(rng: random.Random) -> Chart:
    w = Window(rng.randint(-6, 0), rng.randint(1, 6),
               rng.randint(-6, 0), rng.randint(1, 6))
    entries = {}
    for d in w.degrees():
        if rng.random() > 0.2:
            continue
        frees, dot_orders = [], []
        for i in range(rng.randint(1, 3)):
            kind = rng.choice([SQUARE, CIRCLE, DOT])
            if kind == DOT:
                dot_orders.append(rng.choice([2, 2, 4, 8]))
            else:
                frees.append(Generator(f"g{d[0]}_{d[1]}_{i}", kind, 0))
        dots = [Generator(f"t{d[0]}_{d[1]}_{i}", DOT, o)
                for i, o in enumerate(sorted(dot_orders))]
        entries[d] = ChartEntry(tuple(frees + dots), exact=rng.random() > 0.1)
    return Chart(name=f"rnd{rng.randint(0, 10 ** 6)}", window=w,
                 entries=entries, maps={})


def test_criterion_10_infrastructure(tmp_path):
    rng = random.Random(20260809)
    for _ in range(1000):
        chart = _random_chart(rng)
        text = serialize(chart)
        back = parse(text)
        assert back.entries == chart.entries and back.window == chart.window
        assert serialize(back) == text
    # byte-identical renders across thread counts
    blobs = []
    for threads in (1, 4):
        chart = cellular_chart_hz(Window.square(8), threads=threads)
        blobs.append(render(chart, "svg") + render(chart, "text"))
    assert blobs[0] == blobs[1]
    # the full verification suite exits cleanly
    assert main(["verify", "all", "--window=-12..12"]) == 0
    print("PASS criterion 10: 1000 serialization round trips, renders "
          "independent of thread count, full verify suite exit 0")
