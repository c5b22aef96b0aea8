"""The cellular oracle: sphere complexes, Bredon rows, quotient checks."""

from roqcharts.cells import (COHOMOLOGICAL, HOMOLOGICAL, bredon_row,
                             cellular_chart_hz, quotient_row_check,
                             rp_cohomology, sphere_complex)
from roqcharts.exactalg import FgAbelian
from roqcharts.grading import Window, closed_form_hz
from roqcharts.chartio import diff

Z = FgAbelian.free(1)
F2 = FgAbelian.cyclic(2)


def test_sphere_complex_matrices():
    s1 = sphere_complex(1, HOMOLOGICAL)
    assert s1.boundary(1).entries == ((2,),)  # induction is times 2
    s2 = sphere_complex(2, COHOMOLOGICAL)
    # encoded upside down: boundary(0) is d^0 = restriction = 1 and
    # boundary(-1) is d^1 = 1 - weyl = 0
    assert s2.boundary(0).entries == ((1,),)
    assert s2.boundary(-1).entries == ((0,),)
    s0 = sphere_complex(0, HOMOLOGICAL)
    assert s0.dims == (1,)


def test_bredon_row_examples():
    assert bredon_row(-3) == {(0, -3): F2, (2, -3): F2}
    assert bredon_row(4) == {(-3, 4): F2, (-4, 4): Z}
    assert bredon_row(-1) == {(0, -1): F2}
    assert bredon_row(1) == {}
    assert bredon_row(0) == {(0, 0): Z}
    assert bredon_row(2) == {(-2, 2): Z}


def test_lower_rows_h0_and_top():
    for n in range(1, 13):
        row = bredon_row(-n)
        assert row[(0, -n)] == F2  # induction times 2 in degree zero
        top = row.get((n, -n), FgAbelian.zero())
        assert top.is_free() and top.rank <= 1
        assert (top.rank == 1) == (n % 2 == 0)


def test_row_stability():
    # adding the next cell never changes degrees below it
    for n in range(1, 10):
        a, b = bredon_row(-n), bredon_row(-n - 1)
        for k in range(0, n):
            assert a.get((k, -n), FgAbelian.zero()) == \
                b.get((k, -n - 1), FgAbelian.zero())


def test_rp_cohomology_table():
    assert rp_cohomology(1) == {1: Z}
    assert rp_cohomology(2) == {2: F2}
    assert rp_cohomology(3) == {2: F2, 3: Z}
    assert rp_cohomology(6) == {2: F2, 4: F2, 6: F2}


def test_quotient_row_checks():
    for n in range(1, 13):
        assert quotient_row_check(n), n


def test_not_the_quotient_homology():
    # equivariant degree-zero homology of the sign circle is Z/2, but the
    # quotient is an interval with trivial reduced homology
    witness = bredon_row(-1)[(0, -1)]
    assert witness == F2
    assert witness != FgAbelian.zero()


def test_cellular_matches_closed_form_small():
    w = Window.square(4)
    assert diff(cellular_chart_hz(w), closed_form_hz(w)).clean


def test_cellular_matches_closed_form_full():
    w = Window.square(12)
    assert diff(cellular_chart_hz(w), closed_form_hz(w)).clean


def test_thread_count_does_not_change_output():
    w = Window.square(8)
    assert cellular_chart_hz(w, threads=1).entries == \
        cellular_chart_hz(w, threads=4).entries


def test_cellular_labels_are_monomial_names():
    w = Window.square(6)
    chart = cellular_chart_hz(w)
    assert chart.entry((2, -2)).gens[0].label == "u"
    assert chart.entry((0, -3)).gens[0].label == "a^3"
    assert chart.entry((-2, 2)).gens[0].label == "2u^-1"
