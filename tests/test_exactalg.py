"""Exact linear algebra: Smith form laws, homology, group normal forms.

sympy's smith_normal_form and rank are used as independent oracles for
the randomized checks; the frozen examples were computed by hand
(determinant and gcd pin the 2x2 diagonal).
"""

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form as sympy_snf
from hypothesis import given, settings, strategies as st

from roqcharts import exactalg
from roqcharts.exactalg import (ExactAlgebraError, FgAbelian, IntComplex,
                                IntMatrix, NotInLatticeError, PresentedGroup,
                                ShapeError, _normal_form, _rel_columns,
                                column_space_basis,
                                has_nonzero_hom, homology_at, kernel_basis,
                                lattice_contains, preimage_lattice,
                                presented_homology,
                                smith_normal_form, solve)
from roqcharts.grading import Window
from roqcharts.theories import kr_seed, run_tate_pipeline


def M(rows):
    return IntMatrix.from_rows(rows)


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

def test_snf_zero_matrix():
    s = smith_normal_form(M([[0]]))
    assert s.diag == M([[0]])
    assert s.left == IntMatrix.identity(1) and s.right == IntMatrix.identity(1)


def test_snf_already_normal():
    s = smith_normal_form(M([[2]]))
    assert s.diag == M([[2]])


def test_snf_two_by_two():
    # det = -8 and entry gcd 2 force the diagonal (2, 4)
    s = smith_normal_form(M([[2, 4], [6, 8]]))
    assert s.diagonal() == [2, 4]


small_entries = st.integers(min_value=-9, max_value=9)


@st.composite
def matrices(draw, max_dim=5):
    r = draw(st.integers(min_value=0, max_value=max_dim))
    c = draw(st.integers(min_value=0, max_value=max_dim))
    return M([[draw(small_entries) for _ in range(c)] for _ in range(r)])


@given(matrices())
@settings(max_examples=120, deadline=None)
def test_snf_laws(m):
    s = smith_normal_form(m)
    assert s.left.mul(m).mul(s.right) == s.diag
    assert s.left.mul(s.left_inv) == IntMatrix.identity(m.rows)
    d = s.diagonal()
    assert all(x >= 0 for x in d)
    nonzero = [x for x in d if x]
    assert all(b % a == 0 for a, b in zip(nonzero, nonzero[1:]))
    assert d[len(nonzero):] == [0] * (len(d) - len(nonzero))
    # off-diagonal must vanish
    for i in range(m.rows):
        for j in range(m.cols):
            if i != j:
                assert s.diag[i, j] == 0


@st.composite
def composable(draw):
    """a (r x k), b (k x c), c (r x c') and a few blocks."""
    dims = st.integers(min_value=0, max_value=4)
    r, k, c, c2 = draw(dims), draw(dims), draw(dims), draw(dims)

    def mat(rows, cols):
        return IntMatrix(rows, cols, tuple(tuple(draw(small_entries) for _ in range(cols))
                                           for _ in range(rows)))
    blocks = [draw(matrices(max_dim=3)) for _ in range(draw(st.integers(0, 3)))]
    return mat(r, k), mat(k, c), mat(r, c2), blocks


@given(composable())
@settings(max_examples=120, deadline=None)
def test_internal_results_are_valid_matrices(args):
    # mul, hstack, from_columns and block_diag skip the shape check of the
    # public constructor; what they build must pass it and equal its result
    a, b, c, blocks = args
    product = a.mul(b)
    assert product.entries == tuple(
        tuple(sum(a[i, k] * b[k, j] for k in range(a.cols)) for j in range(b.cols))
        for i in range(a.rows))
    for m in (product, a.hstack(c), IntMatrix.from_columns(a.columns(), a.rows),
              IntMatrix.block_diag(*blocks)):
        assert m == IntMatrix(m.rows, m.cols, m.entries)
        assert hash(m) == hash(IntMatrix(m.rows, m.cols, m.entries))
    if b.cols != c.rows:
        with pytest.raises(ShapeError):
            b.mul(c)


def test_public_constructor_still_checks_shape():
    with pytest.raises(ShapeError):
        IntMatrix(2, 2, ((1, 2), (3,)))
    with pytest.raises(ShapeError):
        IntMatrix.from_rows([[1, 2], [3]])
    with pytest.raises(ShapeError):
        IntMatrix(1, 1, ())


@given(matrices())
@settings(max_examples=100, deadline=None)
def test_snf_against_sympy(m):
    if m.rows == 0 or m.cols == 0:
        return
    ours = [d for d in smith_normal_form(m).diagonal() if d]
    theirs = sympy_snf(sympy.Matrix(m.rows, m.cols, lambda i, j: m[i, j]))
    sym = [abs(int(theirs[i, i])) for i in range(min(m.rows, m.cols))
           if theirs[i, i] != 0]
    assert ours == sym


@given(matrices())
@settings(max_examples=80, deadline=None)
def test_kernel_and_column_space(m):
    k = kernel_basis(m)
    for j in range(k.cols):
        assert all(v == 0 for v in m.apply(k.column(j)))
    cs = column_space_basis(m)
    for j in range(m.cols):
        assert solve(cs, m.column(j)) is not None
    rank_oracle = sympy.Matrix(m.rows, m.cols, lambda i, j: m[i, j]).rank() \
        if m.rows and m.cols else 0
    assert cs.cols == rank_oracle
    assert k.cols == m.cols - rank_oracle


@given(matrices(), st.lists(small_entries, min_size=0, max_size=5))
@settings(max_examples=80, deadline=None)
def test_solve_consistency(m, x):
    if len(x) != m.cols:
        return
    b = m.apply(x)
    got = solve(m, b)
    assert got is not None
    assert m.apply(got) == b


# ---------------------------------------------------------------------------
# homology of complexes
# ---------------------------------------------------------------------------

def test_homology_mod_two():
    c = IntComplex(bottom=0, dims=(1, 1), diffs=(M([[2]]),))
    assert homology_at(c, 0) == FgAbelian.cyclic(2)
    assert homology_at(c, 1) == FgAbelian.zero()
    assert homology_at(c, 5) == FgAbelian.zero()


def test_homology_top_free():
    c = IntComplex(bottom=0, dims=(1, 1, 1), diffs=(M([[2]]), M([[0]])))
    assert homology_at(c, 2) == FgAbelian.free(1)


def test_square_zero_enforced():
    try:
        IntComplex(bottom=0, dims=(1, 1, 1), diffs=(M([[2]]), M([[3]])))
    except ExactAlgebraError:
        return
    raise AssertionError("d o d != 0 was accepted")


@given(matrices(max_dim=4))
@settings(max_examples=60, deadline=None)
def test_homology_rank_against_rational_count(m):
    """Middle homology rank equals nullity minus boundary rank, with the
    boundary map built from sympy's nullspace (an independent route)."""
    if m.rows == 0 or m.cols == 0:
        return
    sm = sympy.Matrix(m.rows, m.cols, lambda i, j: m[i, j])
    cols = []
    for v in sm.nullspace():
        denom = sympy.lcm([sympy.fraction(x)[1] for x in v])
        cols.append([int(x * denom) for x in v])
    cols = cols[:(len(cols) + 1) // 2]  # keep homology rank nontrivial
    d2 = IntMatrix.from_columns(cols, m.cols)
    c = IntComplex(bottom=0, dims=(m.rows, m.cols, d2.cols), diffs=(m, d2))
    nullity = m.cols - sm.rank()
    d2_rank = sympy.Matrix(d2.rows, d2.cols, lambda i, j: d2[i, j]).rank() \
        if d2.cols else 0
    assert homology_at(c, 1).rank == nullity - d2_rank


# ---------------------------------------------------------------------------
# finitely generated abelian groups
# ---------------------------------------------------------------------------

def test_isomorphism_examples():
    assert FgAbelian.free(1) == FgAbelian.free(1)
    assert FgAbelian.cyclic(2) != FgAbelian.cyclic(4)
    assert FgAbelian.from_orders([2, 0]) == FgAbelian(1, (2,))


def test_composition_factors_examples():
    assert FgAbelian.cyclic(4).composition_factors() == (0, (4,))
    assert FgAbelian.from_orders([2, 2]).composition_factors() == (0, (2, 2))
    assert FgAbelian(1, (2,)).composition_factors() == (1, (2,))


@given(st.lists(st.integers(min_value=0, max_value=60), max_size=6))
@settings(max_examples=120, deadline=None)
def test_normal_form_idempotent(orders):
    g = FgAbelian.from_orders(orders)
    again = FgAbelian.from_orders([0] * g.rank + list(g.torsion))
    assert g == again


def regrouped_normal_form(orders):
    """The invariant-factor form by primary decomposition: split each
    order into prime powers, then multiply the largest power of every
    prime into the last factor, the next largest into the one before, and
    so on.  A route independent of the Smith form."""
    powers: dict[int, list[int]] = {}
    for d in orders:
        p = 2
        while d > 1:
            e = 0
            while d % p == 0:
                d, e = d // p, e + 1
            if e:
                powers.setdefault(p, []).append(p ** e)
            p += 1
    factors = []
    for i in range(max(map(len, powers.values()), default=0)):
        f = 1
        for qs in powers.values():
            qs = sorted(qs, reverse=True)
            f *= qs[i] if i < len(qs) else 1
        factors.append(f)
    return FgAbelian(orders.count(0), tuple(reversed(factors)))


@given(st.lists(st.sampled_from([0, 1, 2, 3, 4, 6, 8, 9, 12, 18, 36, 60]), max_size=6))
@settings(max_examples=150, deadline=None)
def test_normal_form_against_prime_power_regrouping(orders):
    assert FgAbelian.from_orders(orders) == regrouped_normal_form(orders)


def test_normal_form_recombination():
    assert FgAbelian.from_orders([2, 3]) == FgAbelian.cyclic(6)
    assert FgAbelian.from_orders([2, 4]) == FgAbelian(0, (2, 4))
    assert FgAbelian.from_orders([6, 4]) == FgAbelian(0, (2, 12))


def test_zero_group_is_unique_empty_form():
    assert FgAbelian.zero() == FgAbelian.from_orders([])
    assert FgAbelian.zero() == FgAbelian.from_orders([1, 1])
    assert FgAbelian.zero().is_zero()


def test_hom_nonzero():
    assert has_nonzero_hom(FgAbelian.free(1), FgAbelian.cyclic(2))
    assert not has_nonzero_hom(FgAbelian.cyclic(2), FgAbelian.free(1))
    assert not has_nonzero_hom(FgAbelian.cyclic(2), FgAbelian.cyclic(3))
    assert has_nonzero_hom(FgAbelian.cyclic(2), FgAbelian.cyclic(4))
    assert not has_nonzero_hom(FgAbelian.zero(), FgAbelian.free(3))


# ---------------------------------------------------------------------------
# presented subquotients
# ---------------------------------------------------------------------------

def test_presented_quotient():
    # Z^2 / <(2, 0)> = Z/2 + Z
    pres = PresentedGroup.from_lattices(IntMatrix.identity(2), M([[2], [0]]))
    assert pres.group == FgAbelian(1, (2,))


def test_presented_subquotient_with_halved_generator():
    # kernel 2Z inside Z presented against trivial bounds
    pres = PresentedGroup.from_lattices(M([[2]]), IntMatrix.zero(1, 0))
    assert pres.group == FgAbelian.free(1)
    assert pres.gens.column(0) == [2]


def test_express_reduces_mod_orders():
    pres = PresentedGroup.from_lattices(IntMatrix.identity(1), M([[2]]))
    assert pres.group == FgAbelian.cyclic(2)
    assert pres.express([3]) == [1]
    assert pres.express([4]) == [0]


def test_presented_homology_with_torsion():
    two, zero = M([[2]]), M([[0]])
    # Z/4 -2-> Z/4 -2-> Z/4 is exact; with either map zero the middle is Z/2
    assert presented_homology(two, (4,), two, (4,)).is_zero()
    assert presented_homology(zero, (4,), two, (4,)).group == FgAbelian.cyclic(2)
    kernel = presented_homology(two, (4,), zero, (4,))
    assert kernel.group == FgAbelian.cyclic(2) and kernel.gens.column(0) == [2]
    # through Z/8 the composite 4 is not zero: the bounds are not cycles
    with pytest.raises(NotInLatticeError):
        presented_homology(two, (8,), two, (8,))


# ---------------------------------------------------------------------------
# memoised kernels: shared results, no changed values
# ---------------------------------------------------------------------------

@st.composite
def kernel_inputs(draw):
    """A small matrix m, relations rels in its target, and a map into
    its source with generator orders at both ends."""
    def block(rows):
        cols = draw(st.integers(min_value=0, max_value=3))
        return IntMatrix(rows, cols, tuple(tuple(draw(small_entries) for _ in range(cols))
                                           for _ in range(rows)))

    m = draw(matrices(max_dim=4))
    rels, into = block(m.rows), block(m.cols)
    if draw(st.booleans()):
        into = kernel_basis(m)  # a homology with no NotInLatticeError
    orders = st.integers(min_value=0, max_value=6).filter(lambda o: o != 1)
    out_orders = tuple(draw(orders) for _ in range(m.rows))
    src_orders = tuple(draw(orders) for _ in range(m.cols))
    return m, rels, into, out_orders, src_orders


def _outcome(fn, *args):
    try:
        return fn(*args)
    except NotInLatticeError:
        return NotInLatticeError


@given(kernel_inputs())
@settings(max_examples=100, deadline=None)
def test_memoised_kernels_equal_their_unmemoised_results(args):
    m, rels, into, out_orders, src_orders = args
    # every ambient vector is a cycle of a cokernel, so m induces a map
    # into one from the free group on its source
    coker = presented_homology(IntMatrix.zero(0, m.rows), (), rels, out_orders)
    calls = [(column_space_basis, (m,)),
             (preimage_lattice, (m, rels)), (_rel_columns, (out_orders,)),
             (presented_homology, (m, out_orders, into, src_orders)),
             (IntMatrix.zero, (m.rows, m.cols)), (IntMatrix.identity, (m.cols,)),
             (PresentedGroup.full_free, (m.rows,)),
             (PresentedGroup.induced, (coker, m, PresentedGroup.full_free(m.cols))),
             (_normal_form, (out_orders + src_orders,))]
    for fn, fargs in calls:
        got = _outcome(fn, *fargs)
        assert got == _outcome(fn.__wrapped__, *fargs), fn.__name__
        if got is not NotInLatticeError:
            assert fn(*fargs) is got, fn.__name__


@given(kernel_inputs())
@settings(max_examples=100, deadline=None)
def test_presented_homology_keeps_its_cycle_lattice(args):
    m, _, into, out_orders, src_orders = args
    try:
        pg = presented_homology(m, out_orders, into, src_orders)
    except NotInLatticeError:
        return
    # out maps the cycles into the relations of its target, the generators
    # and relations are cycles, and the two lattices present the group
    out_rels = _rel_columns(out_orders)
    assert all(lattice_contains(out_rels, col) for col in m.mul(pg.cycles).columns())
    assert all(lattice_contains(pg.cycles, col)
               for col in pg.gens.columns() + pg.rels.columns())
    assert PresentedGroup.from_lattices(pg.cycles, pg.rels) == pg


def test_cache_clear_empties_every_memo():
    run_tate_pipeline(kr_seed(), Window.square(6))
    assert smith_normal_form.cache_info().currsize > 0
    exactalg.cache_clear()
    owners = [exactalg] + [v for v in vars(exactalg).values()
                           if isinstance(v, type) and v.__module__ == exactalg.__name__]
    memos = {id(f): f for owner in owners for f in
             (getattr(owner, name) for name in vars(owner))
             if hasattr(f, "cache_info")}
    assert len(memos) >= 10
    assert {f.__qualname__: f.cache_info().currsize for f in memos.values()} == \
        {f.__qualname__: 0 for f in memos.values()}
