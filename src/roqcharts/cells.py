"""The cellular oracle for the integral theory.

Mackey functor data for the order-2 group Q, equivariant cell structures
on the sign-representation spheres, and the row-by-row Bredon groups
computed through exact homology.  This pipeline shares no code path with
the closed-form chart, so agreement between the two is a real check.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from .exactalg import FgAbelian, IntComplex, IntMatrix, homology_at
from .grading import (Chart, ChartEntry, Degree, Generator, Window, DOT,
                      SQUARE, hz_summands, hz_generator)


class UnsupportedCoefficientsError(Exception):
    """Raised for Mackey coefficient systems outside the supported scope."""


@dataclass(frozen=True)
class MackeyQ:
    """A Mackey functor for Q: values at Q/Q and Q/1 with structure maps.

    res: Q/Q -> Q/1, ind: Q/1 -> Q/Q, weyl: the involution on the Q/1
    level.  The double-coset relation at this group is res o ind = 1 + weyl.
    """

    fixed: FgAbelian
    free: FgAbelian
    res: IntMatrix
    ind: IntMatrix
    weyl: IntMatrix

    def __post_init__(self):
        n = self.weyl.rows
        if self.weyl.mul(self.weyl) != IntMatrix.identity(n):
            raise ValueError("weyl involution does not square to the identity")
        lhs = self.res.mul(self.ind)
        rhs_rows = [[(1 if i == j else 0) + self.weyl[i, j] for j in range(n)]
                    for i in range(n)]
        if lhs != IntMatrix.from_rows(rhs_rows):
            raise ValueError("res o ind != 1 + weyl")


def constant_integers() -> MackeyQ:
    """The constant Mackey functor: restriction 1, induction 2."""
    one = IntMatrix.from_rows([[1]])
    two = IntMatrix.from_rows([[2]])
    return MackeyQ(FgAbelian.free(1), FgAbelian.free(1), res=one, ind=two, weyl=one)


HOMOLOGICAL = "homological"
COHOMOLOGICAL = "cohomological"


@dataclass(frozen=True)
class SphereComplex:
    twist: int
    variance: str
    complex: IntComplex


def _is_constant_integers(m: MackeyQ) -> bool:
    c = constant_integers()
    return (m.fixed, m.free, m.res, m.ind, m.weyl) == (c.fixed, c.free, c.res, c.ind, c.weyl)


def sphere_complex(n: int, variance: str, coeffs: MackeyQ) -> SphereComplex:
    """Reduced cellular chains of the n-fold sign sphere.

    One fixed cell in degree 0 and one free cell in each degree 1..n.
    Boundary maps come from the Mackey structure: the first attaching map
    is induction (homology) or restriction (cohomology), and the free
    cells alternate 1 -+ weyl.  Only the constant integral system is in
    scope; anything else is rejected.
    """
    if n < 0:
        raise ValueError("twist must be non-negative")
    if variance not in (HOMOLOGICAL, COHOMOLOGICAL):
        raise ValueError(f"unknown variance {variance!r}")
    if not _is_constant_integers(coeffs):
        raise UnsupportedCoefficientsError(
            "only the constant integral Mackey functor is supported")

    ident = IntMatrix.identity(coeffs.weyl.rows)

    def plus_minus_weyl(sign: int) -> IntMatrix:
        rows = [[ident[i, j] + sign * coeffs.weyl[i, j] for j in range(ident.cols)]
                for i in range(ident.rows)]
        return IntMatrix.from_rows(rows)

    if n == 0:
        cx = IntComplex(bottom=0, dims=(1,), diffs=())
        return SphereComplex(0, variance, cx)

    if variance == HOMOLOGICAL:
        # boundary C_k -> C_{k-1}: ind for k = 1, then 1 - (-1)^k weyl
        diffs = []
        for k in range(1, n + 1):
            if k == 1:
                diffs.append(coeffs.ind)
            else:
                diffs.append(plus_minus_weyl(+1 if k % 2 else -1))
        cx = IntComplex(bottom=0, dims=(1,) * (n + 1), diffs=tuple(diffs))
        return SphereComplex(n, variance, cx)

    # cochains encoded as a chain complex in degrees -n..0 with
    # C_{-k} the k-cochains, so homology at -k is H^k
    diffs = []
    for k in range(0, n):
        # the map C^k -> C^{k+1}: res for k = 0, then 1 + (-1)^k weyl
        if k == 0:
            diffs.append(coeffs.res)
        else:
            diffs.append(plus_minus_weyl(+1 if k % 2 == 0 else -1))
    cx = IntComplex(bottom=-n, dims=(1,) * (n + 1), diffs=tuple(reversed(diffs)))
    return SphereComplex(n, variance, cx)


def bredon_row(b: int) -> dict[Degree, FgAbelian]:
    """The row at sigma-degree b, as a map from degree to group.

    Rows below the axis are sphere homology, rows above are sphere
    cohomology placed at negative x; the axis row is a single Z at the
    origin.  Coefficients are the constant integral Mackey functor.
    """
    coeffs = constant_integers()
    out: dict[Degree, FgAbelian] = {}
    if b == 0:
        out[(0, 0)] = FgAbelian.free(1)
    elif b < 0:
        sc = sphere_complex(-b, HOMOLOGICAL, coeffs)
        for k in range(0, -b + 1):
            g = homology_at(sc.complex, k)
            if not g.is_zero():
                out[(k, b)] = g
    else:
        sc = sphere_complex(b, COHOMOLOGICAL, coeffs)
        for k in range(0, b + 1):
            g = homology_at(sc.complex, -k)
            if not g.is_zero():
                out[(-k, b)] = g
    return out


def _labelled_entry(d: Degree, g: FgAbelian) -> ChartEntry:
    """Attach canonical monomial labels inferred from the degree alone."""
    descs = hz_summands(d[0], d[1])
    if len(descs) == 1:
        base = hz_generator(descs[0])
        if g == FgAbelian.from_orders([base.order]):
            return ChartEntry((base,))
    gens = tuple(Generator(f"c({d[0]},{d[1]})[{i}]",
                           DOT if o else SQUARE, o)
                 for i, o in enumerate([0] * g.rank + list(g.torsion)))
    return ChartEntry(gens)


def cellular_chart_hz(window: Window, threads: int = 1) -> Chart:
    """Assemble the Bredon rows over a window into a chart.

    Rows are independent, so they may be computed on a thread pool; the
    assembly order is fixed, so the result never depends on thread count.
    """
    rows = list(range(window.ymin, window.ymax + 1))
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            computed = list(pool.map(bredon_row, rows))
    else:
        computed = [bredon_row(b) for b in rows]
    entries: dict[Degree, ChartEntry] = {}
    for row in computed:
        for d, g in sorted(row.items()):
            if window.contains(d):
                entries[d] = _labelled_entry(d, g)
    return Chart(name="hz-cells", window=window, entries=entries, maps={})


def rp_cohomology(n: int) -> dict[int, FgAbelian]:
    """Reduced integral cohomology of real projective n-space.

    Classical: Z/2 in each even degree from 2 through n, plus Z in the
    top degree when n is odd.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    out: dict[int, FgAbelian] = {}
    for k in range(2, n + 1, 2):
        out[k] = FgAbelian.cyclic(2)
    if n % 2 == 1:
        out[n] = FgAbelian.free(1)
    return out


def quotient_row_check(n: int) -> bool:
    """Compare the row at twist n+1 with the suspension of projective space.

    The quotient of the (n+1)-fold sign sphere by the free action away
    from the poles is the unreduced suspension of RP^n, so the upper-row
    groups must match the shifted projective-space cohomology.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    expected: dict[Degree, FgAbelian] = {}
    for k, g in rp_cohomology(n).items():
        expected[(-(k + 1), n + 1)] = g
    return bredon_row(n + 1) == expected
