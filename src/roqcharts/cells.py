"""The cellular oracle for the integral theory.

Equivariant cell structures on the sign-representation spheres with
coefficients in the constant integral Mackey functor for the order-2
group Q, and the row-by-row Bredon groups computed through exact
homology.  This pipeline shares no code path with the closed-form
chart, so agreement between the two is a real check.
"""

from __future__ import annotations

from .exactalg import FgAbelian, IntComplex, IntMatrix, homology_at
from .grading import (Chart, ChartEntry, Degree, Generator, Window, DOT,
                      SQUARE, hz_summands, hz_generator)


HOMOLOGICAL = "homological"
COHOMOLOGICAL = "cohomological"


def sphere_complex(n: int, variance: str) -> IntComplex:
    """Reduced cellular chains of the n-fold sign sphere.

    One fixed cell in degree 0 and one free cell in each degree 1..n, with
    coefficients in the constant integral Mackey functor: restriction 1,
    induction 2, and the Weyl involution 1 on the free level.  The first
    attaching map is induction (homology) or restriction (cohomology), and
    the free cells alternate 1 -+ weyl, that is 2 and 0.
    """
    if n < 0:
        raise ValueError("twist must be non-negative")
    if variance not in (HOMOLOGICAL, COHOMOLOGICAL):
        raise ValueError(f"unknown variance {variance!r}")
    if n == 0:
        return IntComplex(bottom=0, dims=(1,), diffs=())

    # the 1x1 attaching maps, built without the shape check
    one, two, zero = [IntMatrix._of((1, 1, ((e,),))) for e in (1, 2, 0)]
    if variance == HOMOLOGICAL:
        # boundary C_k -> C_{k-1}: ind = 2 for k = 1, then 1 - (-1)^k weyl,
        # that is 2, 0, 2, 0, ...
        bottom = 0
        diffs = ((two, zero) * n)[:n]
    else:
        # cochains encoded as a chain complex in degrees -n..0 with
        # C_{-k} the k-cochains, so homology at -k is H^k; the map
        # C^k -> C^{k+1} is res = 1 for k = 0, then 1 + (-1)^k weyl,
        # that is 1, 0, 2, 0, 2, ..., listed from the top degree down
        bottom = -n
        diffs = ((one,) + (zero, two) * n)[n - 1::-1]
    return IntComplex(bottom=bottom, dims=(1,) * (n + 1), diffs=diffs)


def bredon_row(b: int) -> dict[Degree, FgAbelian]:
    """The row at sigma-degree b, as a map from degree to group.

    Rows below the axis are sphere homology, rows above are sphere
    cohomology placed at negative x; the axis row is a single Z at the
    origin.  Coefficients are the constant integral Mackey functor.
    """
    out: dict[Degree, FgAbelian] = {}
    if b == 0:
        out[(0, 0)] = FgAbelian.free(1)
    elif b < 0:
        cx = sphere_complex(-b, HOMOLOGICAL)
        for k in range(0, -b + 1):
            g = homology_at(cx, k)
            if not g.is_zero():
                out[(k, b)] = g
    else:
        cx = sphere_complex(b, COHOMOLOGICAL)
        for k in range(0, b + 1):
            g = homology_at(cx, -k)
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
        # imported here: concurrent.futures would cost every import of the package
        from concurrent.futures import ThreadPoolExecutor
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
