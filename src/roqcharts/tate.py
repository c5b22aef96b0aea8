"""The Tate-square pipeline.

Starting from a homotopy-fixed-point chart with its a-multiplications:
invert a column by column (the localization hfp -> tate, a `ChartMap`),
take the Tate chart's columns x >= 0 as geometric fixed points (phi), and
read two charts off the long exact sequence of one map: the homotopy
orbits as the fibre of hfp -> tate, and the genuine chart as the fibre of
hfp -> tate/phi, since the Tate square is a pullback; tate/phi is the
Tate chart's columns x < 0.

Extension handling: an entry assembled from a nonzero kernel and a
nonzero cokernel is determined exactly when the kernel part is free
(free quotients split) or when each order-2 kernel generator is a
multiple of a; in the latter case a lift of the form a*x satisfies
2(a*x) = (2a)x = 0, so the extension splits there too
(`torsion_split_by_a`, which the Bockstein run uses as well).  Anything
else is reported up to extension and flagged on the entry.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import cache, cached_property

from .exactalg import (IntMatrix, PresentedGroup, image_contains,
                       map_is_iso, presented_cokernel, presented_kernel)
from .grading import (Chart, ChartEntry, ChartMap, Degree, Generator, Window,
                      CIRCLE, DOT, SQUARE, reduce_matrix)


class TatePipelineError(Exception):
    pass


class StabilizationError(TatePipelineError):
    """An a-column failed to stabilize inside the chart window."""


class TateSquareData:
    """The charts of the square, hfp and tate read off loc; the homotopy
    orbits, which no other chart or check reads, are built on first access."""

    def __init__(self, loc: ChartMap, phi: Chart, genuine: Chart):
        self.loc = loc
        self.hfp, self.tate = loc.source, loc.target
        self.phi = phi
        self.genuine = genuine

    @cached_property
    def orbits(self) -> Chart:
        return homotopy_orbits(self.loc)


# ---------------------------------------------------------------------------
# inverting a
# ---------------------------------------------------------------------------

# how many a-maps at the bottom of each column must be isomorphisms
_STAB_BAND = 2


def invert_a_with_maps(chart: Chart) -> ChartMap:
    """The localization map from chart to its a-localized (Tate) chart.

    Within each column the colimit along downward a-multiplication is
    taken to be the group at the bottom of the window; that is only
    legitimate if the last _STAB_BAND maps are isomorphisms, which is
    checked and otherwise raised as an instability error.
    """
    w = chart.window
    a = chart.map("a")
    columns: dict[int, ChartEntry] = {}
    loc: dict[Degree, IntMatrix] = {}
    for x in range(w.xmin, w.xmax + 1):
        orders = [chart.orders((x, w.ymin + k)) for k in range(_STAB_BAND + 1)]
        for k in range(_STAB_BAND):
            src = (x, w.ymin + k + 1)
            mat = a.at(src)
            if not map_is_iso(mat, orders[k + 1], orders[k]):
                raise StabilizationError(
                    f"a-column at x = {x} does not stabilize at the bottom of {w} "
                    f"(map out of {src} is not an isomorphism)")
        bottom = chart.entry((x, w.ymin))
        if bottom is None:
            continue
        columns[x] = bottom
        # localization map at (x, y): compose a-multiplications down
        acc = IntMatrix.identity(len(bottom.gens))
        for y in range(w.ymin, w.ymax + 1):
            if y > w.ymin:
                acc = acc.mul(a.at((x, y)))
            loc[(x, y)] = reduce_matrix(acc, orders[0])
    return ChartMap(chart, _periodic_chart(chart.name + "-tate", w, columns, "loc"),
                    (0, 0), loc)


def _periodic_chart(name: str, window: Window, columns: dict[int, ChartEntry],
                    tag: str) -> Chart:
    """Each column's entry, its generators relabelled tag(...), copied over
    every row of window, with a acting as the identity between
    neighbouring rows."""
    entries: dict[Degree, ChartEntry] = {}
    amaps: dict[Degree, IntMatrix] = {}
    for x, col in columns.items():
        e = ChartEntry(tuple(Generator(f"{tag}({g.label})", g.annotation, g.order)
                             for g in col.gens))
        for y in range(window.ymin, window.ymax + 1):
            entries[(x, y)] = e
            if y > window.ymin:
                amaps[(x, y)] = IntMatrix.identity(len(e.gens))
    return Chart(name=name, window=window, entries=entries, maps={"a": amaps})


# ---------------------------------------------------------------------------
# long-exact-sequence charts
# ---------------------------------------------------------------------------

def _support_label(vec: list[int], labels: list[str], fallback: str) -> tuple[str, bool]:
    support = [(i, c) for i, c in enumerate(vec) if c]
    if len(support) == 1:
        i, c = support[0]
        if abs(c) == 1:
            return labels[i], False
        if abs(c) == 2:
            return "2 " + labels[i], True
        return f"{abs(c)} {labels[i]}", False
    return fallback, False


def _les_entry(coker: PresentedGroup, coker_tag: str, ker: PresentedGroup,
               src_labels: list[str], ker_torsion_covered: bool) -> ChartEntry | None:
    """Entry for 0 -> coker -> G -> ker -> 0, flagged when ambiguous."""
    gens: list[Generator] = []
    for j, o in enumerate(coker.orders):
        label = coker_tag if len(coker.orders) == 1 else f"{coker_tag}[{j}]"
        gens.append(Generator(label, DOT if o else SQUARE, o))
    for j, o in enumerate(ker.orders):
        label, doubled = _support_label(ker.gens.column(j), src_labels, f"ker[{j}]")
        annot = DOT if o else (CIRCLE if doubled else SQUARE)
        gens.append(Generator(label, annot, o))
    if not gens:
        return None
    exact = coker.is_zero() or ker.is_zero() or ker.group.is_free() or ker_torsion_covered
    return ChartEntry(tuple(gens), exact=exact)


def torsion_split_by_a(orders: tuple[int, ...],
                       induced_a: Callable[[], IntMatrix | None]) -> bool:
    """Is every torsion generator of order 2 and in the image of a?

    The one extension-splitting rule of the Tate square and the Bockstein
    run (see the module docstring).  induced_a gives the a-map into the
    group with the given generator orders, or None when its source is out
    of reach; it is only called when there is torsion to cover.
    """
    torsion = [j for j, o in enumerate(orders) if o]
    if any(orders[j] != 2 for j in torsion):
        return False
    if not torsion:
        return True
    induced = induced_a()
    return induced is not None and all(
        image_contains(induced, orders, [int(i == j) for i in range(len(orders))])
        for j in torsion)


def _les_chart(f: ChartMap, window: Window, name: str) -> Chart:
    """Chart of the long exact sequence through f, a map of degree zero.

    At each degree of window the group sits between the cokernel of f
    one step to the right (integer direction) and its kernel at the
    degree itself.  Kernel generators are named after the source
    generator they are a multiple of.  The attached a-multiplications are
    blockwise along that filtration (the associated-graded action), which
    `test_tate.py::test_genuine_a_maps_match_closed_form` compares with
    the closed form.
    """
    source, target = f.source, f.target
    source_a, target_a = source.map("a"), target.map("a")

    @cache
    def kernel(d: Degree) -> PresentedGroup:
        return presented_kernel(f.at(d), source.orders(d), target.orders(d))

    def a_into_kernel(d: Degree, ker: PresentedGroup) -> IntMatrix | None:
        """a from the kernel one step up into ker, in its generators."""
        up = (d[0], d[1] + 1)
        if not source.window.contains(up):
            return None
        return ker.induced(source_a.at(up), kernel(up))

    entries: dict[Degree, ChartEntry] = {}
    cokers: dict[Degree, PresentedGroup] = {}
    for d in window.degrees():
        right = (d[0] + 1, d[1])
        ker = kernel(d)
        coker = presented_cokernel(f.at(right), target.orders(right))
        covered = not coker.is_zero() and torsion_split_by_a(
            ker.orders, lambda: a_into_kernel(d, ker))
        src = source.entry(d)
        entry = _les_entry(coker, f"tow({d[0]},{d[1]})", ker,
                           [g.label for g in src.gens] if src else [], covered)
        if entry:
            entries[d] = entry
            cokers[d] = coker

    amaps: dict[Degree, IntMatrix] = {}
    for d, entry in entries.items():
        down = (d[0], d[1] - 1)
        if down not in entries:
            continue
        amaps[d] = IntMatrix.block_diag(
            cokers[down].induced(target_a.at((d[0] + 1, d[1])), cokers[d]),
            kernel(down).induced(source_a.at(d), kernel(d)))
    return Chart(name=name, window=window, entries=entries, maps={"a": amaps})


# ---------------------------------------------------------------------------
# homotopy orbits
# ---------------------------------------------------------------------------

def homotopy_orbits(loc: ChartMap) -> Chart:
    """Orbits from the long exact sequence through the localization loc."""
    w = loc.source.window
    out_w = Window(w.xmin, w.xmax - 1, w.ymin, w.ymax - 1)
    return _les_chart(loc, out_w, loc.source.name + "-orbits")


# ---------------------------------------------------------------------------
# geometric fixed points
# ---------------------------------------------------------------------------

def geometric_fixed_points_with_maps(tate: Chart) -> Chart:
    """Phi: the Tate chart's columns x >= 0, relabelled ph(...).

    That is the connective cover of the Tate chart for a non-equivariantly
    connective theory, as both seeds are.  Each column is read off the
    bottom row, since `invert_a_with_maps` builds the chart a-periodic."""
    w = tate.window
    columns = {x: e for (x, y), e in tate.entries.items() if x >= 0 and y == w.ymin}
    return _periodic_chart(tate.name + "-phi", w, columns, "ph")


# ---------------------------------------------------------------------------
# the genuine chart
# ---------------------------------------------------------------------------

def assemble_genuine(loc: ChartMap, window: Window, name: str) -> Chart:
    """The genuine chart as the fibre of hfp -> tate/phi.

    The Tate square is a pullback, so the genuine chart is the fibre of
    the localization map loc followed by the quotient by phi.  Phi is the
    Tate chart at x >= 0, so tate/phi is the Tate chart's columns x < 0,
    with its generators.
    """
    hfp, tate = loc.source, loc.target
    w = hfp.window
    if not (w.contains((window.xmin, window.ymin))
            and w.contains((window.xmax + 1, window.ymax + 1))):
        raise TatePipelineError("input charts need one degree of margin up and to the right")
    quotient = Chart(name=tate.name + "/phi", window=tate.window,
                     entries={d: e for d, e in tate.entries.items() if d[0] < 0},
                     maps={"a": {d: m for d, m in tate.maps["a"].items() if d[0] < 0}})
    into = {d: m for d, m in loc.matrices.items() if d[0] < 0}
    return _les_chart(ChartMap(hfp, quotient, (0, 0), into), window, name)


def fixed_point_window(window: Window) -> Window:
    """The fixed-point window the square over window reads, each margin
    one this module checks: the column right of and the row above window,
    which `assemble_genuine` needs; the bottom _STAB_BAND + 1 rows strictly
    below the antidiagonal at the right edge, where a connective theory's
    a-maps are isomorphisms, for `invert_a_with_maps`; and the integer
    line, whose fixed-point groups `verify axes` reads."""
    xmax = window.xmax + 1
    return Window(window.xmin, xmax, min(window.ymin, -xmax - 1 - _STAB_BAND, 0),
                  max(window.ymax + 1, 0))


def run_tate_square(hfp: Chart, window: Window, name: str) -> TateSquareData:
    """The square from a homotopy-fixed-point chart, the orbits on demand."""
    loc = invert_a_with_maps(hfp)
    phi = geometric_fixed_points_with_maps(loc.target)
    return TateSquareData(loc, phi, assemble_genuine(loc, window, name))
