"""The Tate-square pipeline.

Starting from a homotopy-fixed-point chart with its a-multiplications:
invert a column by column (Tate), truncate the integer line to get
geometric fixed points (phi), and read two charts off the long exact
sequence of one map: the homotopy orbits as the fibre of hfp -> tate,
and the genuine chart as the fibre of hfp -> tate/phi, since the Tate
square is a pullback.  Phi includes isomorphically into the Tate chart
degree by degree, so tate/phi is the Tate chart off those degrees.

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
from .grading import (Chart, ChartEntry, Degree, Generator, Window, CIRCLE,
                      DOT, SQUARE, mult_map, reduce_matrix)


class TatePipelineError(Exception):
    pass


class StabilizationError(TatePipelineError):
    """An a-column failed to stabilize inside the chart window."""


class NotPeriodicError(TatePipelineError):
    """Geometric fixed points need an a-periodic input chart."""


class TateSquareData:
    """The charts of the square; the homotopy orbits, which no other chart
    or check reads, are built on first access."""

    def __init__(self, hfp: Chart, tate: Chart, phi: Chart, genuine: Chart,
                 loc_maps: dict[Degree, IntMatrix]):
        self.hfp = hfp
        self.tate = tate
        self.phi = phi
        self.genuine = genuine
        self.loc_maps = loc_maps

    @cached_property
    def orbits(self) -> Chart:
        return homotopy_orbits(self.hfp, self.tate, self.loc_maps)


# ---------------------------------------------------------------------------
# inverting a
# ---------------------------------------------------------------------------

# how many a-maps at the bottom of each column must be isomorphisms
_STAB_BAND = 2


def invert_a_with_maps(chart: Chart) -> tuple[Chart, dict[Degree, IntMatrix]]:
    """The a-localized chart and the per-degree localization maps.

    Within each column the colimit along downward a-multiplication is
    taken to be the group at the bottom of the window; that is only
    legitimate if the last _STAB_BAND maps are isomorphisms, which is
    checked and otherwise raised as an instability error.
    """
    w = chart.window
    columns: dict[int, ChartEntry] = {}
    loc: dict[Degree, IntMatrix] = {}
    for x in range(w.xmin, w.xmax + 1):
        orders = [chart.orders((x, w.ymin + k)) for k in range(_STAB_BAND + 1)]
        for k in range(_STAB_BAND):
            src = (x, w.ymin + k + 1)
            mat = mult_map(chart, "a", src)
            if not map_is_iso(mat, orders[k + 1], orders[k]):
                raise StabilizationError(
                    f"a-column at x = {x} does not stabilize at the bottom of {w} "
                    f"(map out of {src} is not an isomorphism)")
        bottom = chart.entry((x, w.ymin))
        if bottom is None:
            continue
        gens = tuple(Generator(f"loc({g.label})", g.annotation, g.order)
                     for g in bottom.gens)
        columns[x] = ChartEntry(gens)
        # localization map at (x, y): compose a-multiplications down
        acc = IntMatrix.identity(len(gens))
        for y in range(w.ymin, w.ymax + 1):
            if y > w.ymin:
                acc = acc.mul(mult_map(chart, "a", (x, y)))
            loc[(x, y)] = reduce_matrix(acc, orders[0])
    return _periodic_chart(chart.name + "-tate", w, columns), loc


def _periodic_chart(name: str, window: Window, columns: dict[int, ChartEntry]) -> Chart:
    """Each column's entry copied over every row of window, with a acting
    as the identity between neighbouring rows."""
    entries: dict[Degree, ChartEntry] = {}
    amaps: dict[Degree, IntMatrix] = {}
    for x, e in columns.items():
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


def _les_chart(source: Chart, into: dict[Degree, IntMatrix], target: Chart,
               window: Window, name: str) -> Chart:
    """Chart of the long exact sequence through the map source -> target.

    At each degree of window the group sits between the cokernel of the
    map one step to the right (integer direction) and its kernel at the
    degree itself; a missing map is zero.  Kernel generators are named
    after the source generator they are a multiple of.  The attached
    a-multiplications are blockwise along that filtration (the
    associated-graded action), which is what the local-cohomology
    vanishing test consumes.
    """
    @cache
    def to_target(d: Degree) -> tuple[IntMatrix, tuple[int, ...], tuple[int, ...]]:
        """The map into target at d, with the source's orders there and
        the target's."""
        orders, target_orders = source.orders(d), target.orders(d)
        mat = into.get(d, IntMatrix.zero(len(target_orders), len(orders)))
        return mat, orders, target_orders

    @cache
    def kernel(d: Degree) -> PresentedGroup:
        return presented_kernel(*to_target(d))

    def a_into_kernel(d: Degree, ker: PresentedGroup) -> IntMatrix | None:
        """a from the kernel one step up into ker, in its generators."""
        up = (d[0], d[1] + 1)
        if not source.window.contains(up):
            return None
        return ker.induced(mult_map(source, "a", up), kernel(up))

    entries: dict[Degree, ChartEntry] = {}
    cokers: dict[Degree, PresentedGroup] = {}
    for d in window.degrees():
        right = (d[0] + 1, d[1])
        ker = kernel(d)
        mat, _, target_orders = to_target(right)
        coker = presented_cokernel(mat, target_orders)
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
            cokers[down].induced(mult_map(target, "a", (d[0] + 1, d[1])), cokers[d]),
            kernel(down).induced(mult_map(source, "a", d), kernel(d)))
    return Chart(name=name, window=window, entries=entries, maps={"a": amaps})


# ---------------------------------------------------------------------------
# homotopy orbits
# ---------------------------------------------------------------------------

def homotopy_orbits(hfp: Chart, tate: Chart,
                    loc_maps: dict[Degree, IntMatrix]) -> Chart:
    """Orbits from the long exact sequence through the localization map."""
    w = hfp.window
    out_w = Window(w.xmin, w.xmax - 1, w.ymin, w.ymax - 1)
    return _les_chart(hfp, loc_maps, tate, out_w, hfp.name + "-orbits")


# ---------------------------------------------------------------------------
# geometric fixed points
# ---------------------------------------------------------------------------

def geometric_fixed_points_with_maps(tate: Chart, connective_certificate: bool
                                     ) -> tuple[Chart, dict[Degree, IntMatrix]]:
    """Connective cover of the Tate chart, spread a-periodically.

    The integer line is truncated to non-negative degrees and copied up
    and down each column; this needs the input to really be a-periodic
    and the theory to be non-equivariantly connective (the caller's
    certificate), both enforced.  Also returns the per-degree inclusion
    into the Tate chart.
    """
    if not connective_certificate:
        raise TatePipelineError(
            "geometric fixed points need a connectivity certificate for the theory")
    w = tate.window
    if not (w.ymin <= 0 <= w.ymax):
        raise NotPeriodicError("window must contain the integer line")
    for x in range(w.xmin, w.xmax + 1):
        bottom = (x, w.ymin)
        base = tate.orders(bottom)
        for y in range(w.ymin, w.ymax + 1):
            # equal orders give equal groups; only others build them
            if tate.orders((x, y)) != base and tate.group((x, y)) != tate.group(bottom):
                raise NotPeriodicError(f"input chart is not a-periodic at x = {x}")
    columns: dict[int, ChartEntry] = {}
    for x in range(max(0, w.xmin), w.xmax + 1):
        line = tate.entry((x, 0))
        if line is None:
            continue
        gens = tuple(Generator(f"ph({g.label})", g.annotation, g.order)
                     for g in line.gens)
        columns[x] = ChartEntry(gens)
    chart = _periodic_chart(tate.name + "-phi", w, columns)
    return chart, {d: IntMatrix.identity(len(e.gens)) for d, e in chart.entries.items()}


# ---------------------------------------------------------------------------
# the genuine chart
# ---------------------------------------------------------------------------

def assemble_genuine(hfp: Chart, tate: Chart, loc_maps: dict[Degree, IntMatrix],
                     phi: Chart, phi_maps: dict[Degree, IntMatrix],
                     window: Window, name: str) -> Chart:
    """The genuine chart as the fibre of hfp -> tate/phi.

    The Tate square is a pullback, so the genuine chart is the fibre of
    the localization map followed by the quotient by phi.  Each inclusion
    of phi must be an isomorphism onto its degree of the Tate chart, so
    tate/phi is the Tate chart off those degrees, with its generators.
    """
    w = hfp.window
    if not (w.contains((window.xmin, window.ymin))
            and w.contains((window.xmax + 1, window.ymax + 1))):
        raise TatePipelineError("input charts need one degree of margin around the window")
    for d, inclusion in phi_maps.items():
        if not map_is_iso(inclusion, phi.orders(d), tate.orders(d)):
            raise TatePipelineError("phi does not include isomorphically into the "
                                    f"Tate chart at {d}")
    kept = {d: e for d, e in tate.entries.items() if d not in phi_maps}
    quotient = Chart(name=tate.name + "/phi", window=tate.window, entries=kept,
                     maps={"a": {d: m for d, m in tate.maps["a"].items() if d in kept}})
    into = {d: m for d, m in loc_maps.items() if d in kept}
    return _les_chart(hfp, into, quotient, window, name)


def run_tate_square(hfp: Chart, connective: bool, window: Window,
                    name: str) -> TateSquareData:
    """The square from a homotopy-fixed-point chart, the orbits on demand."""
    tate, loc = invert_a_with_maps(hfp)
    phi, phi_maps = geometric_fixed_points_with_maps(tate, connective)
    genuine = assemble_genuine(hfp, tate, loc, phi, phi_maps, window, name)
    return TateSquareData(hfp=hfp, tate=tate, phi=phi, genuine=genuine, loc_maps=loc)
