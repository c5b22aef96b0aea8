"""Theory seeds and the theory-level pipelines.

Two theories are wired up: the integral Eilenberg-MacLane theory (hz)
and connective Real K-theory (kr).  Each seed is declared here in code:
the fixed-point page presentation with its differential rounds and the
page monomials of the structure maps; the label conventions are per
theory too.  On top of the page engine and the Tate square this module
adds the vbar-Bockstein spectral sequence, which reads hz's theta and a
maps (`grading.hz_map_image`) through one per-run table, the slice
re-indexing, and the structural chart checkers (gap and connectivity).
"""

from __future__ import annotations

from .exactalg import (FgAbelian, IntMatrix, NotInLatticeError, PresentedGroup,
                       Record, has_nonzero_hom, map_is_iso, presented_homology)
from .grading import (Chart, ChartEntry, Degree, Generator, Window, CIRCLE,
                      DOT, MAP_DEGREES, SQUARE, ChartError, desc_matrix,
                      hz_generator, hz_map_image, hz_order, hz_summands,
                      hz_support, join_labels, power_label)
from .specseq import (DifferentialRule, Page, PageGenerator, Presentation,
                      collapse_to_chart)
from .tate import (TateSquareData, fixed_point_window, run_tate_square,
                   torsion_split_by_a)


class TheoryError(Exception):
    pass


class TheorySeed(Record):
    __slots__ = ()
    _fields = ("name", "presentation", "rules", "map_monos")

    def __new__(cls, name: str, presentation: Presentation,
                rules: tuple[DifferentialRule, ...], map_monos: dict[str, dict[str, int]]):
        return tuple.__new__(cls, (name, presentation, rules, map_monos))

    def label_of(self, mono, coeff: int) -> str:
        return _class_label(self.name, self.presentation, mono, coeff)


_A = PageGenerator("a", (-1, 1, -1))
_LAM = PageGenerator("lam", (0, 1, -1), invertible=True)
_D1 = DifferentialRule((("lam", 1),), 2, (("a", 1),))


def hz_seed() -> TheorySeed:
    return TheorySeed("hz", Presentation((_A, _LAM)), (_D1,),
                      {"a": {"a": 1}, "u": {"lam": 2}, "U": {"lam": 4}})


def kr_seed() -> TheorySeed:
    vb = PageGenerator("vb", (0, 1, 1))
    d2 = DifferentialRule((("lam", 2),), 1, (("a", 3), ("vb", 1)))
    return TheorySeed("kr", Presentation((_A, vb, _LAM)), (_D1, d2),
                      {"a": {"a": 1}, "vbar": {"vb": 1}, "U": {"lam": 4}})


def _class_label(theory: str, pres: Presentation, mono, coeff: int) -> str:
    """Fold lambda powers into the standard periodicity class names."""
    powers = dict(zip((g.name for g in pres.generators), mono))
    lam = powers["lam"]
    parts = ["" if coeff == 1 else str(coeff), power_label("a", powers["a"])]
    if lam % 2:
        # an odd lam power has no class name; its exponent is always shown
        parts.append(f"lam^{lam}")
        lam = 0
    if theory == "kr":
        n, rem = divmod(lam, 4)
        if rem == 2:
            if parts[0] == "2":
                parts[0] = "2u"
            else:
                parts.append("u")
        parts += [power_label("vb", powers["vb"]), power_label("U", n)]
    else:
        parts.append(power_label("u", lam // 2))
    return join_labels(*parts)


# ---------------------------------------------------------------------------
# homotopy fixed points and the Tate pipeline
# ---------------------------------------------------------------------------

def build_pages(seed: TheorySeed) -> list[Page]:
    """E_1 and the page after each differential round."""
    pages = [Page(seed.presentation)]
    for rule in seed.rules:
        pages.append(pages[-1].turn(rule))
    return pages


def run_hfpss(seed: TheorySeed, window: Window) -> Chart:
    """Drive the page engine to its collapsed chart with structure maps.
    The chart is read off the last page, which certifies every page of
    the chain (`collapse_to_chart`).

    Every declared structure map must be multiplication by a class of the
    last page, the only monomials multiplication is defined by there; a
    `TheoryError` names each one that is not.
    """
    page = build_pages(seed)[-1]
    dead = [name for name, powers in seed.map_monos.items() if not page.is_cycle(powers)]
    if dead:
        raise TheoryError(f"{seed.name}: structure maps {', '.join(dead)} are not "
                          f"multiplication by classes of the last page")
    return collapse_to_chart(page, window, f"{seed.name}-hfp",
                             label_of=seed.label_of, map_monos=seed.map_monos)


def run_tate_pipeline(seed: TheorySeed, window: Window) -> TateSquareData:
    """Homotopy fixed points on the window the Tate square over window
    reads (`tate.fixed_point_window`), then the square."""
    hfp = run_hfpss(seed, fixed_point_window(window))
    return run_tate_square(hfp, window, f"{seed.name}-tate")


# ---------------------------------------------------------------------------
# the vbar-Bockstein spectral sequence
# ---------------------------------------------------------------------------

def _is_stub_top(desc: tuple) -> bool:
    """The top of an odd stub: absorbed into its index-2 partner one floor
    up, a hidden extension that the floor homology cannot see."""
    return desc[0] == "utow" and desc[1] % 2 == 1 and desc[2] == 2 * desc[1] + 3


class _BaseTable:
    """What one Bockstein run reads at each base degree p, each worked out
    once: the hz summands with their orders, the hz maps out of p (theta,
    and a for the splitting rule; theta into p is theta out of p - theta)
    and the floor group on floor 0 and on the floors above it.  Theta is
    certified where it is read: its degree and nonzero target by
    `map_out`, its square by `floor_group`."""

    __slots__ = ("_summands", "_out", "_floors")

    def __init__(self):
        self._summands: dict[Degree, tuple[list[tuple], tuple[int, ...]]] = {}
        self._out: dict[tuple[str, Degree], IntMatrix] = {}
        # floor 0, and the floors above it
        self._floors: tuple[dict[Degree, PresentedGroup], ...] = ({}, {})

    def summands(self, p: Degree) -> tuple[list[tuple], tuple[int, ...]]:
        """The hz summand descriptors at p and their orders."""
        got = self._summands.get(p)
        if got is None:
            descs = hz_summands(*p)
            got = self._summands[p] = (descs, tuple(map(hz_order, descs)))
        return got

    def map_out(self, name: str, p: Degree) -> IntMatrix:
        """The hz map name (`hz_map_image`) out of p in hz coordinates; an
        image that is no summand at p + its degree is a `TheoryError`
        naming the map, p and both descriptors."""
        mat = self._out.get((name, p))
        if mat is None:
            dx, dy = MAP_DEGREES[name]
            try:
                mat = self._out[name, p] = desc_matrix(
                    self.summands(p)[0], self.summands((p[0] + dx, p[1] + dy))[0],
                    lambda desc: hz_map_image(name, desc))
            except ChartError as err:
                raise TheoryError(f"{name} out of base degree {p}: {err}") from None
        return mat

    def floor_group(self, floor: int, p: Degree) -> PresentedGroup:
        """The collapsed Bockstein group on one floor at base degree p.

        The first differential is theta pushed up one floor, so floor 0
        keeps ker(theta out of p) and every higher floor also divides by
        im(theta into p), both read through `map_out`; that quotient checks
        theta o theta = 0 through p (a `TheoryError` naming p if not): the
        only place a result depends on it, floor 0 being ker theta alone.
        Generators are in the hz coordinates at p.
        """
        groups = self._floors[floor > 0]
        group = groups.get(p)
        if group is None:
            dx, dy = MAP_DEGREES["theta"]
            orders = self.summands(p)[1]
            dst = self.summands((p[0] + dx, p[1] + dy))[1]
            into = (self.map_out("theta", (p[0] - dx, p[1] - dy))
                    if floor else IntMatrix.zero(len(orders), 0))
            try:
                group = groups[p] = presented_homology(self.map_out("theta", p), dst, into, orders)
            except NotInLatticeError:
                raise TheoryError(f"theta o theta != 0 at base degree {p}") from None
        return group


class BssClass(Record):
    """One surviving class on a Bockstein floor.

    index2 marks the infinite cyclic classes surviving as twice the
    first-page generator (the large circles of the collapsed display).
    The order is left out of the repr, which names the class by floor
    and descriptor alone.
    """

    __slots__ = ()
    _fields = ("floor", "desc", "index2", "order")

    def __new__(cls, floor: int, desc: tuple, index2: bool, order: int):
        return tuple.__new__(cls, (floor, desc, index2, order))

    def __repr__(self):
        return f"BssClass(floor={self.floor!r}, desc={self.desc!r}, index2={self.index2!r})"

    def label(self) -> str:
        base = hz_generator(self.desc).label
        two = "2" if self.index2 and not base.startswith("2") else ""
        return join_labels(two, power_label("vh", self.floor), "" if base == "1" else base)


def bss_floor_survivors(floor: int, p: Degree, table: _BaseTable) -> list[BssClass]:
    """Classes of the collapsed Bockstein page on one floor at one base
    degree: one per generator of the theta-homology there, named by the
    hz generator it is a multiple of, read through table."""
    descs = table.summands(p)[0]
    group = table.floor_group(floor, p)
    out = []
    for gen, order in zip(group.gens.columns(), group.orders):
        i, coeff = next((i, c) for i, c in enumerate(gen) if c)
        out.append(BssClass(floor, descs[i], order == 0 and abs(coeff) == 2, order))
    return out


def _splits_on_floor(table: _BaseTable, floor: int, p: Degree) -> bool:
    """The Tate side's splitting rule on one floor: the torsion at p
    must be a-multiples of the classes on the same floor at p + (0, 1)."""
    here = table.floor_group(floor, p)
    up = (p[0], p[1] + 1)

    def induced_a() -> IntMatrix:
        return here.induced(table.map_out("a", up), table.floor_group(floor, up))
    return torsion_split_by_a(here.orders, induced_a)


def _survivor_table(window: Window, floors: int,
                    table: _BaseTable) -> dict[Degree, list[BssClass]]:
    """Every surviving class of floors 0..floors whose total degree lies
    in window or one column left of it, keyed by total degree with the
    floors ascending: in `run_bockstein`, the one scope of both its chart
    and its d_r search.

    A floor group depends on its floor only through whether the floor is
    0, so each base degree p with an hz summand (`hz_support`) is computed
    once for floor 0 and once for the floors above, each only where its
    diagonal of total degrees p + (s, s) reaches such a floor; its classes
    go only onto the floors that have some, so no key holds an empty list.
    """
    w = Window(window.xmin - 1, window.xmax, window.ymin, window.ymax)
    survivors: dict[Degree, list[BssClass]] = {}
    for p in hz_support(Window(w.xmin - floors, w.xmax, w.ymin - floors, w.ymax)):
        lo = max(0, w.xmin - p[0], w.ymin - p[1])
        hi = min(floors, w.xmax - p[0], w.ymax - p[1])
        if lo > hi:
            continue
        if lo == 0:
            ground = bss_floor_survivors(0, p, table)
            if ground:
                survivors.setdefault(p, []).extend(ground)
        upper = bss_floor_survivors(1, p, table) if hi >= 1 else []
        if upper:
            for s in range(max(lo, 1), hi + 1):
                survivors.setdefault((p[0] + s, p[1] + s), []).extend(
                    BssClass(s, cls.desc, cls.index2, cls.order) for cls in upper)
    for classes in survivors.values():
        classes.sort(key=lambda cls: cls.floor)
    return survivors


class BocksteinResult:
    __slots__ = ("chart", "absorbed", "candidates")

    def __init__(self, chart: Chart, absorbed: list[tuple[Degree, BssClass]], candidates: list):
        self.chart = chart
        self.absorbed = absorbed
        self.candidates = candidates


def run_bockstein(window: Window) -> BocksteinResult:
    """The Real K-theory chart from the integral theory and theta.

    Floors are copies of the integral chart shifted along the diagonal;
    the first differential is theta pushed up one floor, and each floor
    is its theta-homology, whose algebra certifies theta's laws wherever
    the run reads theta.  The collapsed floors are assembled by total
    degree, with the top class of each odd stub absorbed into the
    infinite cyclic class one floor up (its index-2 partner), and every
    extension split by the Tate side's a-divisibility rule.  Higher
    differentials are not assumed away: every surviving class is
    searched against every later differential shape, and any possible
    hit is reported as a hard error by the caller.  One survivor table,
    each base degree read once through the run's `_BaseTable`, is the
    scope of both the chart and the d_r search.  It reads every floor
    that can hold a class: hz is zero where x < 0 and x + y < 0, and
    floor s at total degree (x, y) sits on hz at (x - s, y - s), so it
    is zero once s > x and 2s > x + y.
    """
    floors = max(0, window.xmax, (window.xmax + window.ymax) // 2)
    entries: dict[Degree, ChartEntry] = {}
    absorbed: list[tuple[Degree, BssClass]] = []

    base_table = _BaseTable()
    table = _survivor_table(window, floors, base_table)
    # sorted order is window order; the table also holds the column
    # left of the window
    for d, contributions in sorted(table.items()):
        if not window.contains(d):
            continue
        gens: list[Generator] = []
        flagged = False
        for cls in contributions:
            if _is_stub_top(cls.desc):
                absorbed.append((d, cls))
                continue
            p = (d[0] - cls.floor, d[1] - cls.floor)
            if len(contributions) > 1 and not _splits_on_floor(base_table, cls.floor, p):
                flagged = True
            annot = DOT if cls.order else (CIRCLE if cls.index2 else SQUARE)
            gens.append(Generator(cls.label(), annot, cls.order))
        if gens:
            entries[d] = ChartEntry(tuple(gens), exact=not flagged)

    chart = Chart(name="kr-bockstein", window=window, entries=entries, maps={})
    candidates = bss_higher_candidates(window, table)
    return BocksteinResult(chart=chart, absorbed=absorbed, candidates=candidates)


def bss_higher_candidates(window: Window, table: dict[Degree, list[BssClass]]):
    """Surviving source/target pairs a later differential could connect.

    A d_r lowers the total degree by (1, 0) and raises the floor by r,
    so the targets of a class at d in window are the classes of the
    survivor table at d - (1, 0) at least 2 floors above it, however
    high the table reaches.
    """
    out = []
    for d, sources in sorted(table.items()):  # window order
        targets = table.get((d[0] - 1, d[1]))
        if not targets or not window.contains(d):
            continue
        for cls in sources:
            for tgt in targets:
                r = tgt.floor - cls.floor
                if r >= 2 and has_nonzero_hom(
                        FgAbelian.from_orders([cls.order]),
                        FgAbelian.from_orders([tgt.order])):
                    out.append((r, d, cls, tgt))
    return out


# ---------------------------------------------------------------------------
# slice re-indexing
# ---------------------------------------------------------------------------

def bss_to_sss(xb: int, yb: int) -> tuple[int, int]:
    return (xb, 2 * yb - xb)


def sss_to_bss(xs: int, ys: int) -> tuple[int, int]:
    if (xs + ys) % 2:
        raise TheoryError(f"({xs},{ys}) has odd parity: structurally zero")
    return (xs, (xs + ys) // 2)


def sss_entry_e1(n: int, s: int) -> FgAbelian:
    """First-page slice entry at Adams coordinates (n, s)."""
    if (n + s) % 2 or s < 0 or (n + s) // 2 < 0:
        return FgAbelian.zero()
    k = (n + s) // 2
    return FgAbelian.from_orders(map(hz_order, hz_summands(k - s, -k)))


def sss_entry_einf(n: int, s: int) -> FgAbelian:
    """Surviving slice entry at (n, s), read off the Bockstein floor."""
    if (n + s) % 2 or s < 0 or (n + s) // 2 < 0:
        return FgAbelian.zero()
    k = (n + s) // 2
    return _BaseTable().floor_group(k, (k - s, -k)).group


# ---------------------------------------------------------------------------
# structural checkers
# ---------------------------------------------------------------------------

class CheckReport(Record):
    __slots__ = ()
    _fields = ("passed", "violations")

    def __new__(cls, passed: bool, violations: tuple[tuple[Degree, str], ...]):
        return tuple.__new__(cls, (passed, violations))


def gap_check(chart: Chart) -> CheckReport:
    """The three diagonals above the unit diagonal vanish; the diagonal
    entries themselves are free of rank at most one."""
    violations = []
    w = chart.window
    for d in w.degrees():
        x, y = d
        if x - y in (-1, -2, -3) and not chart.group(d).is_zero():
            violations.append((d, f"nonzero group {chart.group(d)} in the gap"))
        if x == y and x >= 0:
            g = chart.group(d)
            if g.torsion or g.rank > 1:
                violations.append((d, f"diagonal entry {g} is not free of rank <= 1"))
    return CheckReport(not violations, tuple(violations))


def connectivity_check(chart: Chart) -> CheckReport:
    """Vanishing below the antidiagonal for x < 0, and a-multiplication
    an isomorphism below the antidiagonal for x >= 0."""
    if "a" not in chart.maps:
        raise ChartError("connectivity check needs a-multiplication data")
    violations = []
    w = chart.window
    a = chart.map("a")
    for d in w.degrees():
        x, y = d
        if x < 0 and x + y < 0 and not chart.group(d).is_zero():
            violations.append((d, f"nonzero group {chart.group(d)} below the antidiagonal"))
        if x >= 0 and x + y < 0 and w.contains((x, y - 1)):
            if not map_is_iso(a.at(d), chart.orders(d), chart.orders((x, y - 1))):
                violations.append((d, "a-multiplication not an isomorphism"))
    return CheckReport(not violations, tuple(violations))


def inject_class(chart: Chart, d: Degree) -> Chart:
    """A mutated copy with a spurious order-2 class at d (for tests)."""
    entries = dict(chart.entries)
    old = entries.get(d)
    gens = (old.gens if old else ()) + (Generator("spurious", DOT, 2),)
    entries[d] = ChartEntry(gens, exact=old.exact if old else True)
    return Chart(name=chart.name + "-mutated", window=chart.window,
                 entries=entries, maps=chart.maps)
