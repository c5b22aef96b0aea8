"""RO(Q)-graded degrees, windowed charts, and the closed-form charts.

A degree x + y*sigma is stored as the integer pair (x, y) and displayed
at cartesian (x, y).  Charts associate finitely generated abelian groups
with named generators to degrees inside a finite window; absent degrees
are the zero group.  Structure maps (multiplication by a, u, U, vbar,
and hz's stable operation theta) are integer matrices between the
chosen generator bases, read as a `ChartMap`.  The closed-form charts
build each map family on its first read, and check then that each image
lands in a summand of its target degree.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Mapping
from functools import partial

from .exactalg import ExactAlgebraError, FgAbelian, IntMatrix, Record


Degree = tuple[int, int]

# degrees of the structure maps in (x, y) coordinates: multiplication by
# a, u, U and vbar, and hz's stable operation theta, HZ -> S^(2+sigma) HZ
MAP_DEGREES: dict[str, Degree] = {
    "a": (0, -1),
    "u": (2, -2),
    "U": (4, -4),
    "vbar": (1, 1),
    "theta": (-2, -1),
}

SQUARE = "square"
CIRCLE = "circle"
DOT = "dot"


class ChartError(Exception):
    pass


class OutOfWindowError(ChartError):
    """A degree outside the chart window was queried where that matters."""


class Window(Record):
    __slots__ = ()
    _fields = ("xmin", "xmax", "ymin", "ymax")

    def __new__(cls, xmin: int, xmax: int, ymin: int, ymax: int):
        if xmin > xmax or ymin > ymax:
            raise ChartError("empty window")
        return tuple.__new__(cls, (xmin, xmax, ymin, ymax))

    @staticmethod
    def square(radius: int) -> "Window":
        return Window(-radius, radius, -radius, radius)

    def contains(self, d: Degree) -> bool:
        x, y = d
        return self.xmin <= x <= self.xmax and self.ymin <= y <= self.ymax

    def degrees(self):
        for x in range(self.xmin, self.xmax + 1):
            for y in range(self.ymin, self.ymax + 1):
                yield (x, y)

    def intersect(self, other: "Window") -> "Window":
        return Window(max(self.xmin, other.xmin), min(self.xmax, other.xmax),
                      max(self.ymin, other.ymin), min(self.ymax, other.ymax))

    def __str__(self):
        return f"[{self.xmin}..{self.xmax}]x[{self.ymin}..{self.ymax}]"


class Generator(Record):
    """One named generator of a chart entry.

    order 0 means an infinite cyclic summand; a circle annotation marks a
    free generator that is twice the evident lattice element.
    """

    __slots__ = ()
    _fields = ("label", "annotation", "order")

    def __new__(cls, label: str, annotation: str, order: int = 0):
        if annotation not in (SQUARE, CIRCLE, DOT):
            raise ChartError(f"unknown annotation {annotation!r}")
        if annotation == DOT and order == 0:
            raise ChartError("dots must carry torsion")
        if annotation in (SQUARE, CIRCLE) and order != 0:
            raise ChartError("squares and circles are infinite cyclic")
        return tuple.__new__(cls, (label, annotation, order))


class ChartEntry(Record):
    """The generators of one degree; the dot orders, in entry order, must
    form the group's torsion chain (the order the document format keeps).

    The check is `FgAbelian`'s, made one dot at a time: each order is at
    least 2 and a multiple of the one before.  A valid entry builds no
    group; only a dot that fails builds `FgAbelian(0, dots)`, whose error
    the `ChartError` carries."""

    __slots__ = ()
    _fields = ("gens", "exact")

    def __new__(cls, gens: tuple[Generator, ...], exact: bool = True):
        prev = 1
        for g in gens:
            if g.annotation == DOT:
                order = g.order
                if order < 2 or order % prev:
                    try:
                        FgAbelian(0, tuple(g.order for g in gens if g.annotation == DOT))
                    except ExactAlgebraError as e:
                        raise ChartError(f"dot orders of {[g.label for g in gens]}: {e}") from e
                prev = order
        return tuple.__new__(cls, (gens, exact))

    @property
    def group(self) -> FgAbelian:
        return FgAbelian.from_orders([g.order for g in self.gens])

    @property
    def orders(self) -> tuple[int, ...]:
        return tuple(g.order for g in self.gens)


class MapFamilies(Mapping):
    """Structure-map families by name, each built by its builder on first
    read and then kept.  Membership asks only for the name, so `"a" in
    maps` builds nothing; a builder that raises keeps nothing."""

    def __init__(self, builders: dict[str, Callable[[], dict[Degree, IntMatrix]]]):
        self._builders = builders
        self._built: dict[str, dict[Degree, IntMatrix]] = {}

    def __getitem__(self, name: str) -> dict[Degree, IntMatrix]:
        family = self._built.get(name)
        if family is None:
            family = self._built[name] = self._builders[name]()
        return family

    def __contains__(self, name) -> bool:
        return name in self._builders

    def __iter__(self):
        return iter(self._builders)

    def __len__(self) -> int:
        return len(self._builders)


class Chart:
    """Windowed chart.  Treated as immutable once built."""

    __slots__ = ("name", "window", "entries", "maps")

    def __init__(self, name: str, window: Window,
                 entries: dict[Degree, ChartEntry] | None = None,
                 maps: Mapping[str, dict[Degree, IntMatrix]] | None = None):
        self.name = name
        self.window = window
        self.entries = {} if entries is None else entries
        self.maps = {} if maps is None else maps

    def entry(self, d: Degree) -> ChartEntry | None:
        return self.entries.get(d)

    def group(self, d: Degree) -> FgAbelian:
        e = self.entries.get(d)
        return e.group if e is not None else FgAbelian.zero()

    def orders(self, d: Degree) -> tuple[int, ...]:
        e = self.entries.get(d)
        return e.orders if e is not None else ()

    def is_exact(self, d: Degree) -> bool:
        e = self.entries.get(d)
        return e.exact if e is not None else True

    def map(self, name: str) -> "ChartMap":
        """Multiplication by a named class, as a map of this chart to
        itself; a family the chart does not hold is the zero map."""
        if name not in MAP_DEGREES:
            raise ChartError(f"unknown structure map {name!r}")
        return ChartMap(self, self, MAP_DEGREES[name], self.maps.get(name, {}))


class ChartMap:
    """A map of charts: out of each degree d of source into d + shift of
    target, by the matrices stored per source degree.  Treated as
    immutable; its charts compare by identity, so it is not a Record."""

    __slots__ = ("source", "target", "shift", "matrices")

    def __init__(self, source: Chart, target: Chart, shift: Degree,
                 matrices: Mapping[Degree, IntMatrix]):
        self.source = source
        self.target = target
        self.shift = shift
        self.matrices = matrices

    def at(self, d: Degree) -> IntMatrix:
        """The matrix out of d.  Out-of-window source or target raises; a
        missing matrix over valid degrees is the zero map and comes back
        with the right shape."""
        target = (d[0] + self.shift[0], d[1] + self.shift[1])
        if not self.source.window.contains(d) or not self.target.window.contains(target):
            raise OutOfWindowError(f"map out of {d} leaves window {self.source.window} "
                                   f"-> {self.target.window}")
        if d in self.matrices:
            return self.matrices[d]
        return IntMatrix.zero(len(self.target.orders(target)), len(self.source.orders(d)))


def reduce_matrix(mat: IntMatrix, dst_orders: tuple[int, ...]) -> IntMatrix:
    rows = []
    for i in range(mat.rows):
        o = dst_orders[i]
        rows.append([x % o if o else x for x in mat.row(i)])
    return IntMatrix.from_rows(rows) if rows else IntMatrix.zero(0, mat.cols)


# ---------------------------------------------------------------------------
# Summand descriptors for the two closed-form charts
#
# Descriptors are small tuples with a kind tag; they drive entry
# construction, generator labels, structure-map coefficients, and the
# Bockstein differential, so every consumer agrees on the cell structure.
# ---------------------------------------------------------------------------

def power_label(sym: str, e: int) -> str:
    """The label of sym^e: empty for e = 0, sym for e = 1."""
    if e == 0:
        return ""
    if e == 1:
        return sym
    return f"{sym}^{e}"


def join_labels(*parts: str) -> str:
    """The nonempty parts joined by spaces, or "1" if there are none."""
    return " ".join(filter(None, parts)) or "1"


# ---- integral Eilenberg-MacLane theory -----------------------------------

def hz_summands(x: int, y: int, variant: str = "genuine") -> list[tuple]:
    """Summand descriptors of the integral theory at (x, y).

    genuine: squares u^j on the antidiagonal for x >= 0 with full
    a-columns below, circles 2u^-j for x < 0 even, and the dual towers
    t(j, y) one column left of and above each circle.
    hfp: squares at every even x (u inverted) with full columns below.
    """
    out: list[tuple] = []
    if x % 2 == 0:
        j = x // 2
        if y == -x:
            if variant == "genuine" and j < 0:
                out.append(("ucirc", -j))
            else:
                out.append(("usq", j))
        elif y < -x and (j >= 0 or variant == "hfp"):
            out.append(("ucol", -x - y, j))
    else:
        if variant == "genuine" and x <= -3 and y >= -x:
            out.append(("utow", (-x - 1) // 2, y))
    return out


def hz_support(window: Window) -> Iterator[Degree]:
    """The degrees of window where `hz_summands` (genuine) is nonempty, in
    window order: the antidiagonal, the even columns x >= 0 below it and
    the odd towers x <= -3 above it."""
    for x in range(window.xmin, window.xmax + 1):
        if x % 2 == 0:
            ys = range(window.ymin if x >= 0 else max(window.ymin, -x),
                       min(window.ymax, -x) + 1)
        elif x <= -3:
            ys = range(max(window.ymin, -x), window.ymax + 1)
        else:
            continue
        for y in ys:
            yield (x, y)


def hz_order(desc: tuple) -> int:
    """Order of an integral generator: 2 on the a-columns and the dual
    towers, 0 (infinite cyclic) on the squares and circles."""
    kind = desc[0]
    if kind in ("ucol", "utow"):
        return 2
    if kind in ("usq", "ucirc"):
        return 0
    raise ChartError(f"unknown descriptor {desc!r}")


def hz_generator(desc: tuple) -> Generator:
    kind, order = desc[0], hz_order(desc)
    if kind == "usq":
        return Generator(join_labels(power_label("u", desc[1])), SQUARE, order)
    if kind == "ucol":
        k, j = desc[1], desc[2]
        return Generator(join_labels(power_label("a", k), power_label("u", j)), DOT, order)
    if kind == "ucirc":
        return Generator("2" + power_label("u", -desc[1]), CIRCLE, order)
    return Generator(f"t({desc[1]},{desc[2]})", DOT, order)  # utow


def hz_map_image(name: str, desc: tuple) -> list[tuple[tuple, int]]:
    """Image of a closed-form generator under a structure map."""
    kind = desc[0]
    if name == "a":
        if kind == "usq":
            return [(("ucol", 1, desc[1]), 1)]
        if kind == "ucol":
            return [(("ucol", desc[1] + 1, desc[2]), 1)]
        if kind == "ucirc":
            return []
        if kind == "utow":
            j, yy = desc[1], desc[2]
            return [(("utow", j, yy - 1), 1)] if yy - 1 >= 2 * j + 1 else []
    if name == "u":
        if kind == "usq":
            return [(("usq", desc[1] + 1), 1)]
        if kind == "ucol":
            return [(("ucol", desc[1], desc[2] + 1), 1)]
        if kind == "ucirc":
            j = desc[1]
            return [(("usq", 0), 2)] if j == 1 else [(("ucirc", j - 1), 1)]
        if kind == "utow":
            j, yy = desc[1], desc[2]
            return [(("utow", j - 1, yy - 2), 1)] if j >= 2 else []
    if name == "theta":
        # a^3 times one step of u-division, nonzero on odd u-powers; the
        # circles go to zero; on the dual towers one tower left and one
        # step down, nonzero on odd towers wherever the target exists
        if kind == "usq":
            return [(("ucol", 3, desc[1] - 1), 1)] if desc[1] % 2 else []
        if kind == "ucol":
            return [(("ucol", desc[1] + 3, desc[2] - 1), 1)] if desc[2] % 2 else []
        if kind == "ucirc":
            return []
        if kind == "utow":
            j, yy = desc[1], desc[2]
            return [(("utow", j + 1, yy - 1), 1)] if j % 2 and yy >= 2 * j + 4 else []
    raise ChartError(f"no {name}-multiplication on {desc!r}")


# ---- connective Real K-theory ---------------------------------------------

def kr_summands(x: int, y: int, variant: str = "genuine") -> list[tuple]:
    """Summand descriptors of connective Real K-theory at (x, y).

    The block at U^j contributes, for j >= 0 (and every j for the
    homotopy-fixed-point variant): the square U^j with its a-column,
    the vbar-diagonal of squares, the two slope-one dot rays starting
    at a*vbar and a^2*vbar, and the circle ray starting at 2u.
    Negative genuine blocks replace the square by the circle 2U^-k,
    drop the a-column, and add the dual tower at x = -4k - 1.
    """
    out: list[tuple] = []
    diff = x - y
    if diff % 8 == 0:
        j = diff // 8
        m = x - 4 * j
        if j >= 0 or variant == "hfp":
            if m >= 0:
                out.append(("Usq", j, m))
        else:
            if m == 0:
                out.append(("Ucirc2", -j))
            elif m >= 1:
                out.append(("Usq", j, m))
    if diff % 8 == 1:
        j = (diff - 1) // 8
        m = x - 4 * j
        if m >= 1:
            out.append(("Uray_a", m, j))
    if diff % 8 == 2:
        j = (diff - 2) // 8
        m = x - 4 * j
        if m >= 1:
            out.append(("Uray_a2", m, j))
    if diff % 8 == 4:
        j = (diff - 4) // 8
        m = x - 4 * j - 2
        if m >= 0:
            out.append(("Uray_2u", m, j))
    if x % 4 == 0 and y < -x and (x >= 0 or variant == "hfp"):
        out.append(("Ucol", -x - y, x // 4))
    if variant == "genuine" and x % 4 == 3 and x <= -5 and y >= -x:
        out.append(("Utow", (-x - 1) // 4, y))
    return out


def kr_generator(desc: tuple) -> Generator:
    kind = desc[0]
    if kind == "Usq":
        j, m = desc[1], desc[2]
        return Generator(join_labels(power_label("vb", m), power_label("U", j)), SQUARE, 0)
    if kind == "Ucirc2":
        return Generator("2" + power_label("U", -desc[1]), CIRCLE, 0)
    if kind == "Ucol":
        i, j = desc[1], desc[2]
        return Generator(join_labels(power_label("a", i), power_label("U", j)), DOT, 2)
    if kind == "Uray_a":
        m, j = desc[1], desc[2]
        return Generator(join_labels("a", power_label("vb", m), power_label("U", j)), DOT, 2)
    if kind == "Uray_a2":
        m, j = desc[1], desc[2]
        return Generator(join_labels("a^2", power_label("vb", m), power_label("U", j)), DOT, 2)
    if kind == "Uray_2u":
        m, j = desc[1], desc[2]
        return Generator(join_labels("2u", power_label("vb", m), power_label("U", j)), CIRCLE, 0)
    if kind == "Utow":
        return Generator(f"t({desc[1]},{desc[2]})", DOT, 2)
    raise ChartError(f"unknown descriptor {desc!r}")


def kr_map_image(name: str, desc: tuple) -> list[tuple[tuple, int]]:
    kind = desc[0]
    if name == "a":
        if kind == "Usq":
            j, m = desc[1], desc[2]
            if m == 0:
                return [(("Ucol", 1, j), 1)]
            return [(("Uray_a", m, j), 1)]
        if kind == "Ucol":
            return [(("Ucol", desc[1] + 1, desc[2]), 1)]
        if kind == "Uray_a":
            return [(("Uray_a2", desc[1], desc[2]), 1)]
        if kind in ("Uray_a2", "Uray_2u", "Ucirc2"):
            return []
        if kind == "Utow":
            k, yy = desc[1], desc[2]
            return [(("Utow", k, yy - 1), 1)] if yy - 1 >= 4 * k + 1 else []
    if name == "vbar":
        if kind == "Usq":
            return [(("Usq", desc[1], desc[2] + 1), 1)]
        if kind == "Ucirc2":
            return [(("Usq", -desc[1], 1), 2)]
        if kind == "Ucol":
            i, j = desc[1], desc[2]
            if i == 1:
                return [(("Uray_a", 1, j), 1)]
            if i == 2:
                return [(("Uray_a2", 1, j), 1)]
            return []
        if kind == "Uray_a":
            return [(("Uray_a", desc[1] + 1, desc[2]), 1)]
        if kind == "Uray_a2":
            return [(("Uray_a2", desc[1] + 1, desc[2]), 1)]
        if kind == "Uray_2u":
            return [(("Uray_2u", desc[1] + 1, desc[2]), 1)]
        if kind == "Utow":
            return []
    if name == "U":
        if kind == "Usq":
            return [(("Usq", desc[1] + 1, desc[2]), 1)]
        if kind == "Ucirc2":
            k = desc[1]
            return [(("Usq", 0, 0), 2)] if k == 1 else [(("Ucirc2", k - 1), 1)]
        if kind == "Ucol":
            return [(("Ucol", desc[1], desc[2] + 1), 1)]
        if kind == "Uray_a":
            return [(("Uray_a", desc[1], desc[2] + 1), 1)]
        if kind == "Uray_a2":
            return [(("Uray_a2", desc[1], desc[2] + 1), 1)]
        if kind == "Uray_2u":
            return [(("Uray_2u", desc[1], desc[2] + 1), 1)]
        if kind == "Utow":
            k, yy = desc[1], desc[2]
            return [(("Utow", k - 1, yy - 4), 1)] if k >= 2 else []
    raise ChartError(f"no {name}-multiplication on {desc!r}")


# ---------------------------------------------------------------------------
# Closed-form chart builders
# ---------------------------------------------------------------------------

def desc_matrix(src_descs: list[tuple], dst_descs: list[tuple], image) -> IntMatrix:
    """The map from the summands src_descs to the summands dst_descs, from
    each source descriptor's image as (descriptor, coefficient) pairs; an
    image outside dst_descs raises ChartError.  The rows are rectangular by
    construction, so the matrix is built without the shape check."""
    rows = [[0] * len(src_descs) for _ in dst_descs]
    for col, desc in enumerate(src_descs):
        for img, coeff in image(desc):
            if img not in dst_descs:
                raise ChartError(f"{desc!r} maps to {img!r}, not a target summand")
            rows[dst_descs.index(img)][col] += coeff
    return IntMatrix._of((len(dst_descs), len(src_descs), tuple(map(tuple, rows))))


def _map_family(window: Window, descs: dict[Degree, list[tuple]], map_image,
                mname: str) -> dict[Degree, IntMatrix]:
    """The nonzero-target matrices of one structure map, degree by degree."""
    dx, dy = MAP_DEGREES[mname]
    family: dict[Degree, IntMatrix] = {}
    for d, ds in descs.items():
        target = (d[0] + dx, d[1] + dy)
        if not window.contains(target):
            continue
        mat = desc_matrix(ds, descs.get(target, []), lambda s: map_image(mname, s))
        if mat.rows:
            family[d] = mat
    return family


def _build_chart(name: str, window: Window, degrees: Iterable[Degree], summands,
                 generator_of, map_image, map_names: tuple[str, ...]) -> Chart:
    """Entries at the degrees of window that have summands, walked in
    window order; each map family on its first read (`MapFamilies`), when
    `desc_matrix` checks every image of the family's degrees."""
    entries: dict[Degree, ChartEntry] = {}
    descs: dict[Degree, list[tuple]] = {}
    for d in degrees:
        ds = summands(d[0], d[1])
        if ds:
            descs[d] = ds
            entries[d] = ChartEntry(tuple(map(generator_of, ds)))
    maps = MapFamilies({m: partial(_map_family, window, descs, map_image, m)
                        for m in map_names})
    return Chart(name=name, window=window, entries=entries, maps=maps)


def closed_form_hz(window: Window) -> Chart:
    """The integral theory from its block decomposition, degree by degree
    over its support (`hz_support`); the a and u maps are built on first
    read (`_build_chart`)."""
    return _build_chart("hz-closed", window, hz_support(window), hz_summands,
                        hz_generator, hz_map_image, ("a", "u"))


def closed_form_kr(window: Window) -> Chart:
    """Connective Real K-theory from its block decomposition; the a, vbar
    and U maps are built on first read (`_build_chart`)."""
    return _build_chart("kr-closed", window, window.degrees(), kr_summands,
                        kr_generator, kr_map_image, ("a", "vbar", "U"))
