"""Serialization, parsing, rendering and diffing of charts.

The chart document format is line-based, versioned, and canonical:
serializing a chart and parsing it back is the identity, and parsing
a canonical document and serializing it again reproduces it byte for
byte.  An entry record reads

    entry: x y | rank r torsion t1,t2,... | label:annotation; ... [| inexact]

where r counts the squares and circles and the torsion field ("-" when
empty) is the entry's dot orders in entry order, which `ChartEntry`
checks form the invariant-factor chain, so the field is the entry's
group.  A chart name is one line; a label is any string with no line
break, "; " or " | " (colons are fine), and only the first label of an
entry may start with "| ".  Rather than write a document that `parse`
rejects, `serialize` refuses a chart that breaks these rules or has an
entry with no generators or outside its window.
"""

from __future__ import annotations

from .exactalg import ExactAlgebraError, FgAbelian
from .grading import (Chart, ChartEntry, ChartError, Degree, Generator, Window,
                      CIRCLE, DOT, SQUARE)

CHART_MAGIC = "roqcharts-chart v1"


class ChartParseError(Exception):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


# ---------------------------------------------------------------------------
# chart documents
# ---------------------------------------------------------------------------

def serialize(chart: Chart) -> str:
    """Canonical text form: header, then one record per nonzero degree,
    sorted by x and then y, each group field read off the entry's own
    generators.  A chart that breaks the rules in the module docstring
    raises ChartError naming the degree, name or label at fault."""
    w = chart.window
    xmin, xmax, ymin, ymax = w
    if _breaks_line(chart.name):
        raise ChartError(f"chart name {chart.name!r} has a line break")
    lines = [CHART_MAGIC, f"name: {chart.name}", f"window: {xmin} {xmax} {ymin} {ymax}"]
    entries = chart.entries
    for d in sorted(entries):
        x, y = d
        if not (xmin <= x <= xmax and ymin <= y <= ymax):
            raise ChartError(f"entry at {d} outside window {w}")
        e = entries[d]
        chunks = []
        torsion = []
        for label, annotation, order in e.gens:
            chunks.append(f"{label}:{annotation}")
            if annotation == DOT:
                torsion.append(str(order))
        gens = "; ".join(chunks)
        # a label's "; " adds a separator, its " | " ends the field and its
        # line break the record; no generators at all leave an empty field
        if " | " in gens or gens.count("; ") >= len(chunks) or len(gens.splitlines()) > 1:
            raise _unwritable(d, e)
        rec = (f"entry: {x} {y} | rank {len(chunks) - len(torsion)} "
               f"torsion {','.join(torsion) or '-'} | {gens}")
        if not e.exact:
            rec += " | inexact"
        lines.append(rec)
    return "\n".join(lines) + "\n"


def _unwritable(d: Degree, entry: ChartEntry) -> ChartError:
    """The error naming what in the entry at d `parse` could not read back."""
    if not entry.gens:
        return ChartError(f"entry at {d} has no generators")
    for i, g in enumerate(entry.gens):
        label = g.label
        if _breaks_line(label) or "; " in label or " | " in label \
                or (i and label.startswith("| ")):
            return ChartError(f"label {label!r} at {d} cannot be written: a label "
                              "has no line break, '; ' or ' | ', and only the "
                              "first may start with '| '")
    return ChartError(f"entry at {d} would not parse back")


def _breaks_line(s: str) -> bool:
    return len(f"{s}.".splitlines()) > 1


def parse(text: str) -> Chart:
    lines = text.splitlines()
    if not lines or lines[0] != CHART_MAGIC:
        raise ChartParseError(1, f"expected header {CHART_MAGIC!r}")
    name = None
    window = None
    entries: dict[Degree, ChartEntry] = {}
    entry_lines: dict[Degree, int] = {}
    for no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        if line.startswith("name: "):
            if name is not None:
                raise ChartParseError(no, "repeated name header")
            name = line[len("name: "):]
            continue
        if line.startswith("window: "):
            if window is not None:
                raise ChartParseError(no, "repeated window header")
            try:
                xmin, xmax, ymin, ymax = map(int, line[len("window: "):].split())
                window = Window(xmin, xmax, ymin, ymax)
            except ValueError:
                raise ChartParseError(no, "window needs four integers")
            except ChartError as e:
                raise ChartParseError(no, str(e)) from e
            continue
        if not line.startswith("entry: "):
            raise ChartParseError(no, f"unrecognized line {line!r}")
        fields = line[len("entry: "):].split(" | ")
        if len(fields) < 3:
            raise ChartParseError(no, "entry needs degree, group and generators")
        try:
            x, y = map(int, fields[0].split())
        except ValueError:
            raise ChartParseError(no, "entry degree needs two integers")
        if (x, y) in entries:
            raise ChartParseError(no, f"second entry at {(x, y)}")
        gparts = fields[1].split()
        if len(gparts) != 4 or gparts[0] != "rank" or gparts[2] != "torsion":
            raise ChartParseError(no, f"malformed group field {fields[1]!r}")
        try:
            rank = int(gparts[1])
            torsion = [] if gparts[3] == "-" else [int(t) for t in gparts[3].split(",")]
        except ValueError:
            raise ChartParseError(no, f"malformed group field {fields[1]!r}")
        try:
            FgAbelian(rank, tuple(torsion))
        except ExactAlgebraError as e:
            raise ChartParseError(no, str(e)) from e
        gens = []
        free_seen = tors_seen = 0
        for chunk in fields[2].split("; "):
            label, sep, annot = chunk.rpartition(":")
            if not sep or annot not in (SQUARE, CIRCLE, DOT):
                raise ChartParseError(no, f"malformed generator {chunk!r}")
            order = 0
            if annot == DOT:
                if tors_seen >= len(torsion):
                    raise ChartParseError(no, "more dots than torsion coefficients")
                order = torsion[tors_seen]
                tors_seen += 1
            else:
                free_seen += 1
            try:
                gens.append(Generator(label, annot, order))
            except ChartError as e:
                raise ChartParseError(no, str(e)) from e
        if free_seen != rank or tors_seen != len(torsion):
            raise ChartParseError(no, "generators do not account for the group")
        if fields[3:] not in ([], ["inexact"]):
            raise ChartParseError(no, f"unknown entry flag {' | '.join(fields[3:])!r}")
        entries[(x, y)] = ChartEntry(tuple(gens), exact=len(fields) == 3)
        entry_lines[(x, y)] = no
    if name is None or window is None:
        raise ChartParseError(len(lines), "missing name or window header")
    for d, no in entry_lines.items():
        if not window.contains(d):
            raise ChartParseError(no, f"entry at {d} outside window {window}")
    return Chart(name=name, window=window, entries=entries, maps={})


# ---------------------------------------------------------------------------
# diffing
# ---------------------------------------------------------------------------

class DiffReport:
    __slots__ = ("group_diffs", "label_diffs", "window_mismatch", "disjoint")

    def __init__(self, group_diffs: list[tuple[Degree, FgAbelian, FgAbelian, str]] | None = None,
                 label_diffs: list[tuple[Degree, tuple, tuple]] | None = None,
                 window_mismatch: bool = False,
                 disjoint: tuple[Window, Window] | None = None):
        self.group_diffs = [] if group_diffs is None else group_diffs
        self.label_diffs = [] if label_diffs is None else label_diffs
        self.window_mismatch = window_mismatch
        self.disjoint = disjoint

    @property
    def clean(self) -> bool:
        return not self.group_diffs and self.disjoint is None

    def summary(self) -> str:
        if self.disjoint is not None:
            a, b = self.disjoint
            return f"windows {a} and {b} do not overlap; nothing compared"
        lines = []
        if self.window_mismatch:
            lines.append("warning: windows differ; compared on the intersection")
        for d, ga, gb, how in self.group_diffs:
            lines.append(f"group diff at {d}: {ga} vs {gb} ({how})")
        for d, la, lb in self.label_diffs:
            lines.append(f"label diff at {d}: {la} vs {lb}")
        if not lines:
            lines.append("charts agree")
        return "\n".join(lines)


def _diff_order(d: Degree):
    return (abs(d[0]) + abs(d[1]), d[0], d[1])


def diff(a: Chart, b: Chart) -> DiffReport:
    """Degreewise comparison: by invariant factors where both entries are
    exact, by composition factors where either is flagged.  Differences
    are listed nearest the origin first, on the windows' intersection;
    windows that do not overlap make the report unclean."""
    report = DiffReport()
    w = a.window
    if a.window != b.window:
        report.window_mismatch = True
        try:
            w = a.window.intersect(b.window)
        except ChartError:
            report.disjoint = (a.window, b.window)
            return report
    for d in sorted(w.degrees(), key=_diff_order):
        ga, gb = a.group(d), b.group(d)
        exact = a.is_exact(d) and b.is_exact(d)
        if exact:
            if ga != gb:
                report.group_diffs.append((d, ga, gb, "normal form"))
                continue
        else:
            if ga.composition_factors() != gb.composition_factors():
                report.group_diffs.append((d, ga, gb, "composition factors"))
                continue
        ea, eb = a.entry(d), b.entry(d)
        la = tuple((g.label, g.annotation) for g in ea.gens) if ea else ()
        lb = tuple((g.label, g.annotation) for g in eb.gens) if eb else ()
        if la != lb:
            report.label_diffs.append((d, la, lb))
    return report


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

GLYPHS = {SQUARE: "□", CIRCLE: "○", DOT: "·"}


def render_text(chart: Chart) -> str:
    """One character cell per degree; multiple generators collapse to '#'."""
    w = chart.window
    lines = [f"{chart.name}  {w}  (x right = Z.1, y up = Z.sigma)"]
    width = max(len(str(w.ymin)), len(str(w.ymax)))
    for y in range(w.ymax, w.ymin - 1, -1):
        row = []
        for x in range(w.xmin, w.xmax + 1):
            e = chart.entry((x, y))
            if e is None:
                row.append("|" if x == 0 else ("-" if y == 0 else " "))
            elif len(e.gens) > 1:
                row.append("#")
            else:
                row.append(GLYPHS[e.gens[0].annotation])
        lines.append(f"{y:>{width}} " + "".join(row))
    footer = " " * (width + 1)
    marks = []
    for x in range(w.xmin, w.xmax + 1):
        marks.append("0" if x == 0 else ("+" if x % 4 == 0 else " "))
    lines.append(footer + "".join(marks))
    return "\n".join(lines) + "\n"


_SVG_CELL = 24


def render_svg(chart: Chart) -> str:
    """Deterministic SVG: squares and circles are open glyphs, dots are
    filled red; the axes carry the cartesian display convention."""
    w = chart.window
    cell = _SVG_CELL
    width = (w.xmax - w.xmin + 3) * cell
    height = (w.ymax - w.ymin + 3) * cell

    def px(x: int) -> int:
        return (x - w.xmin + 1) * cell + cell // 2

    def py(y: int) -> int:
        return (w.ymax - y + 1) * cell + cell // 2

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
             f'width="{width}" height="{height}" '
             f'viewBox="0 0 {width} {height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>']
    for x in range(w.xmin, w.xmax + 1):
        parts.append(f'<line x1="{px(x)}" y1="{py(w.ymax)}" x2="{px(x)}" '
                     f'y2="{py(w.ymin)}" stroke="#eeeeee" stroke-width="1"/>')
    for y in range(w.ymin, w.ymax + 1):
        parts.append(f'<line x1="{px(w.xmin)}" y1="{py(y)}" x2="{px(w.xmax)}" '
                     f'y2="{py(y)}" stroke="#eeeeee" stroke-width="1"/>')
    if w.xmin <= 0 <= w.xmax:
        parts.append(f'<line x1="{px(0)}" y1="{py(w.ymax)}" x2="{px(0)}" '
                     f'y2="{py(w.ymin)}" stroke="#8888cc" stroke-width="2"/>')
        parts.append(f'<text x="{px(0) + 4}" y="{py(w.ymax) + 12}" '
                     f'font-size="12" fill="#333399">Z&#183;&#963;</text>')
    if w.ymin <= 0 <= w.ymax:
        parts.append(f'<line x1="{px(w.xmin)}" y1="{py(0)}" x2="{px(w.xmax)}" '
                     f'y2="{py(0)}" stroke="#8888cc" stroke-width="2"/>')
        parts.append(f'<text x="{px(w.xmax) - 24}" y="{py(0) - 6}" '
                     f'font-size="12" fill="#333399">Z&#183;1</text>')
    parts.append(f'<text x="8" y="16" font-size="14" fill="#000000">{chart.name}</text>')
    for d in sorted(chart.entries):
        e = chart.entries[d]
        cx, cy = px(d[0]), py(d[1])
        n = len(e.gens)
        for i, g in enumerate(e.gens):
            off = (i - (n - 1) / 2) * 7
            gx = cx + int(round(off))
            if g.annotation == SQUARE:
                parts.append(f'<rect x="{gx - 5}" y="{cy - 5}" width="10" height="10" '
                             f'fill="none" stroke="black" stroke-width="1.5">'
                             f'<title>{_esc(g.label)}</title></rect>')
            elif g.annotation == CIRCLE:
                parts.append(f'<circle cx="{gx}" cy="{cy}" r="6" fill="none" '
                             f'stroke="black" stroke-width="1.5">'
                             f'<title>{_esc(g.label)}</title></circle>')
            else:
                parts.append(f'<circle cx="{gx}" cy="{cy}" r="3" fill="#cc0000" '
                             f'stroke="#880000" stroke-width="0.5">'
                             f'<title>{_esc(g.label)}</title></circle>')
        if not e.exact:
            parts.append(f'<text x="{cx + 7}" y="{cy - 7}" font-size="9" '
                         f'fill="#cc6600">?</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _esc(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def render(chart: Chart, fmt: str) -> bytes:
    if fmt == "svg":
        return render_svg(chart).encode()
    if fmt == "text":
        return render_text(chart).encode()
    raise ValueError(f"unknown format {fmt!r}")
