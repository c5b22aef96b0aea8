"""The record types: immutability, equality, defaults, constructor checks."""

import gc
import importlib
import itertools
import pkgutil
import sys

import pytest

import roqcharts
from roqcharts import tate
from roqcharts.chartio import DiffReport
from roqcharts.exactalg import (FgAbelian, IntComplex, IntMatrix, PresentedGroup,
                                Record, ShapeError, SmithForm)
from roqcharts.grading import (CIRCLE, DOT, SQUARE, Chart, ChartEntry, ChartError,
                               Generator, Window)
from roqcharts.specseq import (DifferentialRule, PageGenerator, Presentation,
                               PresentationError)
from roqcharts.theories import (BocksteinResult, BssClass, CheckReport, hz_seed,
                                run_tate_pipeline)


def _matrix():
    return IntMatrix(2, 2, ((2, 0), (0, 3)))


# one builder per record type; each call builds a new instance from
# equal fields
FROZEN = {
    "IntMatrix": _matrix,
    "SmithForm": lambda: SmithForm(*(IntMatrix.identity(1),) * 4, 1),
    "FgAbelian": lambda: FgAbelian(1, (2,)),
    "PresentedGroup": lambda: PresentedGroup(2, _matrix(), (2, 3), _matrix(),
                                             FgAbelian(0, (6,)), IntMatrix.identity(2)),
    "IntComplex": lambda: IntComplex(0, (1, 1), (IntMatrix(1, 1, ((2,),)),)),
    "Window": lambda: Window(-1, 2, -3, 4),
    "Generator": lambda: Generator("a^2", DOT, 2),
    "ChartEntry": lambda: ChartEntry((Generator("u", SQUARE), Generator("a", DOT, 2))),
    "PageGenerator": lambda: PageGenerator("lam", (0, 1, -1), invertible=True),
    "Presentation": lambda: Presentation((PageGenerator("a", (-1, 1, -1)),)),
    "DifferentialRule": lambda: DifferentialRule((("lam", 1),), 2, (("a", 1),)),
    "TheorySeed": hz_seed,
    "BssClass": lambda: BssClass(1, ("usq", 0), True, 0),
    "CheckReport": lambda: CheckReport(False, (((0, 0), "why"),)),
}

# every record type; a new one without a builder above fails here
RECORDS = sorted(cls.__name__ for cls in Record.__subclasses__())
# a TheorySeed holds a dict (map_monos), so it has no hash
HASHABLE = [name for name in RECORDS if name != "TheorySeed"]


def test_builders_cover_their_types():
    assert sorted(FROZEN) == RECORDS
    for name, build in FROZEN.items():
        assert type(build()).__name__ == name


@pytest.mark.parametrize("name", RECORDS)
def test_frozen_fields_can_be_neither_set_nor_deleted(name):
    record = FROZEN[name]()
    fields = type(record)._fields
    assert fields and len(record) == len(fields)
    # a subclass that forgets __slots__ = () gets a __dict__
    assert not hasattr(record, "__dict__")
    for field in fields + ("unknown",):
        before = getattr(record, field, None)
        with pytest.raises(AttributeError):
            setattr(record, field, before)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert getattr(record, field, None) is before


@pytest.mark.parametrize("name", HASHABLE)
def test_equal_fields_make_equal_values(name):
    a, b = FROZEN[name](), FROZEN[name]()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_theory_seed_compares_by_fields_but_has_no_hash():
    a, b = hz_seed(), hz_seed()
    assert a is not b and a.map_monos is not b.map_monos
    assert a == b and not a != b
    with pytest.raises(TypeError, match="dict"):
        hash(a)


def test_one_field_apart_is_unequal():
    assert IntMatrix(1, 1, ((1,),)) != IntMatrix(1, 1, ((2,),))
    assert FgAbelian(1, (2,)) != FgAbelian(1, (4,))
    assert Window(0, 1, 0, 1) != Window(0, 1, 0, 2)
    assert Generator("x", SQUARE) != Generator("y", SQUARE)
    assert ChartEntry((Generator("x", SQUARE),)) != ChartEntry((Generator("x", SQUARE),),
                                                               exact=False)
    assert BssClass(1, ("usq", 0), True, 0) != BssClass(1, ("usq", 0), True, 2)


def test_records_of_different_types_never_compare_equal():
    w = Window(0, 1, 0, 1)
    records = [build() for build in FROZEN.values()] + [
        Chart("c", w), DiffReport(), BocksteinResult(Chart("c", w), [], []),
        # same field values, other types
        Window(0, 2, 0, 3), (0, 2, 0, 3), IntMatrix(0, 2, ()), (0, 2, ()),
        FgAbelian(0, ()), (0, ()), Generator("x", SQUARE), ("x", SQUARE, 0)]
    for a, b in itertools.combinations(records, 2):
        assert a != b and b != a and not a == b, (a, b)


def _profiled_calls(action, *args, codes=False):
    """The names of the Python frames that action(*args) runs, or with
    codes=True their code objects.  The collector is held off meanwhile: a
    collection that the profiler's own allocations set off would run the
    `gc.callbacks` of other libraries (Hypothesis keeps one) as frames
    that action never called."""
    calls = []

    def profile(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code)
    collecting = gc.isenabled()
    gc.disable()
    sys.setprofile(profile)
    try:
        action(*args)
    finally:
        sys.setprofile(None)
        if collecting:
            gc.enable()
    return calls if codes else [code.co_name for code in calls]


def test_int_matrix_hashes_and_builds_without_python_frames():
    # IntMatrix is a tuple value: hashing it (every lru_cache lookup does)
    # and building one with _of run no Python code, and the public
    # constructor runs only its own shape checks
    m = _matrix()
    assert _profiled_calls(hash, m) == []
    assert _profiled_calls(IntMatrix._of, (1, 1, ((5,),))) == []
    assert _profiled_calls(IntMatrix, 1, 1, ((5,),)) == ["__new__"]
    assert hash(m) == hash((m.rows, m.cols, m.entries))
    assert (m[0, 0], m[0, 1], m[1, 1]) == (2, 0, 3)
    for other in (m, (2, 2, ((2, 0), (0, 3)))):
        with pytest.raises(TypeError):
            m < other
        with pytest.raises(TypeError):
            other >= m


def test_a_valid_entry_builds_no_group():
    # the entry check walks the dots itself: a valid entry runs only its
    # own constructor, and only an invalid one builds FgAbelian for the error
    square, circle = Generator("u", SQUARE), Generator("2u", CIRCLE)
    two, four = Generator("a", DOT, 2), Generator("b", DOT, 4)
    fg_new = FgAbelian.__new__.__code__
    for gens in ((two,), (square,), (square, two), (two, four), (circle, two, square, four)):
        assert _profiled_calls(ChartEntry, gens) == ["__new__"], gens

    def rejected(gens):
        with pytest.raises(ChartError):
            ChartEntry(gens)
    for gens in ((four, two), (Generator("c", DOT, 1),), (square, two, Generator("c", DOT, 3))):
        assert fg_new in _profiled_calls(rejected, gens, codes=True), gens


@pytest.mark.parametrize("name", HASHABLE)
def test_record_hashes_without_python_frames(name):
    # every lru_cache lookup keyed on a record hashes it
    record = FROZEN[name]()
    assert _profiled_calls(hash, record) == []
    assert hash(record) == hash(tuple(record))


def test_only_the_base_defines_value_semantics():
    # one definition site: no record type, and no other class of the
    # package, spells out immutability, equality, hashing or order again
    own = {"__eq__", "__ne__", "__hash__", "__setattr__", "__delattr__",
           "__lt__", "__le__", "__gt__", "__ge__", "__repr__"}
    allowed = {("BssClass", "__repr__")}
    records = set()
    for info in pkgutil.iter_modules(roqcharts.__path__):
        module = importlib.import_module(f"roqcharts.{info.name}")
        for cls in vars(module).values():
            if not isinstance(cls, type) or cls.__module__ != module.__name__ \
                    or cls is Record:
                continue
            assert {(cls.__name__, name) for name in own & set(vars(cls))} <= allowed
            if issubclass(cls, Record):
                records.add(cls.__name__)
                assert vars(cls)["__slots__"] == () and "_fields" in vars(cls)
    assert sorted(records) == RECORDS


def test_bss_class_repr_leaves_out_the_order():
    assert repr(BssClass(5, ("utow", 5, 11), False, 2)) == \
        "BssClass(floor=5, desc=('utow', 5, 11), index2=False)"


def test_record_repr_lists_the_fields():
    assert repr(Window(-1, 2, -3, 4)) == "Window(-1, 2, -3, 4)"
    assert repr(FROZEN["Presentation"]()) == \
        "Presentation((PageGenerator('a', (-1, 1, -1), False),))"


def test_constructor_defaults_and_keywords():
    assert FgAbelian(rank=2).torsion == ()
    assert Generator(label="x", annotation=SQUARE).order == 0
    assert ChartEntry(gens=()).exact is True
    assert IntComplex(bottom=0, dims=(1,)).diffs == ()
    assert PageGenerator("a", (-1, 1, -1)).invertible is False
    # defaults built per instance, never shared
    w = Window.square(1)
    c1, c2 = Chart("a", w), Chart("b", w)
    assert c1.entries == {} and c1.maps == {}
    assert c1.entries is not c2.entries and c1.maps is not c2.maps
    r1, r2 = DiffReport(), DiffReport()
    assert (r1.group_diffs, r1.label_diffs, r1.window_mismatch, r1.disjoint) == \
        ([], [], False, None)
    assert r1.group_diffs is not r2.group_diffs and r1.label_diffs is not r2.label_diffs


def test_constructors_still_validate():
    with pytest.raises(ShapeError, match="ragged"):
        IntMatrix(2, 2, ((1, 0), (1,)))
    with pytest.raises(ChartError, match="empty window"):
        Window(1, 0, 0, 0)
    with pytest.raises(ChartError, match="dots must carry torsion"):
        Generator("x", "dot", 0)
    lam = PageGenerator("lam", (0, 1, -1), invertible=True)
    mu = PageGenerator("mu", (0, 3, -3), invertible=True)
    with pytest.raises(PresentationError, match="at most one invertible"):
        Presentation((lam, mu))


def test_tate_square_orbits_are_built_once_on_first_access(monkeypatch):
    calls = []
    orbits = tate.homotopy_orbits

    def counted(*args):
        calls.append(args)
        return orbits(*args)
    monkeypatch.setattr(tate, "homotopy_orbits", counted)
    data = run_tate_pipeline(hz_seed(), Window.square(2), padding=1)
    assert calls == []
    first = data.orbits
    assert data.orbits is first
    assert len(calls) == 1
    assert calls[0][0] is data.hfp and calls[0][1] is data.tate
