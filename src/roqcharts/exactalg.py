"""Exact linear algebra over the integers.

Smith normal form with unimodular transforms, integer lattice utilities
(solve / kernel / preimage / column space), finitely generated abelian
groups in invariant-factor normal form, whose invariant factors are
always read off a Smith form's diagonal, and presented subquotients with
the maps induced on them: kernels, cokernels and the homology of a pair
of composable maps, which also gives the homology of bounded chain
complexes of free abelian groups.

Everything runs on Python integers, so there is no overflow to check:
arbitrary precision is the contract, not an option.

The pure kernels are memoized by bounded `functools.lru_cache`s keyed on
their arguments: `smith_normal_form`, `preimage_lattice`,
`column_space_basis`, `presented_homology`, `PresentedGroup.from_lattices`,
`PresentedGroup.induced`, the normal form behind `FgAbelian.from_orders`
and `FgAbelian.zero`, and the constants `IntMatrix.zero`,
`IntMatrix.identity`, `PresentedGroup.full_free` and `_rel_columns`.
Equal inputs return one shared object; that is safe because every
result is an immutable value.  `cache_clear()` empties every memo for a
cold start.

Every immutable value of the package, here and in `grading`, `specseq`
and `theories`, is a `Record`: a tuple subclass with empty slots whose
fields are its items, named in `_fields` and read by C-level getters.
A subclass keeps only its own constructor checks.  The tuple backing is
for speed: the page engine builds and hashes thousands of 1x1
`IntMatrix`es and `PresentedGroup`s per chart, mostly as `lru_cache`
keys, and building a record is a single `tuple.__new__` and hashing it
is `tuple.__hash__`, with no Python frame on either path.  Records
compare by their fields, only with records of their own class, and are
unordered; setting or deleting an attribute raises `AttributeError`.
"""

from __future__ import annotations

import operator
from _collections import _tuplegetter
from collections.abc import Iterable
from functools import lru_cache, partial
from math import gcd


class ExactAlgebraError(Exception):
    """Base class for errors raised by this module."""


class NotInLatticeError(ExactAlgebraError):
    """A vector was expected to lie in an integer lattice but does not."""


class ShapeError(ExactAlgebraError):
    """Matrix dimensions do not match the requested operation."""


_tuple_eq, _tuple_ne = tuple.__eq__, tuple.__ne__


class Record(tuple):
    """An immutable value: the tuple of its fields, named in `_fields`.

    A subclass declares `__slots__ = ()` and `_fields`, and a `__new__`
    that checks its arguments and ends in `tuple.__new__(cls, fields)`;
    each field gets namedtuple's C-level getter.  A record equals only a
    record of its own class with equal fields, never the plain tuple of
    its fields.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        for i, name in enumerate(cls._fields):
            setattr(cls, name, _tuplegetter(i, f"Field {i}, {name}."))

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    __delattr__ = __setattr__

    # a plain tuple holding the same fields is another value: these win
    # over the reflected tuple comparison, which would call them equal
    def __eq__(self, other):
        return other.__class__ is self.__class__ and _tuple_eq(self, other)

    def __ne__(self, other):
        return other.__class__ is not self.__class__ or _tuple_ne(self, other)

    def __lt__(self, other):
        raise TypeError(f"{type(self).__name__} values are not ordered")

    __le__ = __gt__ = __ge__ = __lt__
    __hash__ = tuple.__hash__

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(map(repr, self))})"


# ---------------------------------------------------------------------------
# Dense integer matrices
# ---------------------------------------------------------------------------

class IntMatrix(Record):
    """Dense integer matrix, row-major, immutable.

    A 0-row or 0-column matrix is legal and shows up constantly here
    (empty bases, maps from or to the zero group).  The public
    constructor checks the shape; results built from matrices that
    already passed it go through `_of`, which does not check again.
    `m[i, j]` is an entry; the field getters read past it.
    """

    __slots__ = ()
    _fields = ("rows", "cols", "entries")

    def __new__(cls, rows: int, cols: int, entries: tuple[tuple[int, ...], ...]):
        if rows < 0 or cols < 0:
            raise ShapeError("negative matrix dimensions")
        if len(entries) != rows:
            raise ShapeError("row count does not match entries")
        for row in entries:
            if len(row) != cols:
                raise ShapeError("ragged rows")
        return tuple.__new__(cls, (rows, cols, entries))

    @staticmethod
    def from_rows(rows: list[list[int]]) -> "IntMatrix":
        r = len(rows)
        c = len(rows[0]) if rows else 0
        return IntMatrix(r, c, tuple(tuple(map(int, row)) for row in rows))

    @staticmethod
    @lru_cache(maxsize=1024)
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(n, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @staticmethod
    @lru_cache(maxsize=4096)
    def zero(rows: int, cols: int) -> "IntMatrix":
        return IntMatrix(rows, cols, tuple(tuple(0 for _ in range(cols)) for _ in range(rows)))

    @staticmethod
    def from_columns(cols: list[list[int]], rows: int) -> "IntMatrix":
        return IntMatrix._of((rows, len(cols), tuple(zip(*cols)) if cols else ((),) * rows))

    @staticmethod
    def block_diag(*mats: "IntMatrix") -> "IntMatrix":
        """The direct sum of the maps mats, in order."""
        cols = sum(m.cols for m in mats)
        rows: list[tuple[int, ...]] = []
        off = 0
        for m in mats:
            rows.extend((0,) * off + row + (0,) * (cols - off - m.cols) for row in m.entries)
            off += m.cols
        return IntMatrix._of((len(rows), cols, tuple(rows)))

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self.entries[i][j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i]

    def column(self, j: int) -> list[int]:
        return [row[j] for row in self.entries]

    def columns(self) -> list[list[int]]:
        return [self.column(j) for j in range(self.cols)]

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        rows, inner, entries = self
        if inner != other.rows:
            raise ShapeError(f"cannot multiply {rows}x{inner} by {other.rows}x{other.cols}")
        cols = tuple(zip(*other.entries)) or ((),) * other.cols
        return IntMatrix._of((rows, other.cols,
                              tuple([tuple([sum(map(operator.mul, row, col)) for col in cols])
                                     for row in entries])))

    def apply(self, vec: list[int]) -> list[int]:
        if len(vec) != self.cols:
            raise ShapeError("vector length does not match column count")
        return [sum(map(operator.mul, row, vec)) for row in self.entries]

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        rows, cols, entries = self
        if rows != other.rows:
            raise ShapeError("hstack row mismatch")
        if not other.cols:
            return self
        return IntMatrix._of((rows, cols + other.cols,
                              tuple(map(operator.add, entries, other.entries))))

    def is_zero(self) -> bool:
        return not any(map(any, self.entries))


# `IntMatrix._of((rows, cols, entries))`: the matrix with these fields,
# which the caller guarantees are a rows x cols tuple of int tuples; a
# bare `tuple.__new__`, so neither the checks nor a Python frame run
IntMatrix._of = partial(tuple.__new__, IntMatrix)


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

class SmithForm(Record):
    """left * matrix * right == diag, with left/right unimodular.

    left_inv is the exact inverse of left, tracked during the reduction
    so no separate inversion step is needed.
    """

    __slots__ = ()
    _fields = ("diag", "left", "right", "left_inv", "rank")

    def __new__(cls, diag: IntMatrix, left: IntMatrix, right: IntMatrix,
                left_inv: IntMatrix, rank: int):
        return tuple.__new__(cls, (diag, left, right, left_inv, rank))

    def diagonal(self) -> list[int]:
        n = min(self.diag.rows, self.diag.cols)
        return [self.diag[i, i] for i in range(n)]


@lru_cache(maxsize=250_000)
def smith_normal_form(m: IntMatrix) -> SmithForm:
    """Diagonalize an integer matrix by unimodular row/column operations.

    The diagonal is non-negative with each entry dividing the next.
    Pivots are chosen by least absolute value, so entries stay small on
    the nearly-diagonal matrices this package produces.  Results are
    memoized: the pipelines hit the same tiny matrices constantly.
    """
    r, c = m.rows, m.cols
    d = [list(row) for row in m.entries]
    left = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    left_inv = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    right = [[1 if i == j else 0 for j in range(c)] for i in range(c)]

    def row_add(i, j, q):
        # row i += q * row j; inverse op applied to left_inv on the right
        for k in range(c):
            d[i][k] += q * d[j][k]
        for k in range(r):
            left[i][k] += q * left[j][k]
        for t in range(r):
            left_inv[t][j] -= q * left_inv[t][i]

    def col_add(j, k, q):
        # col j += q * col k
        for i in range(r):
            d[i][j] += q * d[i][k]
        for i in range(c):
            right[i][j] += q * right[i][k]

    def row_swap(i, j):
        d[i], d[j] = d[j], d[i]
        left[i], left[j] = left[j], left[i]
        for t in range(r):
            left_inv[t][i], left_inv[t][j] = left_inv[t][j], left_inv[t][i]

    def col_swap(i, j):
        for t in range(r):
            d[t][i], d[t][j] = d[t][j], d[t][i]
        for t in range(c):
            right[t][i], right[t][j] = right[t][j], right[t][i]

    def row_negate(i):
        d[i] = [-x for x in d[i]]
        left[i] = [-x for x in left[i]]
        for t in range(r):
            left_inv[t][i] = -left_inv[t][i]

    t = 0
    n = min(r, c)
    while t < n:
        # least-absolute-value nonzero pivot in the trailing submatrix
        pivot = None
        for i in range(t, r):
            for j in range(t, c):
                if d[i][j] != 0 and (pivot is None or abs(d[i][j]) < abs(d[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        if pi != t:
            row_swap(pi, t)
        if pj != t:
            col_swap(pj, t)
        if d[t][t] < 0:
            row_negate(t)

        dirty = False
        for i in range(t + 1, r):
            if d[i][t] != 0:
                q = d[i][t] // d[t][t]
                if q:
                    row_add(i, t, -q)
                if d[i][t] != 0:
                    dirty = True
        for j in range(t + 1, c):
            if d[t][j] != 0:
                q = d[t][j] // d[t][t]
                if q:
                    col_add(j, t, -q)
                if d[t][j] != 0:
                    dirty = True
        if dirty:
            continue  # smaller remainders appeared; re-pick the pivot

        # enforce divisibility: fold any non-multiple into the pivot's row
        bad = None
        for i in range(t + 1, r):
            for j in range(t + 1, c):
                if d[i][j] % d[t][t] != 0:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            row_add(t, bad, 1)
            continue
        t += 1

    rank = sum(1 for i in range(n) if d[i][i] != 0)
    return SmithForm(
        diag=IntMatrix.from_rows(d),
        left=IntMatrix.from_rows(left),
        right=IntMatrix.from_rows(right),
        left_inv=IntMatrix.from_rows(left_inv),
        rank=rank,
    )


# ---------------------------------------------------------------------------
# Lattice utilities
# ---------------------------------------------------------------------------

def solve(m: IntMatrix, b: list[int]) -> list[int] | None:
    """One integer solution x of m x = b, or None if there is none."""
    if len(b) != m.rows:
        raise ShapeError("right-hand side length mismatch")
    snf = smith_normal_form(m)
    lb = snf.left.apply(b)
    y = [0] * m.cols
    n = min(m.rows, m.cols)
    for i in range(m.rows):
        di = snf.diag[i, i] if i < n else 0
        if di == 0:
            if lb[i] != 0:
                return None
        else:
            if lb[i] % di != 0:
                return None
            if i < m.cols:
                y[i] = lb[i] // di
    return snf.right.apply(y)


def kernel_basis(m: IntMatrix) -> IntMatrix:
    """Columns form a basis of the integer kernel lattice of m."""
    snf = smith_normal_form(m)
    cols = [snf.right.column(j) for j in range(snf.rank, m.cols)]
    return IntMatrix.from_columns(cols, m.cols)


@lru_cache(maxsize=250_000)
def preimage_lattice(m: IntMatrix, rels: IntMatrix) -> IntMatrix:
    """Columns form a basis of {v : m v lies in the span of rels}."""
    kb = kernel_basis(m.hstack(rels))
    if not rels.cols:
        return kb
    return column_space_basis(IntMatrix(m.cols, kb.cols, kb.entries[:m.cols]))


@lru_cache(maxsize=250_000)
def column_space_basis(m: IntMatrix) -> IntMatrix:
    """Columns form a basis of the column lattice (integer span) of m."""
    snf = smith_normal_form(m)
    cols = []
    for j in range(snf.rank):
        dj = snf.diag[j, j]
        cols.append([dj * snf.left_inv[i, j] for i in range(m.rows)])
    return IntMatrix.from_columns(cols, m.rows)


def lattice_contains(basis: IntMatrix, v: list[int]) -> bool:
    return solve(basis, v) is not None


# ---------------------------------------------------------------------------
# Finitely generated abelian groups
# ---------------------------------------------------------------------------

def _factorint(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


class FgAbelian(Record):
    """Finitely generated abelian group in invariant-factor normal form.

    rank is the free rank; torsion is (d_1, ..., d_k) with d_1 | d_2 | ...
    and each d_i >= 2.  The normal form is unique, so equality of values
    is isomorphism of groups.
    """

    __slots__ = ()
    _fields = ("rank", "torsion")

    def __new__(cls, rank: int, torsion: tuple[int, ...] = ()):
        if rank < 0:
            raise ExactAlgebraError("negative rank")
        if any(d < 2 for d in torsion):
            raise ExactAlgebraError("torsion coefficients must be >= 2")
        for a, b in zip(torsion, torsion[1:]):
            if b % a != 0:
                raise ExactAlgebraError(f"torsion {torsion} is not a divisibility chain")
        return tuple.__new__(cls, (rank, torsion))

    @staticmethod
    def from_orders(orders: Iterable[int]) -> "FgAbelian":
        """Normalize arbitrary cyclic orders (0 meaning Z) into normal form."""
        return _normal_form(tuple(orders))

    @staticmethod
    def zero() -> "FgAbelian":
        return _normal_form(())

    @staticmethod
    def free(rank: int) -> "FgAbelian":
        return FgAbelian(rank, ())

    @staticmethod
    def cyclic(d: int) -> "FgAbelian":
        return FgAbelian.from_orders([d])

    def is_zero(self) -> bool:
        return self.rank == 0 and not self.torsion

    def is_free(self) -> bool:
        return not self.torsion

    def composition_factors(self) -> tuple[int, tuple[int, ...]]:
        """(free rank, sorted multiset of prime-power torsion orders)."""
        pieces = []
        for d in self.torsion:
            for p, e in _factorint(d).items():
                pieces.append(p ** e)
        return (self.rank, tuple(sorted(pieces)))

    def __str__(self) -> str:
        parts = ["Z"] * self.rank + [f"Z/{d}" for d in self.torsion]
        return " + ".join(parts) if parts else "0"


@lru_cache(maxsize=4096)
def _normal_form(orders: tuple[int, ...]) -> FgAbelian:
    """`FgAbelian.from_orders`, keyed on the orders tuple: the invariant
    factors are the Smith form's diagonal of the diagonal matrix of orders."""
    n = len(orders)
    diag = smith_normal_form(IntMatrix.from_rows(
        [[d if i == j else 0 for j in range(n)] for i, d in enumerate(orders)])).diagonal()
    return FgAbelian(diag.count(0), tuple(d for d in diag if d > 1))


def has_nonzero_hom(src: FgAbelian, dst: FgAbelian) -> bool:
    """Whether Hom(src, dst) != 0.

    Hom(Z, G) != 0 iff G != 0; Hom(Z/d, G) != 0 iff G has torsion
    sharing a prime with d (torsion maps nowhere into a free group).
    """
    if src.rank > 0 and not dst.is_zero():
        return True
    for d in src.torsion:
        for e in dst.torsion:
            if gcd(d, e) > 1:
                return True
    return False


# ---------------------------------------------------------------------------
# Presented subquotients of Z^n
# ---------------------------------------------------------------------------

class PresentedGroup(Record):
    """A subquotient cycles/rels of an ambient Z^n with chosen generators.

    cycles columns span the numerator lattice and rels columns the
    denominator lattice inside it, both in ambient coordinates; rels is
    used to express arbitrary ambient vectors in generator coordinates.
    gens columns live in ambient coordinates too, one per invariant
    factor of the group; orders[i] is the order of gens[:, i] (0 =
    infinite).  Equality compares both lattices, not only the group.
    """

    __slots__ = ()
    _fields = ("ambient", "gens", "orders", "rels", "group", "cycles")

    def __new__(cls, ambient: int, gens: IntMatrix, orders: tuple[int, ...],
                rels: IntMatrix, group: FgAbelian, cycles: IntMatrix):
        return tuple.__new__(cls, (ambient, gens, orders, rels, group, cycles))

    @staticmethod
    @lru_cache(maxsize=250_000)
    def from_lattices(cycles: IntMatrix, bounds: IntMatrix) -> "PresentedGroup":
        """Present cycles/bounds; bounds must be a sublattice of cycles."""
        ambient = cycles.rows
        if bounds.rows != ambient:
            raise ShapeError("cycle/boundary ambient mismatch")
        k = cycles.cols
        coord_cols = []
        for j in range(bounds.cols):
            x = solve(cycles, bounds.column(j))
            if x is None:
                raise NotInLatticeError("boundary not contained in cycle lattice")
            coord_cols.append(x)
        coords = IntMatrix.from_columns(coord_cols, k)
        snf = smith_normal_form(coords)
        gens_cols = []
        orders = []
        for i in range(k):
            di = snf.diag[i, i] if i < min(k, coords.cols) else 0
            if i < snf.rank and di == 1:
                continue
            gens_cols.append(cycles.apply(snf.left_inv.column(i)))
            orders.append(di if i < snf.rank else 0)
        gens = IntMatrix.from_columns(gens_cols, ambient)
        group = FgAbelian(orders.count(0), tuple(o for o in orders if o))
        return PresentedGroup(ambient, gens, tuple(orders), bounds, group, cycles)

    @staticmethod
    @lru_cache(maxsize=1024)
    def full_free(ambient: int) -> "PresentedGroup":
        """Z^ambient itself: every ambient basis vector a free generator."""
        identity = IntMatrix.identity(ambient)
        return PresentedGroup(ambient, identity, (0,) * ambient,
                              IntMatrix.zero(ambient, 0), FgAbelian.free(ambient),
                              identity)

    def is_zero(self) -> bool:
        return self.group.is_zero()

    def express(self, v: list[int]) -> list[int]:
        """Coordinates of an ambient vector in the chosen generators."""
        if len(v) != self.ambient:
            raise ShapeError("ambient dimension mismatch")
        sys = self.gens.hstack(self.rels)
        x = solve(sys, v)
        if x is None:
            raise NotInLatticeError("vector does not lie in the presented subquotient")
        out = []
        for i, o in enumerate(self.orders):
            out.append(x[i] % o if o else x[i])
        return out

    @lru_cache(maxsize=4096)
    def induced(self, m: IntMatrix, src: "PresentedGroup") -> IntMatrix:
        """The map src -> self in generator coordinates, induced by the
        ambient matrix m (src ambient -> self ambient)."""
        return IntMatrix.from_columns([self.express(m.apply(col))
                                       for col in src.gens.columns()], len(self.orders))


@lru_cache(maxsize=4096)
def _rel_columns(orders: tuple[int, ...]) -> IntMatrix:
    n = len(orders)
    cols = []
    for i, o in enumerate(orders):
        if o:
            col = [0] * n
            col[i] = o
            cols.append(col)
    return IntMatrix.from_columns(cols, n)


@lru_cache(maxsize=250_000)
def presented_homology(out: IntMatrix, out_orders: tuple[int, ...],
                       into: IntMatrix, orders: tuple[int, ...]) -> PresentedGroup:
    """ker(out) / im(into) at a presented group with generator orders
    orders, in its generator coordinates.

    out maps into a presented group with generator orders out_orders;
    out o into must be zero there, else NotInLatticeError.
    """
    cycles = preimage_lattice(out, _rel_columns(out_orders))
    return PresentedGroup.from_lattices(cycles, into.hstack(_rel_columns(orders)))


def presented_kernel(mat: IntMatrix, src_orders: tuple[int, ...],
                     dst_orders: tuple[int, ...]) -> PresentedGroup:
    """Kernel of a map of presented groups, in source generator coordinates.

    mat maps source generator coords to destination generator coords.
    """
    return presented_homology(mat, dst_orders, IntMatrix.zero(len(src_orders), 0),
                              src_orders)


def presented_cokernel(mat: IntMatrix, dst_orders: tuple[int, ...]) -> PresentedGroup:
    """Cokernel of a map of presented groups, in destination coordinates."""
    return presented_homology(IntMatrix.zero(0, len(dst_orders)), (), mat, dst_orders)


def map_is_iso(mat: IntMatrix, src_orders: tuple[int, ...],
               dst_orders: tuple[int, ...]) -> bool:
    """Whether the induced map of presented groups is an isomorphism."""
    return (presented_kernel(mat, src_orders, dst_orders).is_zero()
            and presented_cokernel(mat, dst_orders).is_zero())


def image_contains(mat: IntMatrix, dst_orders: tuple[int, ...],
                   vec: list[int]) -> bool:
    """Whether vec (destination coords) lies in the image of the map."""
    return solve(mat.hstack(_rel_columns(dst_orders)), vec) is not None


# ---------------------------------------------------------------------------
# Chain complexes of free abelian groups
# ---------------------------------------------------------------------------

class IntComplex(Record):
    """Bounded chain complex of free abelian groups.

    dims[i] is the rank of C_{bottom+i}; diffs[i] is the boundary map
    C_{bottom+i+1} -> C_{bottom+i}.  The square-zero law is checked at
    construction, always.
    """

    __slots__ = ()
    _fields = ("bottom", "dims", "diffs")

    def __new__(cls, bottom: int, dims: tuple[int, ...], diffs: tuple[IntMatrix, ...] = ()):
        if len(diffs) != max(0, len(dims) - 1):
            raise ShapeError("number of differentials does not match dims")
        for i, d in enumerate(diffs):
            if d.rows != dims[i] or d.cols != dims[i + 1]:
                raise ShapeError(f"differential {i} has shape {d.rows}x{d.cols}, "
                                 f"expected {dims[i]}x{dims[i + 1]}")
        for i in range(len(diffs) - 1):
            if not diffs[i].mul(diffs[i + 1]).is_zero():
                raise ExactAlgebraError(f"d o d != 0 between degrees "
                                        f"{bottom + i + 2} and {bottom + i}")
        return tuple.__new__(cls, (bottom, dims, diffs))

    def dim(self, k: int) -> int:
        i = k - self.bottom
        if 0 <= i < len(self.dims):
            return self.dims[i]
        return 0

    def boundary(self, k: int) -> IntMatrix:
        """The map C_k -> C_{k-1} (zero matrix outside the support)."""
        i = k - self.bottom - 1
        if 0 <= i < len(self.diffs):
            return self.diffs[i]
        return IntMatrix.zero(self.dim(k - 1), self.dim(k))


def homology_at(c: IntComplex, k: int) -> FgAbelian:
    """ker(d_k) / im(d_{k+1}) in invariant-factor normal form."""
    n = c.dim(k)
    if n == 0:
        return FgAbelian.zero()
    out = c.boundary(k)
    return presented_homology(out, (0,) * out.rows, c.boundary(k + 1), (0,) * n).group


_MEMOS = (IntMatrix.identity, IntMatrix.zero, smith_normal_form,
          preimage_lattice, column_space_basis, PresentedGroup.from_lattices,
          PresentedGroup.full_free, PresentedGroup.induced, _rel_columns,
          presented_homology, _normal_form)


def cache_clear() -> None:
    """Empty every memo of this module, for a cold start."""
    for memo in _MEMOS:
        memo.cache_clear()
