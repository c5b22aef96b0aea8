"""Trigraded multiplicative spectral-sequence pages on monomial bases.

A page presentation is a free-commutative monomial alphabet with
tridegrees (s, t, b); a class at (s, t, b) shows up in the chart at
(s + t, b).  Differential rounds are given on single generators (or on a
power of one, for derived classes like the square of an invertible
generator), extended to all monomials by the Leibniz rule with the
Koszul sign taken on total degree s + t.  `Page.turn(rule)` applies one
round: the new page holds the exact homology of the old one at every
tridegree.

Spot states are computed lazily, so any tridegree can be inspected
exactly: the evaluator recurses through the applied rounds and
enumerates the finitely many monomials at each tridegree it touches.
A spot state is an `exactalg.PresentedGroup`: its cycle and boundary
(`rels`) lattices are in the coordinates of the monomial basis there,
which `Page.monomials_at` builds on each call.  Besides spot states the
pages of one chain keep only what bases are built from: the enumeration
tables and the non-invertible exponents, solved once per (s, t + b) as
the invertible generator moves neither.  Each later page memoizes its
own spot states and asks the page it was turned from for the states
under its round; E_1 memoizes none and hands out
`PresentedGroup.full_free(n)` for an n-monomial basis.  Where the rounds
treat the lam exponents e and e + P alike (the page's
`period` P), a page keeps one state per lam^P-translation class, so hz
E_2 and kr E_2 share theirs; kr E_4, whose d_3 on lam^2 has the
coefficient e // 2, keeps one per tridegree.  The filtration scan visits
only the filtrations that hold a monomial, listed once per chain in
`_scan_memo` for each (x + y, x mod lam's t), on which the scan floor
and the exponent solutions depend.

Reading the last page off as a chart (`collapse_to_chart`) certifies the
whole chain: `find_candidates` searches each page at the shapes d_r
between its own round and the next, the last page up to _R_CAP.  Both
search one degree per orbit of lam^p, lam the invertible generator and
p the least power with lam^p and lam^-p classes of that page
(`lambda_period`): multiplying by lam^p is an isomorphism of the page.
Every other degree takes its representative's scan moved by lam^p, both
worked out by a rule when asked, and its one live spot is evaluated
directly (not through a state it shares with the representative) and
checked against the representative's group.  The readout reuses the
certificate's scan of the last page, and builds each structure-map
family on its first read from the live spots' states and bases.

For hz and kr every tridegree holds at most one monomial, so the spot
path runs on 1x1 matrices and its kernels (`_d_of_cycles`, the
`IntMatrix` products) are written as single passes for that traffic; the
engine stays general, and multi-monomial presentations go through the
same code.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable
from functools import partial

from .exactalg import (IntMatrix, NotInLatticeError, PresentedGroup, Record,
                       column_space_basis, has_nonzero_hom, lattice_contains,
                       preimage_lattice)
from .grading import (Chart, ChartEntry, Degree, Generator, MapFamilies, Window, DOT,
                      SQUARE, join_labels, power_label)


TriDegree = tuple[int, int, int]
Mono = tuple[int, ...]


class SpecSeqError(Exception):
    pass


class PresentationError(SpecSeqError):
    pass


class DifferentialError(SpecSeqError):
    """Degree-inconsistent assignment or a Leibniz failure (d o d != 0)."""


class CollapseError(SpecSeqError):
    """The page cannot be read off as a chart (remaining differential,
    filtration collision, or an unconfirmed vanishing band)."""


class PageGenerator(Record):
    __slots__ = ()
    _fields = ("name", "tridegree", "invertible")

    def __new__(cls, name: str, tridegree: TriDegree, invertible: bool = False):
        return tuple.__new__(cls, (name, tridegree, invertible))


class Presentation(Record):
    """Alphabet with tridegrees.

    Enumeration of the monomials at a fixed tridegree must terminate, so
    the generators are constrained: at most one invertible generator,
    with s = 0, t + b = 0 and s + t != 0; every other generator needs
    s <= 0, t + b >= 0 and (-s) + (t + b) >= 1.  Both theories in scope
    fit, and anything else is rejected up front rather than looping.
    """

    __slots__ = ()
    _fields = ("generators",)

    def __new__(cls, generators: tuple[PageGenerator, ...]):
        inv = [g for g in generators if g.invertible]
        if len(inv) > 1:
            raise PresentationError("at most one invertible generator is supported")
        for g in inv:
            s, t, b = g.tridegree
            if s != 0 or t + b != 0 or s + t == 0:
                raise PresentationError(
                    f"invertible generator {g.name} must have s = 0, t + b = 0, s + t != 0")
        for g in generators:
            if g.invertible:
                continue
            s, t, b = g.tridegree
            if s > 0 or t + b < 0 or (-s) + (t + b) < 1:
                raise PresentationError(
                    f"generator {g.name} breaks monomial finiteness (needs s <= 0, "
                    f"t + b >= 0, strictly one of them)")
        return tuple.__new__(cls, (generators,))

    @property
    def invertible(self) -> PageGenerator | None:
        return next((g for g in self.generators if g.invertible), None)

    def index(self, name: str) -> int:
        for i, g in enumerate(self.generators):
            if g.name == name:
                return i
        raise PresentationError(f"unknown generator {name!r}")

    def mono(self, powers: dict[str, int]) -> Mono:
        e = [0] * len(self.generators)
        for name, p in powers.items():
            e[self.index(name)] = p
        return tuple(e)

    def tridegree_of(self, mono: Mono) -> TriDegree:
        s = t = b = 0
        for e, g in zip(mono, self.generators):
            s += e * g.tridegree[0]
            t += e * g.tridegree[1]
            b += e * g.tridegree[2]
        return (s, t, b)

    def mono_str(self, mono: Mono, coeff: int = 1) -> str:
        return join_labels("" if coeff == 1 else str(coeff),
                           *(power_label(g.name, e) for e, g in zip(mono, self.generators)))


class DifferentialRule(Record):
    """d(source) = coeff * target, everything else a cycle.

    The tridegree shift is inferred from source and target and must have
    the differential shape (-r, r-1, 0); r is the round's page.
    """

    __slots__ = ()
    _fields = ("source", "coeff", "target")

    def __new__(cls, source: tuple[tuple[str, int], ...], coeff: int,
                target: tuple[tuple[str, int], ...]):
        return tuple.__new__(cls, (source, coeff, target))

    def source_dict(self) -> dict[str, int]:
        return dict(self.source)

    def target_dict(self) -> dict[str, int]:
        return dict(self.target)


def rule_shift(pres: Presentation, rule: DifferentialRule) -> tuple[int, TriDegree]:
    src = pres.mono(rule.source_dict())
    dst = pres.mono(rule.target_dict())
    st, sb = pres.tridegree_of(src), pres.tridegree_of(dst)
    shift = (sb[0] - st[0], sb[1] - st[1], sb[2] - st[2])
    r = -shift[0]
    if r < 1 or shift != (-r, r - 1, 0):
        raise DifferentialError(
            f"assignment d({pres.mono_str(src)}) = {pres.mono_str(dst, rule.coeff)} "
            f"has shift {shift}, not of the form (-r, r-1, 0)")
    return r, shift


def _enumeration_tables(pres: Presentation) -> tuple[tuple, int | None, int]:
    """What `Page.monomials_at` enumerates over: per non-invertible
    generator its index and tridegree, whether it or a later one can still
    move the s-residual (each has s <= 0) and the t+b-residual (each has
    t + b >= 0), and whether it must clear one alone as the last that can
    move it; then the invertible generator's index (or None) and t."""
    gens = pres.generators
    steps = []
    later_s = later_tb = False
    for i in reversed(range(len(gens))):
        if gens[i].invertible:
            continue
        s, t, b = gens[i].tridegree
        forced = (s < 0 and not later_s) or (t + b > 0 and not later_tb)
        later_s, later_tb = later_s or s < 0, later_tb or t + b > 0
        steps.insert(0, (i, s, t, b, later_s, later_tb, forced))
    lam = pres.invertible
    inv = gens.index(lam) if lam else None
    return tuple(steps), inv, lam.tridegree[1] if lam else 0


def _add_tri(a: TriDegree, b: TriDegree) -> TriDegree:
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


class Page:
    """A spectral-sequence page for a presentation: E_1 (every monomial a
    free generator), or the homology of previous under rule.

    The rounds applied so far are in rounds, the last one's d_r in shape
    (0 on E_1); `turn` makes the next page.  A rule not of differential
    shape, of lower shape than the last round, or whose source is not a
    power of one generator is rejected here, at turn time.  period is
    the lam-period of the rounds (1 on E_1; None without an invertible
    generator or after a round that never repeats in the lam exponent),
    by which `state` shares states between translates.  A state is the
    homology of previous's states under the round; the previous state at
    the target of d_r is fetched only where d_r of the cycles is nonzero,
    and the one at the source below only where its basis is nonempty.
    """

    def __init__(self, pres: Presentation, previous: Page | None = None,
                 rule: DifferentialRule | None = None):
        self.pres = pres
        self.previous = previous
        self._state_memo: dict[TriDegree, PresentedGroup] = {}
        if previous is None:
            self.rounds: tuple[DifferentialRule, ...] = ()
            self.shape = 0
            self._solve_memo: dict[tuple[int, int, int], tuple] = {}
            self._scan_memo: dict[tuple[int, int], tuple[int, ...]] = {}
            self._steps, self._inv, self._lt = _enumeration_tables(pres)
            self.period = 1 if pres.invertible else None
            self._class_step = None
            return
        self.shape, self._shift = rule_shift(pres, rule)
        if self.shape < previous.shape:
            raise DifferentialError(f"d_{self.shape} after d_{previous.shape}: "
                                    f"rounds must come in increasing shape")
        self.rounds = previous.rounds + (rule,)
        self._solve_memo, self._scan_memo = previous._solve_memo, previous._scan_memo
        self._steps, self._inv, self._lt = previous._steps, previous._inv, previous._lt
        self._key = pres.mono(rule.source_dict())
        # what d does to a monomial's exponents: key off, image on
        self._step = tuple(y - x for x, y in zip(self._key, pres.mono(rule.target_dict())))
        support = [i for i, e in enumerate(self._key) if e]
        if len(support) != 1:
            raise DifferentialError("differential keys on a single generator power only")
        self._support = support[0]
        st, tt, _ = pres.tridegree_of(self._key)
        self._parity = (st + tt) % 2
        self._coeff = rule.coeff
        # the lam-period: a P with which every round so far treats the lam
        # exponents e and e + P alike.  A round on lam^k tests e mod k; its
        # coefficient (e // k) mod 2 repeats with period 2k, but with even
        # parity it is e // k, which never repeats
        self.period = previous.period
        if self.period and pres.generators[self._support].invertible:
            self.period = (math.lcm(self.period, 2 * abs(self._key[self._support]))
                           if self._parity else None)
        # the t-step of a lam^period translate, by which the state memo
        # reduces t
        self._class_step = (self.period * abs(pres.invertible.tridegree[1])
                            if self.period else None)

    def turn(self, rule: DifferentialRule) -> Page:
        """The next page: the homology of this one under rule."""
        return Page(self.pres, previous=self, rule=rule)

    # -- monomial enumeration ------------------------------------------------

    def monomials_at(self, tri: TriDegree) -> tuple[Mono, ...]:
        """The monomial basis at tri, sorted, built on each call: the
        non-invertible exponents come from `_solve(tri)`, the invertible
        generator's from the t they leave over."""
        choices = self._solve(tri)
        if self._inv is None:
            return tuple([head for _, head, _ in choices])
        q = tri[1] // self._lt
        if len(choices) == 1:
            (e, head, tail), = choices
            return (head + (q + e,) + tail,)
        return tuple([head + (q + e,) + tail for e, head, tail in choices])

    def _solve(self, tri: TriDegree) -> tuple[tuple[int, Mono, Mono], ...]:
        """Every choice of non-invertible exponents of a monomial at tri, as
        (lam's exponent where t // lam's t is 0, the exponents before lam's
        slot, those after), in basis order.  The invertible generator moves
        neither s nor t + b, and only adds t // lam's t to its own exponent,
        so the choices are solved once per (s, t + b) and class of t mod
        lam's t (per tri without lam)."""
        s, t, b = tri
        lt = self._lt
        key = (s, t + b, t % lt) if lt else tri
        try:
            return self._solve_memo[key]
        except KeyError:
            pass
        steps, inv = self._steps, self._inv
        # exponents chosen so far, each with the s and t+b residuals left
        # over and the t they make up
        partial = [((), s, t + b, 0)]
        for _, gs, gt, gb, move_s, move_tb, forced in steps:
            gtb = gt + gb
            grown = []
            for expo, rs, rtb, rt in partial:
                if rs > 0 or (rs < 0 and not move_s):
                    continue
                if rtb < 0 or (rtb > 0 and not move_tb):
                    continue
                emax = rs // gs if gs < 0 else None  # rs <= 0: |rs| / |gs|
                if gtb > 0:
                    cap = rtb // gtb
                    emax = cap if emax is None else min(emax, cap)
                for e in range(emax if forced else 0, emax + 1):
                    grown.append((expo + (e,), rs - e * gs, rtb - e * gtb, rt + e * gt))
            partial = grown
        found = []
        for expo, rs, rtb, rt in partial:
            if rs or rtb or ((t - rt) % lt if lt else rt != t):
                continue
            mono = [0] * len(self.pres.generators)
            for step, e in zip(steps, expo):
                mono[step[0]] = e
            if inv is None:
                found.append((mono, 0, tuple(mono), ()))
            else:
                mono[inv] = -(rt // lt)  # (t - rt) / lt where t // lt is 0
                found.append((mono, mono[inv], tuple(mono[:inv]), tuple(mono[inv + 1:])))
        return self._solve_memo.setdefault(key, tuple(choice[1:] for choice in sorted(found)))

    # -- the Leibniz differential ---------------------------------------------

    def _d_of_cycles(self, st: PresentedGroup, src_monos: tuple[Mono, ...],
                     dst_monos: tuple[Mono, ...], what: str) -> IntMatrix | None:
        """This page's round on the cycle basis of st (in the monomial
        basis src_monos), in the monomial basis dst_monos, or None if it
        is zero.  On a monomial whose support exponent is q times the key,
        d is q (q mod 2 with odd parity) times the rule's image; d must be
        defined (the key must divide the exponent) on every monomial a
        cycle involves, and every image must lie in dst_monos.  A missing
        image is reported before an undefined live class.  One pass: d
        moves distinct monomials to distinct ones, so each destination row
        takes at most one image, and a zero cycle row adds none, though
        its image is still looked up; the output rows are allocated at the
        first nonzero image."""
        i, key, step, parity, coeff = (self._support, self._key[self._support],
                                       self._step, self._parity, self._coeff)
        _, cols, entries = st.cycles
        out = None
        undefined = []
        for m, cyc in zip(src_monos, entries):
            q, rem = divmod(m[i], key)
            if rem:
                if any(cyc):
                    undefined.append((m, cyc))
                continue
            c = (q % 2 if parity else q) * coeff
            if c == 0:
                continue
            mono = tuple(map(operator.add, m, step))
            try:
                k = dst_monos.index(mono)
            except ValueError:
                raise DifferentialError(
                    f"image {self.pres.mono_str(mono)} missing from its tridegree "
                    f"(enumeration bug)") from None
            if any(cyc):
                if out is None:
                    out = [(0,) * cols] * len(dst_monos)
                out[k] = tuple([c * y for y in cyc])
        if undefined:
            # the first cycle column with an undefined entry, and in it the
            # first monomial
            m = min(undefined, key=lambda mc: next(j for j, y in enumerate(mc[1]) if y))[0]
            raise DifferentialError(f"d undefined on live class involving "
                                    f"{self.pres.mono_str(m)} ({what})")
        if out is None:
            return None
        return IntMatrix._of((len(dst_monos), cols, tuple(out)))

    # -- state evaluation ------------------------------------------------------

    def state(self, tri: TriDegree) -> PresentedGroup:
        """The spot state at tri, one per lam^period-translation class,
        keyed by (s, t reduced by the class step, t + b) (tri itself on a
        page with no period) and evaluated at the first tridegree of the
        class asked for.  The bases of two translates correspond in sorted
        order by adding the period to the lam exponent and every round
        treats both alike, so by induction `_evaluate` does the same
        arithmetic on the same matrices at both."""
        if self.previous is None:
            return PresentedGroup.full_free(len(self._solve(tri)))
        step = self._class_step
        key = tri if step is None else (tri[0], tri[1] % step, tri[1] + tri[2])
        cached = self._state_memo.get(key)
        if cached is None:
            cached = self._state_memo[key] = self._evaluate(tri)
        return cached

    def _evaluate(self, tri: TriDegree) -> PresentedGroup:
        monos = self.monomials_at(tri)
        if not monos:
            return PresentedGroup.full_free(0)
        (s, t, b), (ds, dt, _) = tri, self._shift  # a round never moves b
        down, up = (s - ds, t - dt, b), (s + ds, t + dt, b)
        previous = self.previous
        here = previous.state(tri)

        # new cycles: x in cycles with d(x) a boundary upstairs
        imgs = self._d_of_cycles(here, monos, self.monomials_at(up), "cycle basis")
        if imgs is None:
            new_cycles = here.cycles
        else:
            new_cycles = here.cycles.mul(preimage_lattice(imgs, previous.state(up).rels))

        # new boundaries: old ones plus images of cycles downstairs
        pieces = here.rels
        grew = False
        below_monos = self.monomials_at(down)
        if below_monos:
            incoming = self._d_of_cycles(previous.state(down), below_monos, monos,
                                         "incoming cycle basis")
            if incoming is not None:
                pieces = pieces.hstack(incoming)
                grew = True
        if new_cycles is here.cycles and not grew:
            return here
        new_bounds = column_space_basis(pieces) if grew else here.rels
        try:
            # the square-zero law: every new boundary is a new cycle
            return PresentedGroup.from_lattices(new_cycles, new_bounds)
        except NotInLatticeError:
            raise DifferentialError(f"d o d != 0 at tridegree {tri}") from None

    def is_cycle(self, powers: dict[str, int]) -> bool:
        """Whether the monomial survives as a class of the current page
        (its unit vector lies in the iterated cycle lattice)."""
        mono = self.pres.mono(powers)
        tri = self.pres.tridegree_of(mono)
        st, monos = self.state(tri), self.monomials_at(tri)
        if mono not in monos:
            return False
        vec = [1 if m == mono else 0 for m in monos]
        return lattice_contains(st.cycles, vec)


# how far below the last structural bound each filtration scan looks
_SCAN_DEPTH = 16
# the longest differential shape d_r the collapse certificate searches
_R_CAP = 16
# how many filtrations at the bottom of each scan must vanish
_ZERO_BAND = 4


def _scan_floor(d: Degree) -> int:
    x, y = d
    return -(max(0, -(x + y)) + _SCAN_DEPTH)


def live_tridegrees(page: Page, d: Degree) -> list[TriDegree]:
    """Tridegrees with chart shadow d and a nonzero group, scanned from
    filtration 0 down to _SCAN_DEPTH below the last structural bound.
    Only the filtrations that hold a monomial are scanned: the chain's
    `_scan_memo` lists them once per key (x + y, x mod lam's t), d itself
    without lam, on which both `_scan_floor` and `_solve`'s keys depend."""
    x, y = d
    key = (x + y, x % page._lt) if page._lt else d
    held = page._scan_memo.get(key)
    if held is None:
        held = page._scan_memo[key] = tuple(
            s for s in range(0, _scan_floor(d) - 1, -1) if page._solve((s, x - s, y)))
    return [tri for tri in [(s, x - s, y) for s in held]
            if not page.state(tri).group.is_zero()]


def lambda_period(page: Page, limit: int) -> int | None:
    """The least p in 1..limit with lam^p and lam^-p both classes of the
    page, lam its invertible generator; None if there is no such p or no
    invertible generator.

    Multiplication by lam^p is then an isomorphism of the page.  It moves
    a tridegree by p times lam's tridegree (0, t, -t), which leaves s and
    the scan floor of the chart shadow alone.
    """
    lam = page.pres.invertible
    if lam is None:
        return None
    return next((p for p in range(1, limit + 1)
                 if page.is_cycle({lam.name: p}) and page.is_cycle({lam.name: -p})),
                None)


def _orbits(page: Page, window: Window) -> Callable[[Degree], tuple[Degree, TriDegree]]:
    """The lam^p-orbit rule of window on page: for a window degree, the
    representative of its orbit and the tridegree shift taking the
    representative's spots to its own.

    An orbit is keyed by (x + y, y mod pt); its representative is its
    first degree in window order, the one highest up its antidiagonal
    within the window.  A chart step pt longer than the window leaves one
    degree per orbit, so the period is looked for only up to the window's
    extent, and with none found the step is taken one longer than the
    window's height.
    """
    lam = page.pres.invertible
    extent = min(window.xmax - window.xmin, window.ymax - window.ymin)
    p = lambda_period(page, extent // abs(lam.tridegree[1]) if lam else 0)
    step = abs(p * lam.tridegree[1]) if p else window.ymax - window.ymin + 1
    xmin, ymax = window.xmin, window.ymax

    def orbit(d: Degree) -> tuple[Degree, TriDegree]:
        x, y = d
        top = x + y - xmin
        k = ((top if top < ymax else ymax) - y) // step * step
        return (x - k, y + k), (0, k, -k)
    return orbit


def _scan(page: Page, window: Window) -> tuple[Callable, dict[Degree, list[TriDegree]]]:
    """The lam^p-orbit rule of window on page (`_orbits`) and the live
    spots of each orbit's representative (`live_tridegrees`)."""
    orbit = _orbits(page, window)
    return orbit, {d: live_tridegrees(page, d)
                   for d in window.degrees() if orbit(d)[0] == d}


def find_candidates(page: Page, window: Window, scans: dict | None = None
                    ) -> list[tuple[int, TriDegree, TriDegree]]:
    """Exhaustive search for places a later differential could be nonzero,
    on every page of the chain that ends at page, earliest page first.

    A page answers for the shapes d_r strictly between the round that made
    it (0 on E_1) and the next round, the last page up to _R_CAP:
    E_{r+1} = H(E_r, d_r) has no d_r.  The ranges are disjoint, so r
    names the page.  Each page is searched over one degree per
    lam^p-orbit of the window, p read off that page by `lambda_period`:
    multiplication by lam^p is an isomorphism of the page, so it carries
    every candidate pair (source, source + (-r, r-1, 0)) to one in the
    same orbit.  For every nonzero spot of a representative within
    _SCAN_DEPTH of the scan floor and every shape of its page, report the
    pairs where the target group admits a nonzero homomorphism from the
    source.  Every source lies over a window degree.  An empty list is
    the collapse certificate the pipelines rely on.  scans, if given,
    receives each searched page's `_scan`, which the chart readout reuses.
    """
    chain = [page]
    while chain[0].previous is not None:
        chain.insert(0, chain[0].previous)
    found = []
    for page, top in zip(chain, [p.shape for p in chain[1:]] + [_R_CAP + 1]):
        shapes = range(page.shape + 1, top)
        if not shapes:
            continue
        scan = _scan(page, window)
        if scans is not None:
            scans[page] = scan
        for tris in scan[1].values():
            for tri in tris:
                g = page.state(tri).group
                s, t, b = tri
                for r in shapes:
                    target = (s - r, t + r - 1, b)
                    if not page._solve(target):
                        continue
                    h = page.state(target).group
                    if has_nonzero_hom(g, h):
                        found.append((r, tri, target))
    return found


def collapse_to_chart(page: Page, window: Window, name: str,
                      label_of=None, map_monos: dict[str, dict[str, int]] | None = None
                      ) -> Chart:
    """Read the page off as an RO(Q)-graded chart.

    Requires: no remaining differential candidates in the window on any
    page of the chain, each page at its own shapes (see
    `find_candidates`), at most one nonzero filtration per degree, and a
    zero band at the bottom of every filtration scan (so the scan depth
    provably did not cut off contributions for these theories).
    Candidates and live filtrations are scanned once per lam^p-orbit;
    every other degree takes its representative's live spots moved by
    lam^p.  Each degree's one live spot is then evaluated directly, and a
    group that differs from its representative's is a `CollapseError`,
    so every chart entry is checked against an independent evaluation.
    Structure maps multiply representatives by the given monomials
    (`_map_family`), each family on its first read (`MapFamilies`), from
    the live spots' states and bases kept at readout, not the page.
    """
    scans: dict[Page, tuple] = {}
    leftovers = find_candidates(page, window, scans)
    if leftovers:
        r, src, dst = leftovers[0]
        orbits = {(s + t, b) for _, (s, t, b), _ in leftovers}
        raise CollapseError(
            f"possible nonzero d_{r} remains from {src} to {dst} "
            f"({len(leftovers)} candidate pairs over {len(orbits)} orbits)")

    # each live degree's spot with its state and basis, all the map
    # families read
    spots: dict[Degree, tuple[TriDegree, PresentedGroup, tuple[Mono, ...]]] = {}
    entries: dict[Degree, ChartEntry] = {}
    # a last round of shape _R_CAP or more leaves the last page unsearched
    orbit, rep_live = scans.get(page) or _scan(page, window)
    for d in window.degrees():
        rep, shift = orbit(d)
        if not rep_live[rep]:
            continue
        live = [_add_tri(tri, shift) for tri in rep_live[rep]]
        # zero-band certificate: the bottom _ZERO_BAND filtrations of the
        # scan must be zero, so the cutoff provably lost nothing nearby
        if live[-1][0] < _scan_floor(d) + _ZERO_BAND:
            raise CollapseError(
                f"no zero band at the bottom of the filtration scan for {d}; "
                f"increase _SCAN_DEPTH (nonzero at {live[-1]})")
        if len(live) > 1:
            raise CollapseError(f"degree {d} is spread over filtrations {live}")
        tri, rep_tri = live[0], rep_live[rep][0]
        st = page.state(tri)
        # a spot in its representative's translation class (moved by a
        # multiple of the class step) shares its state object, so it is
        # checked against a direct evaluation instead
        own = (page._evaluate(tri) if shift[1] and page._class_step
               and not shift[1] % page._class_step else st)
        if own.group != page.state(rep_tri).group:
            raise CollapseError(
                f"degree {d}: the group at {tri} differs from its orbit's at "
                f"{rep_tri}, so lam^p is no isomorphism of the page")
        gens, monos = [], page.monomials_at(tri)
        for j in range(st.gens.cols):
            vec = st.gens.column(j)
            order = st.orders[j]
            label = _rep_label(page.pres, monos, vec, label_of)
            gens.append(Generator(label, DOT if order else SQUARE, order))
        entries[d] = ChartEntry(tuple(gens))
        spots[d] = (tri, st, monos)

    maps = MapFamilies({mname: partial(_map_family, page.pres, spots, page.pres.mono(powers))
                        for mname, powers in (map_monos or {}).items()})
    return Chart(name=name, window=window, entries=entries, maps=maps)


def _map_family(pres: Presentation, spots: dict, mono: Mono) -> dict[Degree, IntMatrix]:
    """Multiplication by mono out of each live spot of spots, induced on
    its state into the live spot at the product's tridegree; a product
    that lands in another filtration than its degree's live spot is
    zero there."""
    mshift = pres.tridegree_of(mono)
    family: dict[Degree, IntMatrix] = {}
    for d, (tri, src, src_monos) in spots.items():
        target = spots.get((d[0] + mshift[0] + mshift[1], d[1] + mshift[2]))
        if target is None or target[0] != _add_tri(tri, mshift):
            continue
        _, dst, dst_monos = target
        cols = []
        for m in src_monos:
            col = [0] * len(dst_monos)
            col[dst_monos.index(tuple(map(operator.add, m, mono)))] = 1
            cols.append(col)
        family[d] = dst.induced(IntMatrix.from_columns(cols, len(dst_monos)), src)
    return family


def _rep_label(pres: Presentation, monos: tuple[Mono, ...], vec: list[int],
               label_of) -> str:
    support = [(i, c) for i, c in enumerate(vec) if c]
    if len(support) == 1:
        i, c = support[0]
        if label_of is not None:
            return label_of(monos[i], abs(c))
        return pres.mono_str(monos[i], abs(c))
    return "(" + " + ".join(pres.mono_str(monos[i], c) for i, c in support) + ")"
