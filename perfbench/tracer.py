"""Spans and counters recorded around the package's public functions.

The tracer is installed from outside the package: each traced function is
replaced by a wrapper in its defining module and in every roqcharts
module that imported it by name (so `from .exactalg import
smith_normal_form` bindings are traced too), and Page methods are
replaced on the class.  Nothing in the package is modified on disk.

Two kinds of wrapper are used:

- span wrappers around stage-level calls (pipeline stages, Bockstein
  floors, cellular rows, closed forms, diff, serialize) record
  (name, parent, start, end) and are kept in memory until the job ends;
- counting wrappers around the hot leaf calls (Smith normal form,
  presented kernels, Page.state, ...) keep a call count, and where
  useful an inclusive time or a set of distinct inputs, because a span
  per call would cost more than the call itself.

A target the package no longer has is skipped and listed in
`Tracer.missing`, so the benchmark keeps running across refactors; its
metrics then read 0.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

_clock = time.perf_counter

# (module, attribute) pairs traced as spans; the span name is
# "<module>.<attribute>".
SPAN_TARGETS = [
    ("theories", "hz_seed"), ("theories", "kr_seed"),
    ("theories", "build_pages"), ("theories", "run_tate_pipeline"),
    ("theories", "run_hfpss"),
    ("specseq", "find_candidates"), ("specseq", "collapse_to_chart"),
    ("tate", "run_tate_square"), ("tate", "invert_a_with_maps"),
    ("tate", "homotopy_orbits"), ("tate", "geometric_fixed_points_with_maps"),
    ("tate", "assemble_genuine"),
    ("theories", "run_bockstein"), ("theories", "bss_higher_candidates"),
    ("theories", "gap_check"), ("theories", "connectivity_check"),
    ("cells", "cellular_chart_hz"), ("cells", "bredon_row"),
    ("cells", "quotient_row_check"),
    ("grading", "closed_form_hz"), ("grading", "closed_form_kr"),
    ("chartio", "diff"), ("chartio", "serialize"),
]

# Spans that feed a per-layer time metric.  `trace.stage_coverage` is the
# share of the job covered by the outermost of them; the pipeline drivers
# (run_tate_pipeline, run_hfpss, run_tate_square) and the checks are not
# stages, so their own time outside the stages counts as uncovered.
STAGE_SPANS = {
    "theories.hz_seed", "theories.kr_seed", "theories.build_pages",
    "specseq.find_candidates", "specseq.collapse_to_chart",
    "tate.invert_a_with_maps", "tate.homotopy_orbits",
    "tate.geometric_fixed_points_with_maps", "tate.assemble_genuine",
    "theories.run_bockstein", "theories.bss_higher_candidates",
    "cells.bredon_row", "grading.closed_form_hz", "grading.closed_form_kr",
    "chartio.diff", "chartio.serialize",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, parent index or None, start, end]
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.times: Counter = Counter()
        self.snf_inputs: set = set()
        self.state_keys: set = set()
        self._in_certificate = 0
        self.missing: list[str] = []
        self.root: int | None = None

    # -- spans ---------------------------------------------------------------

    def span(self, name: str, fn, on_result=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            rec = [name, stack[-1] if stack else None, _clock(), 0.0]
            spans.append(rec)
            stack.append(index)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = _clock()
                stack.pop()
            if on_result is not None:
                on_result(out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def run_root(self, fn, *args):
        """Run fn(*args) as the job's root span."""
        self.root = len(self.spans)
        return self.span("job", fn)(*args)

    # -- counting wrappers ---------------------------------------------------

    def _counted(self, key: str, fn, timed: bool = False):
        counts, times = self.counts, self.times
        if not timed:
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                counts[key] += 1
                t = _clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    times[key] += _clock() - t
        wrapper.__wrapped__ = fn
        return wrapper

    def _snf(self, fn):
        counts, times, inputs = self.counts, self.times, self.snf_inputs

        def wrapper(m, *args, **kwargs):
            counts["snf"] += 1
            inputs.add((m.rows, m.cols, m.entries))
            t = _clock()
            try:
                return fn(m, *args, **kwargs)
            finally:
                times["snf"] += _clock() - t

        wrapper.__wrapped__ = fn
        return wrapper

    def _state(self, fn):
        counts, keys = self.counts, self.state_keys
        by_content: dict[tuple, int] = {}
        by_page: dict[int, tuple] = {}

        def wrapper(page, tri, *args, **kwargs):
            counts["state"] += 1
            # pages with the same presentation and rounds share their
            # states, so distinct work is keyed by content, not identity
            known = by_page.get(id(page))
            if known is None or known[0] is not page:
                content = (page.pres.generators, page.rounds)
                known = by_page[id(page)] = (
                    page, by_content.setdefault(content, len(by_content)))
            pid = known[1]
            depth = args[0] if args else kwargs.get("depth")
            keys.add((pid, len(page.rounds) if depth is None else depth, tri))
            return fn(page, tri, *args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _nonzero_hom(self, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts["nonzero_hom"] += 1
            if self._in_certificate:
                counts["candidate_pairs"] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _certificate(self, fn):
        inner = self.span("specseq.find_candidates", fn, self._found)

        def wrapper(*args, **kwargs):
            self._in_certificate += 1
            try:
                return inner(*args, **kwargs)
            finally:
                self._in_certificate -= 1

        wrapper.__wrapped__ = fn
        return wrapper

    def _found(self, out):
        self.counts["candidates_found"] += len(out)

    def _bss_found(self, out):
        self.counts["bockstein_candidates"] += len(out)

    def _serialized(self, out):
        self.counts["chart_bytes"] += len(out.encode())

    # -- installation --------------------------------------------------------

    def install(self):
        """Wrap every target in the already imported roqcharts package."""
        pkg = "roqcharts"
        mods = {name: sys.modules.get(f"{pkg}.{name}") for name in
                ("exactalg", "grading", "cells", "specseq", "tate",
                 "theories", "chartio", "cli")}
        mods["package"] = sys.modules.get(pkg)
        special = {
            ("specseq", "find_candidates"): self._certificate,
            ("theories", "bss_higher_candidates"):
                lambda fn: self.span("theories.bss_higher_candidates", fn,
                                     self._bss_found),
            ("chartio", "serialize"):
                lambda fn: self.span("chartio.serialize", fn, self._serialized),
        }
        for mod, attr in SPAN_TARGETS:
            make = special.get((mod, attr),
                               lambda fn, n=f"{mod}.{attr}": self.span(n, fn))
            self._patch(mods, mod, attr, make)
        self._patch(mods, "exactalg", "smith_normal_form", self._snf)
        for attr in ("presented_kernel", "presented_cokernel"):
            self._patch(mods, "exactalg", attr,
                        lambda fn: self._counted("presented", fn, timed=True))
        self._patch(mods, "exactalg", "homology_at",
                    lambda fn: self._counted("homology", fn))
        self._patch(mods, "exactalg", "has_nonzero_hom", self._nonzero_hom)
        self._patch(mods, "theories", "bss_floor_survivors",
                    lambda fn: self._counted("floor_survivors", fn))
        page = getattr(mods["specseq"], "Page", None)
        if page is None:
            self.missing.append("specseq.Page")
        else:
            for attr, make in (("state", self._state),
                               ("monomials_at",
                                lambda fn: self._counted("monomials", fn))):
                fn = getattr(page, attr, None)
                if fn is None:
                    self.missing.append(f"specseq.Page.{attr}")
                else:
                    setattr(page, attr, make(fn))
        return self

    def _patch(self, mods, mod, attr, make):
        home = mods.get(mod)
        orig = getattr(home, attr, None) if home is not None else None
        if orig is None:
            self.missing.append(f"{mod}.{attr}")
            return
        wrapped = make(orig)
        for m in mods.values():
            if m is None:
                continue
            for name, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, name, wrapped)

    # -- summary -------------------------------------------------------------

    def summary(self) -> dict:
        """Per-layer totals for this job, derived from spans and counters."""
        spans = self.spans
        dur = [s[3] - s[2] for s in spans]
        total: Counter = Counter()
        for s, d in zip(spans, dur):
            total[s[0]] += d

        def nested(parent_name: str, child_name: str) -> float:
            return sum(d for s, d in zip(spans, dur) if s[0] == child_name
                       and s[1] is not None and spans[s[1]][0] == parent_name)

        def outermost_stage(s) -> bool:
            if s[0] not in STAGE_SPANS:
                return False
            parent = s[1]
            while parent is not None:
                if spans[parent][0] in STAGE_SPANS:
                    return False
                parent = spans[parent][1]
            return True

        root = self.root
        root_time = dur[root] if root is not None else 0.0
        covered = sum(d for s, d in zip(spans, dur) if outermost_stage(s))
        c, t = self.counts, self.times
        return {
            "specseq.certificate_s": total["specseq.find_candidates"],
            "specseq.readout_s": total["specseq.collapse_to_chart"]
                - nested("specseq.collapse_to_chart", "specseq.find_candidates"),
            "specseq.state_calls": c["state"],
            "specseq.state_distinct": len(self.state_keys),
            "specseq.monomial_calls": c["monomials"],
            "specseq.candidate_pairs": c["candidate_pairs"],
            "specseq.candidates_found": c["candidates_found"],
            "exactalg.snf_calls": c["snf"],
            "exactalg.snf_distinct": len(self.snf_inputs),
            "exactalg.snf_s": t["snf"],
            "exactalg.presented_calls": c["presented"],
            "exactalg.presented_s": t["presented"],
            "exactalg.homology_calls": c["homology"],
            "exactalg.nonzero_hom_calls": c["nonzero_hom"],
            "tate.invert_a_s": total["tate.invert_a_with_maps"],
            "tate.orbits_s": total["tate.homotopy_orbits"],
            "tate.phi_s": total["tate.geometric_fixed_points_with_maps"],
            "tate.genuine_s": total["tate.assemble_genuine"],
            "theories.seed_s": total["theories.hz_seed"] + total["theories.kr_seed"],
            "theories.bockstein_s": total["theories.run_bockstein"]
                - nested("theories.run_bockstein", "theories.bss_higher_candidates"),
            "theories.bss_candidates_s": total["theories.bss_higher_candidates"],
            "theories.floor_survivor_calls": c["floor_survivors"],
            "theories.bockstein_candidates": c["bockstein_candidates"],
            "cells.rows_s": total["cells.bredon_row"],
            "cells.row_calls": sum(1 for s in spans if s[0] == "cells.bredon_row"),
            "grading.closed_s": total["grading.closed_form_hz"]
                + total["grading.closed_form_kr"],
            "chartio.diff_s": total["chartio.diff"],
            "chartio.serialize_s": total["chartio.serialize"],
            "chartio.chart_bytes": c["chart_bytes"],
            "trace.root_s": root_time,
            "trace.covered_s": covered,
        }
