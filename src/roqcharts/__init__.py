"""Exact-arithmetic RO(Q)-graded coefficient charts for the group of
order two, computed by four cross-validating pipelines: a cellular
oracle, the fixed-point spectral sequence plus the Tate square, the
vbar-Bockstein spectral sequence, and closed-form block models."""

from .exactalg import (FgAbelian, IntComplex, IntMatrix, homology_at,
                       smith_normal_form)
from .grading import (Chart, ChartEntry, Degree, Generator, Window,
                      closed_form_hz, closed_form_kr, mult_map)
from .cells import (bredon_row, cellular_chart_hz, quotient_row_check,
                    sphere_complex)
from .specseq import (DifferentialRule, Page, PageGenerator, Presentation,
                      collapse_to_chart, find_candidates)
from .tate import (TateSquareData, assemble_genuine, homotopy_orbits,
                   run_tate_square)
from .theories import (TheorySeed, connectivity_check, gap_check, hz_seed,
                       kr_seed, run_bockstein, run_hfpss, run_tate_pipeline,
                       sss_entry_e1, sss_entry_einf, theta_apply)
from .chartio import diff, parse, render, serialize

__all__ = [name for name in dir() if not name.startswith("_")]
