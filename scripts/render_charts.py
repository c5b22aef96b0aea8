#!/usr/bin/env python3
"""Render the genuine charts of both theories, plus the intermediate
Tate-square stages, as SVG and chart documents.

    python3 scripts/render_charts.py

writes them into out/, where they are tracked; `main(out)` writes them
into another directory."""

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from roqcharts.chartio import render, serialize
from roqcharts.grading import Window, closed_form_hz, closed_form_kr
from roqcharts.theories import hz_seed, kr_seed, run_tate_pipeline


def main(out: pathlib.Path = ROOT / "out") -> int:
    out.mkdir(exist_ok=True)
    window = Window.square(12)
    for name, chart in (("hz_closed", closed_form_hz(window)),
                        ("kr_closed", closed_form_kr(window))):
        (out / f"{name}.svg").write_bytes(render(chart, "svg"))
        (out / f"{name}.txt").write_bytes(render(chart, "text"))
        (out / f"{name}.chart").write_text(serialize(chart))
        print(f"wrote {name}.{{svg,txt,chart}}")
    for seed in (hz_seed(), kr_seed()):
        data = run_tate_pipeline(seed, window)
        for stage, chart in (("hfp", data.hfp), ("tate", data.tate),
                             ("orbits", data.orbits), ("phi", data.phi),
                             ("genuine", data.genuine)):
            path = out / f"{seed.name}_{stage}.svg"
            path.write_bytes(render(chart, "svg"))
        print(f"wrote {seed.name} pipeline stages")
    return 0


if __name__ == "__main__":
    sys.exit(main())
