"""Bigraded charts (`BigradedChart`) and their deterministic SVG renderer.
No algebra engine is imported here, so `chart render` loads none.

Adams conventions: x = t - s, y = s.  Glyphs: open square for a free
summand, filled dot for a Z/2 summand, labeled dot for other torsion
orders; every cell renders exactly one glyph cluster, stacked left to
right.  Differential arrows are drawn only when supplied as explicit
input data.  Element order is fixed (sorted cells, then arrows), so
re-rendering the same chart is byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

CELL = 36           # px per lattice step
MARGIN = 46
GLYPH = 9           # glyph diameter/side
STEP = 11           # offset between summands in one cell


@dataclass
class BigradedChart:
    """E_2-style chart: (s, t) -> (free rank, torsion orders)."""
    s_max: int
    t_values: Tuple[int, ...]
    cells: Dict[Tuple[int, int], Tuple[int, Tuple[int, ...]]] \
        = field(default_factory=dict)
    meta: Dict[str, object] = field(default_factory=dict)

    def cell(self, s: int, t: int) -> Tuple[int, Tuple[int, ...]]:
        return self.cells.get((s, t), (0, ()))


@dataclass
class ChartRender:
    """A chart plus plotting window and optional arrows
    ((s1, t1, s2, t2) in chart coordinates)."""
    chart: BigradedChart
    x_min: int = 0
    x_max: int = 12
    s_min: int = 0
    s_max: int = 6
    arrows: List[Tuple[int, int, int, int]] = field(default_factory=list)
    title: str = ""

    def in_bounds(self, s: int, t: int) -> bool:
        return (self.s_min <= s <= self.s_max
                and self.x_min <= t - s <= self.x_max)


def render_window_for(chart: BigradedChart,
                      x_range: Optional[Tuple[int, int]] = None,
                      s_range: Optional[Tuple[int, int]] = None
                      ) -> ChartRender:
    xs = [t - s for (s, t) in chart.cells] or [0]
    ss = [s for (s, t) in chart.cells] or [0]
    x_min, x_max = x_range if x_range else (min(xs + [0]), max(xs + [1]))
    s_min, s_max = s_range if s_range else (0, max(ss + [1]))
    return ChartRender(chart=chart, x_min=x_min, x_max=x_max,
                       s_min=s_min, s_max=s_max)


def _xy(r: ChartRender, s: int, t: int) -> Tuple[int, int]:
    x = MARGIN + (t - s - r.x_min) * CELL
    y = MARGIN + (r.s_max - s) * CELL
    return x, y


def chart_svg(r: ChartRender) -> str:
    w = MARGIN * 2 + (r.x_max - r.x_min) * CELL
    h = MARGIN * 2 + (r.s_max - r.s_min) * CELL
    out: List[str] = []
    out.append('<svg xmlns="http://www.w3.org/2000/svg" '
               'width="%d" height="%d" viewBox="0 0 %d %d">' % (w, h, w, h))
    out.append('<rect x="0" y="0" width="%d" height="%d" fill="white"/>'
               % (w, h))
    # grid
    for i in range(r.x_max - r.x_min + 1):
        x = MARGIN + i * CELL
        out.append('<line x1="%d" y1="%d" x2="%d" y2="%d" '
                   'stroke="#dddddd" stroke-width="1"/>'
                   % (x, MARGIN, x, h - MARGIN))
        out.append('<text x="%d" y="%d" font-size="10" '
                   'text-anchor="middle" fill="#555555">%d</text>'
                   % (x, h - MARGIN + 16, r.x_min + i))
    for i in range(r.s_max - r.s_min + 1):
        y = MARGIN + i * CELL
        out.append('<line x1="%d" y1="%d" x2="%d" y2="%d" '
                   'stroke="#dddddd" stroke-width="1"/>'
                   % (MARGIN, y, w - MARGIN, y))
        out.append('<text x="%d" y="%d" font-size="10" '
                   'text-anchor="end" fill="#555555">%d</text>'
                   % (MARGIN - 10, y + 4, r.s_max - i))
    if r.title:
        out.append('<text x="%d" y="%d" font-size="12" '
                   'text-anchor="middle">%s</text>'
                   % (w // 2, 18, _esc(r.title)))
    # one glyph cluster per populated cell, sorted for determinism
    for (s, t) in sorted(r.chart.cells):
        if not r.in_bounds(s, t):
            continue
        rank, torsion = r.chart.cells[(s, t)]
        glyphs = ["box"] * rank + [
            "dot" if q == 2 else "dot%d" % q for q in torsion]
        cx, cy = _xy(r, s, t)
        x0 = cx - (len(glyphs) - 1) * STEP // 2
        for i, g in enumerate(glyphs):
            gx = x0 + i * STEP
            if g == "box":
                out.append('<rect x="%d" y="%d" width="%d" height="%d" '
                           'fill="white" stroke="black" '
                           'stroke-width="1.5"/>'
                           % (gx - GLYPH // 2, cy - GLYPH // 2,
                              GLYPH, GLYPH))
            elif g == "dot":
                out.append('<circle cx="%d" cy="%d" r="%d" '
                           'fill="black"/>' % (gx, cy, GLYPH // 2))
            else:
                q = int(g[3:])
                out.append('<circle cx="%d" cy="%d" r="%d" '
                           'fill="black"/>' % (gx, cy, GLYPH // 2))
                out.append('<text x="%d" y="%d" font-size="9" '
                           'text-anchor="middle">%d</text>'
                           % (gx, cy - GLYPH, q))
    # arrows only from supplied data
    for (s1, t1, s2, t2) in sorted(r.arrows):
        x1, y1 = _xy(r, s1, t1)
        x2, y2 = _xy(r, s2, t2)
        out.append('<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#aa0000" '
                   'stroke-width="1.2" marker-end="url(#arr)"/>'
                   % (x1, y1, x2, y2))
    if r.arrows:
        out.insert(1, '<defs><marker id="arr" markerWidth="8" '
                   'markerHeight="8" refX="6" refY="3" orient="auto">'
                   '<path d="M0,0 L6,3 L0,6 z" fill="#aa0000"/>'
                   '</marker></defs>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _esc(s: str) -> str:
    return (s.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))
