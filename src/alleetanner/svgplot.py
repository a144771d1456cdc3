"""Deterministic SVG 1.1 rendering for portraits, basins and diagrams.

Text output only (no raster images): identical inputs yield byte-identical
SVG, so figures diff cleanly in tests.  Coordinates are formatted with a
fixed number of decimals and elements carry class names so tests can probe
for specific features (e.g. ``class="separatrix"``).
"""

from __future__ import annotations

from .bifurcation import BifurcationDiagram, RegionLabel
from .stability import StabilityTag

PORTRAIT_COLORS = {
    "prey_nullcline": "#1f77b4",     # blue
    "predator_nullcline": "#d62728",  # red
    "separatrix": "#000000",
    "cycle": "#111111",
    "orbit": "#999999",
}

BASIN_COLORS = {
    "undecided": "#ffffff",
    "predator_only": "#f5a623",      # orange: basin of (0, C)
    "interior_low": "#8f8f8f",
    "interior_high": "#b0b0b0",      # grey: basin of the interior point
    "interior_double": "#b0b0b0",
    "origin": "#d0d0d0",
    "prey_k": "#c0c0c0",
    "prey_allee": "#c8c8c8",
    "cycle": "#f7e463",              # yellow: basin of the limit cycle
}

REGION_COLORS = {
    RegionLabel.NO_INTERIOR: "#e74c3c",
    RegionLabel.REPELLER: "#b0b0b0",
    RegionLabel.CYCLE: "#5dade2",
    RegionLabel.BISTABLE: "#27ae60",
    RegionLabel.SINGLE_ATTRACTOR: "#a9dfbf",
    RegionLabel.NEAR_LOCUS: "#ffffff",
}


def _f(x: float) -> str:
    return f"{x:.3f}"


class SvgCanvas:
    """Tiny fixed-window SVG writer with y flipped to mathematical sense."""

    def __init__(self, window, size=640, margin=48, comments=()):
        (self.u0, self.u1), (self.v0, self.v1) = window
        self.w = size
        self.h = size
        self.m = margin
        self.sx = (size - 2 * margin) / (self.u1 - self.u0)
        self.sy = (size - 2 * margin) / (self.v1 - self.v0)
        self.parts = [
            '<?xml version="1.0" encoding="UTF-8"?>',
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{size}" height="{size}" '
            f'viewBox="0 0 {size} {size}">',
        ]
        for c in comments:
            self.parts.append(f"<!-- {c} -->")
        self.parts.append(
            f'<rect x="0" y="0" width="{size}" height="{size}" '
            f'fill="#ffffff"/>')

    def px(self, u: float, v: float) -> tuple[float, float]:
        return (self.m + (u - self.u0) * self.sx,
                self.h - self.m - (v - self.v0) * self.sy)

    def frame(self):
        x0, y1 = self.px(self.u0, self.v0)
        x1, y0 = self.px(self.u1, self.v1)
        self.parts.append(
            f'<rect class="frame" x="{_f(x0)}" y="{_f(y0)}" '
            f'width="{_f(x1 - x0)}" height="{_f(y1 - y0)}" fill="none" '
            f'stroke="#333333" stroke-width="1"/>')

    def polyline(self, pts, color, width=1.0, cls="", dash=None):
        if len(pts) < 2:
            return
        coords = " ".join(f"{_f(x)},{_f(y)}"
                          for x, y in (self.px(u, v) for u, v in pts))
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        cls_attr = f' class="{cls}"' if cls else ""
        self.parts.append(
            f'<polyline{cls_attr} points="{coords}" fill="none" '
            f'stroke="{color}" stroke-width="{_f(width)}"{dash_attr}/>')

    def circle(self, u, v, r, fill, stroke="#000000", cls=""):
        x, y = self.px(u, v)
        cls_attr = f' class="{cls}"' if cls else ""
        self.parts.append(
            f'<circle{cls_attr} cx="{_f(x)}" cy="{_f(y)}" r="{_f(r)}" '
            f'fill="{fill}" stroke="{stroke}" stroke-width="1"/>')

    def cross(self, u, v, r, cls=""):
        x, y = self.px(u, v)
        cls_attr = f' class="{cls}"' if cls else ""
        self.parts.append(
            f'<path{cls_attr} d="M {_f(x - r)} {_f(y - r)} L {_f(x + r)} '
            f'{_f(y + r)} M {_f(x - r)} {_f(y + r)} L {_f(x + r)} '
            f'{_f(y - r)}" stroke="#000000" stroke-width="1.5" fill="none"/>')

    def square(self, u, v, r, fill, cls=""):
        x, y = self.px(u, v)
        cls_attr = f' class="{cls}"' if cls else ""
        self.parts.append(
            f'<rect{cls_attr} x="{_f(x - r)}" y="{_f(y - r)}" '
            f'width="{_f(2 * r)}" height="{_f(2 * r)}" fill="{fill}" '
            f'stroke="#000000" stroke-width="1"/>')

    def cell(self, u0, v0, u1, v1, color, cls=""):
        x0, y1 = self.px(u0, v0)
        x1, y0 = self.px(u1, v1)
        cls_attr = f' class="{cls}"' if cls else ""
        self.parts.append(
            f'<rect{cls_attr} x="{_f(x0)}" y="{_f(y0)}" '
            f'width="{_f(x1 - x0)}" height="{_f(y1 - y0)}" '
            f'fill="{color}" stroke="none"/>')

    def text(self, u, v, s, size=13, cls=""):
        x, y = self.px(u, v)
        cls_attr = f' class="{cls}"' if cls else ""
        self.parts.append(
            f'<text{cls_attr} x="{_f(x)}" y="{_f(y)}" font-size="{size}" '
            f'font-family="monospace" fill="#000000">{s}</text>')

    def tostring(self) -> str:
        return "\n".join(self.parts + ["</svg>"]) + "\n"


_GLYPHS = {
    StabilityTag.ATTRACTOR: ("circle", "#000000"),
    StabilityTag.REPELLER: ("circle", "#ffffff"),
    StabilityTag.SADDLE: ("cross", None),
    StabilityTag.SADDLE_NODE_ATTRACTOR: ("square", "#000000"),
    StabilityTag.SADDLE_NODE_REPELLER: ("square", "#ffffff"),
    StabilityTag.CUSP_BT: ("square", "#888888"),
    StabilityTag.NON_HYPERBOLIC: ("circle", "#888888"),
}


def draw_equilibrium(canvas: SvgCanvas, u, v, tag: StabilityTag):
    shape, fill = _GLYPHS[tag]
    cls = f"eq-{tag.value}"
    if shape == "cross":
        canvas.cross(u, v, 5.0, cls=cls)
    elif shape == "square":
        canvas.square(u, v, 4.5, fill, cls=cls)
    else:
        canvas.circle(u, v, 4.5, fill, cls=cls)


def render_portrait(window, curves: dict, equilibria, comments=()) -> str:
    """Phase portrait: nullclines, orbits, separatrix, cycle, glyphs.

    ``curves`` maps curve name -> (N,2) array; names starting with "orbit"
    are drawn thin grey, the rest use PORTRAIT_COLORS.  ``equilibria`` is a
    list of (u, v, StabilityTag).
    """
    cv = SvgCanvas(window, comments=comments)
    cv.frame()
    order = sorted(curves)
    for name in order:
        if name.startswith("orbit"):
            cv.polyline(curves[name], PORTRAIT_COLORS["orbit"], 1.0,
                        cls="orbit")
    for name in order:
        if name.startswith("orbit"):
            continue
        color = PORTRAIT_COLORS.get(name, "#555555")
        width = 2.0 if name in ("separatrix", "cycle") else 1.5
        cv.polyline(curves[name], color, width, cls=name)
    for u, v, tag in equilibria:
        draw_equilibrium(cv, u, v, tag)
    return cv.tostring()


def render_basin(raster, separatrix_polyline=None, comments=()) -> str:
    """Basin raster as row-run rectangles with an optional separatrix."""
    (u0, u1), (v0, v1) = raster.bounds
    cv = SvgCanvas(raster.bounds, comments=comments)
    res = raster.resolution
    du = (u1 - u0) / res
    dv = (v1 - v0) / res
    id_by_code = {a.code: a.id for a in raster.attractors}
    id_by_code[0] = "undecided"
    for i in range(res):
        row = raster.labels[i]
        j = 0
        while j < res:
            code = row[j]
            k = j
            while k < res and row[k] == code:
                k += 1
            color = BASIN_COLORS.get(id_by_code.get(int(code), "undecided"),
                                     "#eeeeee")
            cv.cell(u0 + j * du, v0 + i * dv, u0 + k * du, v0 + (i + 1) * dv,
                    color, cls=f"basin-{id_by_code.get(int(code), 'undecided')}")
            j = k
    if separatrix_polyline is not None and len(separatrix_polyline) > 1:
        cv.polyline(separatrix_polyline, PORTRAIT_COLORS["separatrix"], 2.0,
                    cls="separatrix")
    for a in raster.attractors:
        if a.location is not None:
            cv.circle(a.location[0], a.location[1], 4.0, "#000000",
                      cls=f"attractor-{a.id}")
    cv.frame()
    return cv.tostring()


def render_bifurcation(diagram: BifurcationDiagram, region_grid,
                       comments=()) -> str:
    """(M, S) diagram: shaded region grid, loci polylines, BT marker.

    ``region_grid`` is a list of (m, s, RegionLabel) at the centers of a
    regular grid covering the window.
    """
    window = (diagram.m_window, diagram.s_window)
    cv = SvgCanvas(window, comments=comments)
    if region_grid:
        ms = sorted({m for m, _, _ in region_grid})
        ss = sorted({s for _, s, _ in region_grid})
        dm = ms[1] - ms[0] if len(ms) > 1 else diagram.m_window[1] - diagram.m_window[0]
        ds = ss[1] - ss[0] if len(ss) > 1 else diagram.s_window[1] - diagram.s_window[0]
        for m, s, label in region_grid:
            cv.cell(m - dm / 2, s - ds / 2, m + dm / 2, s + ds / 2,
                    REGION_COLORS[label], cls=f"region-{label.value}")
    for m_star in diagram.sn:
        cv.polyline([(m_star, diagram.s_window[0]),
                     (m_star, diagram.s_window[1])], "#000000", 1.5,
                    cls="sn-locus", dash="6,3")
    if len(diagram.hopf) > 1:
        cv.polyline(diagram.hopf, "#000000", 1.5, cls="hopf-locus")
    hom_pts = [(m, s) for m, s in diagram.hom if s is not None]
    if len(hom_pts) > 1:
        cv.polyline(hom_pts, "#000000", 1.5, cls="hom-locus", dash="2,3")
    if diagram.bt is not None:
        m_bt, s_bt = diagram.bt
        if (diagram.m_window[0] <= m_bt <= diagram.m_window[1]
                and diagram.s_window[0] <= s_bt <= diagram.s_window[1]):
            cv.circle(m_bt, s_bt, 5.0, "#000000", cls="bt-point")
            cv.text(m_bt, s_bt + 0.04 * (diagram.s_window[1]
                                         - diagram.s_window[0]), "BT")
    cv.frame()
    return cv.tostring()
