"""Minimal SVG rendering of curved polygons and triangulations.

Display only: curves are sampled as 64-point polylines per span and never
feed back into any computation.
"""

from __future__ import annotations

SAMPLES_PER_SPAN = 64
WIDTH = 640  # of the drawing, in pixels


def _path(poly) -> str:
    pts = poly.boundary_points(SAMPLES_PER_SPAN)
    return "M " + " L ".join(f"{x:.5f} {y:.5f}" for x, y in pts) + " Z"


def render_svg(layers) -> str:
    """Render [(polygons, stroke, fill), ...] layers into an SVG document."""
    xs, ys = [], []
    for polys, _stroke, _fill in layers:
        for p in polys:
            box = p.bbox()
            xs += [box.xmin, box.xmax]
            ys += [box.ymin, box.ymax]
    if not xs:
        return "<svg xmlns='http://www.w3.org/2000/svg'/>\n"
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    pad = 0.05 * max(x1 - x0, y1 - y0, 1e-9)
    x0, x1, y0, y1 = x0 - pad, x1 + pad, y0 - pad, y1 + pad
    scale = WIDTH / (x1 - x0)
    height = int(round((y1 - y0) * scale))
    out = [f"<svg xmlns='http://www.w3.org/2000/svg' width='{WIDTH}' "
           f"height='{height}' viewBox='{x0:.5f} {-y1:.5f} "
           f"{x1 - x0:.5f} {y1 - y0:.5f}'>",
           f"<g transform='scale(1,-1)' stroke-width='{1.5 / scale:.6f}'>"]
    for polys, stroke, fill in layers:
        for p in polys:
            out.append(f"<path d='{_path(p)}' stroke='{stroke}' "
                       f"fill='{fill}' fill-opacity='0.35'/>")
    out.append("</g></svg>")
    return "\n".join(out) + "\n"


def render_clip_svg(subject, clip, loops) -> str:
    """Worked-example style figure: subject black, clip red, result blue."""
    return render_svg([([subject], "black", "none"),
                       ([clip], "red", "none"),
                       (loops, "blue", "#9999ff")])


def render_triangulation_svg(loops, triangles) -> str:
    """Clipped loops blue, the fan triangles that tile them green."""
    return render_svg([(loops, "blue", "none"),
                       (triangles, "green", "none")])
