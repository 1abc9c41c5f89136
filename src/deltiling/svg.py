"""Hand-rolled SVG output for arrangements, prototile sheets and patches.

Polygons are printed CHUNK at a time, as patch export prints its
records: each distinct coordinate of a block is formatted once, and one
join over a gather of a token matrix (coordinates, separators and one
tail per fill) prints the block's <polygon> lines.  The coordinates are
formatted as `_fmt` (`floattext.fixed`) formats them, with `precision`
decimals and the trailing zeros stripped, by the numpy kernel that
prints patch shadows (`floattext.fixed_texts`); a value of magnitude
2**52 / 10**precision or more, a non-finite one and a precision outside
0..15 go through `_fmt` one value at a time.
"""

from __future__ import annotations

import cmath
import colorsys
import math

import numpy as np

from .arrangement import get_arrangement, deltoid_point
from .floattext import fixed as _fmt, fixed_texts
from .prototiles import prototile_catalog, undecorated_signature
from .substitution import Patch, prototile_ids


#: polygons per block of text that `Canvas.write` formats at a time
CHUNK = 2048


class Canvas:
    """Minimal SVG 1.1 writer (y axis flipped to mathematical).

    Each part is a line of SVG text or, from `polygons`, a float array of
    polygons with a table of fills, each polygon's index into it, and a
    style; `write` prints those CHUNK polygons at a time, one token
    gather per block (`_polygon_lines`)."""

    def __init__(self, precision=9):
        self.parts = []
        self.precision = precision
        self.min_x = self.min_y = float("inf")
        self.max_x = self.max_y = float("-inf")

    def _pt(self, z):
        self.min_x = min(self.min_x, z.real)
        self.max_x = max(self.max_x, z.real)
        self.min_y = min(self.min_y, -z.imag)
        self.max_y = max(self.max_y, -z.imag)
        return f"{_fmt(z.real, self.precision)},{_fmt(-z.imag, self.precision)}"

    def polygon(self, pts, fill="none", stroke="#000", width=0.01):
        self.polygons(np.array([pts], dtype=complex), [fill], stroke=stroke,
                      width=width)

    def polygons(self, pts, fills, which=None, stroke="#000", width=0.01):
        """One polygon per row of the complex array pts, kept as x, y
        floats until `write`; polygon k takes the fill fills[which[k]]
        (fills[0] when which is None)."""
        if not len(pts):
            return
        xy = np.stack([pts.real, -pts.imag], axis=-1).reshape(
            len(pts), 2 * pts.shape[1])
        x, y = xy[:, 0::2], xy[:, 1::2]
        self.min_x = min(self.min_x, x.min())
        self.max_x = max(self.max_x, x.max())
        self.min_y = min(self.min_y, y.min())
        self.max_y = max(self.max_y, y.max())
        if which is None:
            which = np.zeros(len(pts), dtype=np.int8)
        self.parts.append((xy, fills, which, stroke, _fmt(width)))

    def _polygon_lines(self, xy, fills, which, stroke, width):
        """The <polygon> lines of the rows of xy, polygon k filled with
        fills[which[k]].

        An m-gon is printed as 4 m + 1 tokens: the line's head, its 2 m
        coordinates with the "," or " " between them, and the tail of its
        fill.  Each distinct coordinate is formatted once, all of them by
        one numpy kernel (`floattext.fixed_texts`), and one join over a
        gather of the token matrix prints every line."""
        bits, index = np.unique(xy.view(np.int64), return_inverse=True)
        k = len(bits)
        vocab = (fixed_texts(bits.view(np.float64), self.precision)
                 + [b'<polygon points="', b",", b" "]
                 + [f'" fill="{fill}" stroke="{stroke}" '
                    f'stroke-width="{width}" stroke-linejoin="round"/>\n'
                    .encode() for fill in fills])
        tok = np.empty((len(xy), 2 * xy.shape[1] + 1), dtype=np.intp)
        tok[:, 0] = k
        tok[:, 1:-1:2] = index.reshape(xy.shape)
        tok[:, 2:-1:4] = k + 1
        tok[:, 4:-1:4] = k + 2
        tok[:, -1] = which
        tok[:, -1] += k + 3
        return b"".join(np.array(vocab, dtype=object)[tok.ravel()]
                        .tolist()).decode()

    def polyline(self, pts, stroke="#000", width=0.01):
        body = " ".join(self._pt(z) for z in pts)
        self.parts.append(f'<polyline points="{body}" fill="none" '
                          f'stroke="{stroke}" stroke-width="{_fmt(width)}" '
                          'stroke-linecap="round"/>')

    def line(self, a, b, stroke="#000", width=0.01):
        self.polyline([a, b], stroke, width)

    def text(self, z, s, size=0.2):
        p = self._pt(z)
        x, y = p.split(",")
        self.parts.append(f'<text x="{x}" y="{y}" font-size="{_fmt(size)}" '
                          'text-anchor="middle" font-family="sans-serif">'
                          f"{s}</text>")

    def write(self, path, margin=0.3):
        if not self.parts:
            self.min_x = self.min_y = 0.0
            self.max_x = self.max_y = 1.0
        x0, y0 = self.min_x - margin, self.min_y - margin
        w = self.max_x - self.min_x + 2 * margin
        h = self.max_y - self.min_y + 2 * margin
        head = ('<?xml version="1.0" encoding="UTF-8"?>\n'
                '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
                f'viewBox="{_fmt(x0)} {_fmt(y0)} {_fmt(w)} {_fmt(h)}" '
                'width="800" height="800">\n')
        with open(path, "w", newline="\n") as fh:
            fh.write(head)
            for part in self.parts:
                if isinstance(part, str):
                    fh.write(part + "\n")
                    continue
                xy, fills, which, stroke, width = part
                for a in range(0, len(xy), CHUNK):
                    fh.write(self._polygon_lines(xy[a:a + CHUNK], fills,
                                                 which[a:a + CHUNK], stroke,
                                                 width))
            fh.write("</svg>\n")


def _shape_palette(d):
    """One base color per undecorated shape; tints for the variants."""
    cat = prototile_catalog(d)
    shapes = sorted({undecorated_signature(p.signature)
                     for p in cat.prototiles})
    colors = {}
    n = len(shapes)
    for i, s in enumerate(shapes):
        r, g, b = colorsys.hls_to_rgb((i / n + 0.06) % 1.0, 0.72, 0.55)
        colors[s] = (r, g, b)
    out = {}
    for p in cat.prototiles:
        r, g, b = colors[undecorated_signature(p.signature)]
        if p.name.endswith("t"):  # mirror variant: darker tint
            r, g, b = r * 0.82, g * 0.82, b * 0.82
        out[p.name] = "#%02x%02x%02x" % (round(r * 255), round(g * 255),
                                         round(b * 255))
    return out


def _deltoid_points(steps=600):
    return [2 * cmath.exp(1j * t) + cmath.exp(-2j * t)
            for t in (2 * math.pi * k / steps for k in range(steps + 1))]


def render_arrangement(d, kappa, path, polygon=True, labels=False):
    """The deltoid, its tangent chords, and (even d) the inscribed q-gon."""
    arr = get_arrangement(d, kappa)
    cv = Canvas()
    cv.polyline(_deltoid_points(), stroke="#888", width=0.012)
    for i, seg in enumerate(arr.segments):
        a, b = seg.start.cvalue(), seg.end.cvalue()
        cv.line(a, b, stroke="#000", width=0.008)
        if labels:
            cv.text(a + (b - a) * 1.03, str(i), size=0.14)
    if polygon and d % 2 == 0:
        from .random import polygon_vertices
        pts = [z.cvalue() for z in polygon_vertices(d, kappa)]
        cv.polygon(pts, fill="none", stroke="#c00", width=0.02)
    cv.write(path)


def _decorations(d):
    """The float corners of each prototile's catalog face and of its
    inscribed triangle, (corners, inscribed) by prototile id, `cvalue`s
    read once."""
    return [([c.cvalue() for c in p.face.corners],
             [c.cvalue() for c in p.face.inscribed])
            for p in prototile_catalog(d).prototiles]


def _decoration_overlay(face, outline):
    """Float inscribed-triangle corners of a tile placed with the float
    outline, for face = (corners, inscribed) of its prototile."""
    rep, inscribed = face
    alpha = (outline[1] - outline[0]) / (rep[1] - rep[0])
    beta = outline[0] - alpha * rep[0]
    return [alpha * p + beta for p in inscribed]


def render_patch(patch: Patch, path, decorations=False, labels=False,
                 highlight_edges=(), stroke=0.008, precision=9):
    """A patch with per-shape fill colors.

    highlight_edges: iterable of float point pairs drawn with a thicker
    stroke (used to mark flip sites).
    """
    d = patch.d
    palette = _shape_palette(d)
    cv = Canvas(precision)
    outlines = patch.corner_values()
    names, _ = prototile_ids(d)
    ids = patch.columns[0]
    cv.polygons(outlines, [palette[n] for n in names], ids, stroke="#222",
                width=stroke)
    if decorations:
        faces = _decorations(d)
        inner = np.array([_decoration_overlay(faces[i], pts)
                          for i, pts in zip(ids.tolist(), outlines.tolist())],
                         dtype=complex)
        cv.polygons(inner, ["none"], stroke="#555", width=stroke * 0.7)
    if labels:
        for i, pts in zip(ids.tolist(), outlines.tolist()):
            cv.text(sum(pts) / 3, names[i], size=abs(pts[1] - pts[0]) * 0.25)
    for a, b in highlight_edges:
        cv.line(a, b, stroke="#c00", width=stroke * 4)
    cv.write(path)


def render_prototile_sheet(d, path, decorations=True, columns=8):
    """All prototiles of order d on a labelled grid sheet."""
    cat = prototile_catalog(d)
    cv = Canvas()
    palette = _shape_palette(d)
    cell = 5.0
    for i, p in enumerate(cat.prototiles):
        col, row = i % columns, i // columns
        rep = [c.cvalue() for c in p.face.corners]
        center = sum(rep) / 3
        shift = complex(col * cell, -row * cell) - center
        pts = [z + shift for z in rep]
        cv.polygon(pts, fill=palette[p.name], stroke="#222", width=0.02)
        if decorations:
            inner = [z.cvalue() + shift for z in p.face.inscribed]
            cv.polygon(inner, fill="none", stroke="#555", width=0.015)
        cv.text(sum(pts) / 3, p.name, size=0.5)
    cv.write(path, margin=2.0)
