"""HSL-like bicone coordinates on the color subspace.

Eight probe colors anchor the geometry: black and white span the
achromatic axis, and six fully saturated mid-lightness hues form a
polygon around it. Lightness is the position along the axis, hue is the
position along the anchor polygon, and saturation is the chroma radius
relative to the polygon, shrunk toward the black and white apexes by the
bicone factor 1 - |2l - 1|.

Hue runs along the polygon itself: within a segment the decoded hue is
the chord parameter of the ray through the query's chroma vector, scaled
between the segment's anchor hues. That makes encode piecewise linear in
hue and decode its exact inverse everywhere in the interior.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import tensorio
from .colorspace import HslColor, _dot3, _from_planes, canonical_hsl
from .subspace import SubspaceModel, project

__all__ = [
    "HUE_LABELS",
    "HUE_DEGREES",
    "AnchorSet",
    "build_anchors",
    "regular_anchors",
    "decode",
    "decode_raw",
    "encode",
]

HUE_LABELS = ("red", "yellow", "green", "cyan", "blue", "magenta")
HUE_DEGREES = (0.0, 60.0, 120.0, 180.0, 240.0, 300.0)
_NEXT_ANCHOR = np.array([1, 2, 3, 4, 5, 0])
ANCHOR_LABELS = HUE_LABELS + ("black", "white")

# decode conventions for degenerate regions
_MIN_BICONE = 1e-6   # below this 1 - |2l - 1| the point is treated as achromatic
_MIN_CHROMA = 1e-9   # below this chroma norm the hue defaults to 0


@dataclass(frozen=True)
class AnchorSet(tensorio.JsonRecord):
    """Projected anchor geometry with its derived achromatic frame.

    hue_anchors: (6, 3) subspace coordinates ordered red, yellow, green,
    cyan, blue, magenta (increasing hue angle), at the hues HUE_DEGREES.
    e1 points along the red anchor's chroma direction and e2 completes the
    chroma plane with yellow at a positive angle. chroma_points are the
    (6, 2) anchor positions in that plane.
    """

    hue_anchors: np.ndarray
    black: np.ndarray
    white: np.ndarray
    axis: np.ndarray
    unit_axis: np.ndarray
    e1: np.ndarray
    e2: np.ndarray
    chroma_points: np.ndarray
    chroma_angles: np.ndarray

    def to_json_dict(self) -> dict:
        return {
            "hue_anchors": [
                {"label": lbl, "theta": th, "coords": coords}
                for lbl, th, coords in zip(HUE_LABELS, HUE_DEGREES, self.hue_anchors.tolist())
            ],
            "black": self.black.tolist(),
            "white": self.white.tolist(),
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "AnchorSet":
        labels = [e["label"] for e in obj["hue_anchors"]]
        unknown = [l for l in labels if l not in HUE_LABELS]
        if unknown:
            raise ValueError(f"unknown hue labels: {unknown}")
        repeated = sorted(l for l, n in Counter(labels).items() if n > 1)
        if repeated:
            raise ValueError(f"hue labels listed more than once: {repeated}")
        missing = [l for l in HUE_LABELS if l not in labels]
        if missing:
            raise ValueError(f"anchor file missing hue labels: {missing}")
        entries = [obj["hue_anchors"][labels.index(l)] for l in HUE_LABELS]
        thetas = tensorio.float_array([e["theta"] for e in entries], (6,)).tolist()
        if thetas != list(HUE_DEGREES):  # each label's hue is fixed; a file cannot move it
            raise ValueError(f"hue anchor thetas must be {list(HUE_DEGREES)}, got {thetas}")
        hue = tensorio.float_array([e["coords"] for e in entries], (6, 3))
        return _assemble(hue, tensorio.float_array(obj["black"], (3,)), tensorio.float_array(obj["white"], (3,)))


def _rowdots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # row by row dot products: a stack of (1, n) @ (n, 1) runs 1-D `@`'s dot loop per row, so no bit moves
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _assemble(hue: np.ndarray, black: np.ndarray, white: np.ndarray) -> AnchorSet:
    """Derive the achromatic frame from (6, 3) hue anchors and (3,) black and white points, and validate it."""
    axis = white - black
    norm_axis = float(np.linalg.norm(axis))
    if norm_axis < 1e-9:
        raise ValueError("black and white probes coincide; no achromatic axis")
    unit_axis = axis / norm_axis

    rel = hue - black
    chroma = rel - _rowdots(rel, unit_axis)[:, None] * unit_axis
    norms = np.sqrt(_rowdots(chroma, chroma))
    degenerate = np.flatnonzero(norms < 1e-9)
    if degenerate.size:
        raise ValueError(f"degenerate anchor: {HUE_LABELS[degenerate[0]]} probe has no chroma")
    e1 = chroma[0] / norms[0]
    (u0, u1, u2), (f0, f1, f2) = unit_axis.tolist(), e1.tolist()
    e2 = np.array([u1 * f2 - u2 * f1, u2 * f0 - u0 * f2, u0 * f1 - u1 * f0])  # np.cross(unit_axis, e1)
    if float(chroma[1] @ e2) < 0:
        e2 = -e2
    pts = _rowdots(chroma[:, None], np.array([e1, e2]))
    # consecutive anchors must turn counterclockwise around the axis ...
    nxt = pts[_NEXT_ANCHOR]
    if (pts[:, 0] * nxt[:, 1] - pts[:, 1] * nxt[:, 0] <= 0).any():
        raise ValueError("hue anchors are not in strict counterclockwise order")
    angles = np.arctan2(pts[:, 1], pts[:, 0]) % (2.0 * math.pi)
    # e1 is the red chroma direction, so red sits at angle 0 exactly; its
    # computed angle can round to 2 pi when pts[0, 1] is a tiny negative
    angles[0] = 0.0
    # ... and go round it once, or hue lookup by angle has no meaning
    if not ((np.diff(angles) > 0.0).all() and angles[5] < 2.0 * math.pi):
        raise ValueError("hue anchors wind around the achromatic axis more than once")

    return AnchorSet(
        hue_anchors=hue,
        black=black,
        white=white,
        axis=axis,
        unit_axis=unit_axis,
        e1=e1,
        e2=e2,
        chroma_points=pts,
        chroma_angles=angles,
    )


def regular_anchors(axis_length: float, chroma_radius: float) -> AnchorSet:
    """Ideal anchor set: axis along the first coordinate, regular hexagon
    of hue anchors at mid lightness in the remaining two coordinates."""
    if axis_length <= 0 or chroma_radius <= 0:
        raise ValueError("axis length and chroma radius must be positive")
    black = np.zeros(3)
    white = np.array([axis_length, 0.0, 0.0])
    hue = np.array(
        [
            [
                axis_length / 2.0,
                chroma_radius * math.cos(math.radians(th)),
                chroma_radius * math.sin(math.radians(th)),
            ]
            for th in HUE_DEGREES
        ]
    )
    return _assemble(hue, black, white)


def build_anchors(probe_latents: Mapping[str, np.ndarray], model: SubspaceModel) -> AnchorSet:
    """Project the eight labeled probe latents and assemble the anchor set.

    probe_latents maps each of red, yellow, green, cyan, blue, magenta,
    black, white to a d-dimensional latent vector. Input order is
    irrelevant; anchors are stored by increasing assigned hue.
    """
    missing = [l for l in ANCHOR_LABELS if l not in probe_latents]
    if missing:
        raise ValueError(f"missing probe labels: {missing}")
    extra = [l for l in probe_latents if l not in ANCHOR_LABELS]
    if extra:
        raise ValueError(f"unknown probe labels: {sorted(extra)}")
    proj = {l: project(np.asarray(probe_latents[l], dtype=np.float64), model) for l in ANCHOR_LABELS}
    if any(v.shape != (3,) for v in proj.values()):
        raise ValueError(f"expected one (d,) latent per probe label, got shapes {[v.shape for v in proj.values()]}")
    hue = np.array([proj[l] for l in HUE_LABELS], dtype=np.float64)
    return _assemble(hue, proj["black"], proj["white"])


def _rows(x: np.ndarray, what: str) -> np.ndarray:
    if x.ndim not in (1, 2) or x.shape[-1] != 3:
        raise ValueError(f"expected a 3-vector or an (n, 3) block of {what}, got shape {x.shape}")
    return x.reshape(-1, 3)


def decode_raw(c: np.ndarray, anchors: AnchorSet) -> np.ndarray:
    """Decode subspace coordinates to (hue, saturation, lightness), unclamped.

    c is one 3-vector or an (n, 3) block; the result has the same shape,
    one (h, s, l) per row. Lightness is the projection onto the
    achromatic axis and may leave [0, 1] for points beyond the apexes;
    saturation likewise may exceed 1 outside the bicone. Hue defaults to
    0 for near-zero chroma, and saturation to 0 where the bicone factor
    vanishes.

    A chroma point's segment is the half-open angle interval
    [theta_k, theta_k+1) that holds its angle, the wrap segment covering
    magenta back to red. Its chord parameter alpha is the position along
    the straight line between the segment's two anchor points where the
    ray from the origin through the point crosses it.
    """
    c = np.asarray(c, dtype=np.float64)
    return _from_planes(_decode_planes(_rows(c, "subspace coordinates").T, anchors)).reshape(c.shape)


def _decode_planes(c: np.ndarray, anchors: AnchorSet) -> np.ndarray:
    """decode_raw on (3, n) planes (any layout) of subspace coordinates: (3, n) planes of (h, s, l), h in [0, 360)."""
    a = anchors
    rel = np.subtract(c, a.black[:, None], order="C")  # contiguous planes, as a transposed (n, 3) block is not
    l = _dot3(rel, a.axis)
    l /= float(a.axis @ a.axis)
    rel -= l * a.axis[:, None]  # now the chroma part
    q0 = _dot3(rel, a.e1)
    q1 = _dot3(rel, a.e2)
    # hypot (67 us at n = 4096), as the reference takes it: sqrt(q0 q0 + q1 q1) (14 us), the scaled form
    # (29 us) and abs(q0 + 1j q1) (24 us) are faster but differed from it on 17 to 35 % of the entries
    radius = np.hypot(q0, q1)
    chromatic = ~(radius < _MIN_CHROMA)

    ang = np.arctan2(q1, q0)
    ang += (2.0 * math.pi) * (ang < 0.0)  # what % 2 pi gives on atan2's range, bit for bit
    k = np.zeros(ang.shape, dtype=np.int8)  # segment: how many of angles 1..5 ang has passed
    for edge in a.chroma_angles[1:]:
        k += (ang >= edge).view(np.int8)
    k = k.astype(np.intp)
    # one coordinate at a time: gathering (x, y) rows costs several times more; the next
    # anchor's coordinates come from the rotated table, not by a second gather through k + 1
    x, y = a.chroma_points[:, 0], a.chroma_points[:, 1]
    kx, ky, jx, jy = x.take(k), y.take(k), x[_NEXT_ANCHOR].take(k), y[_NEXT_ANCHOR].take(k)
    cross_k, cross_j = kx * q1, jx * q1  # kx q1 - ky q0 and jx q1 - jy q0
    cross_k -= np.multiply(ky, q0, out=ang)
    cross_j -= np.multiply(jy, q0, out=ang)
    denom = np.subtract(cross_k, cross_j, out=cross_j)
    if np.any(chromatic & (denom <= 0)):
        raise ValueError("anchor polygon does not enclose the chroma direction")
    bicone = l * 2.0  # 1 - |2l - 1|
    bicone -= 1.0
    np.subtract(1.0, np.abs(bicone, out=bicone), out=bicone)
    with np.errstate(divide="ignore", invalid="ignore"):  # achromatic rows are replaced below
        alpha = np.minimum(np.maximum(np.divide(cross_k, denom, out=cross_k), 0.0, out=cross_k), 1.0, out=cross_k)
        h = k * 60.0  # 60 k + 60 alpha, in [0, 360]; hue 360 is 0
        h += np.multiply(alpha, 60.0, out=denom)
        for nxt, cur in ((jx, kx), (jy, ky)):  # the chord point k + alpha (j - k), one coordinate at a time
            nxt -= cur
            nxt *= alpha
            nxt += cur
        chord = np.hypot(jx, jy, out=jx)
        chord *= bicone
        s = np.divide(radius, chord, out=radius)  # radius / (chord bicone)
    hsl = np.zeros((3, len(l)))
    np.copyto(hsl[0], h, where=chromatic & (h < 360.0))
    np.copyto(hsl[1], s, where=chromatic & ~(bicone < _MIN_BICONE))
    hsl[2] = l
    return hsl


def decode(c: np.ndarray, anchors: AnchorSet):
    """Decode subspace coordinates, wrapping hue and clamping s and l to [0, 1].

    One 3-vector gives an HslColor; an (n, 3) block gives an (n, 3) array
    of the same canonical (h, s, l) values.
    """
    hsl = canonical_hsl(decode_raw(c, anchors))
    return HslColor(*hsl.tolist()) if hsl.ndim == 1 else hsl


def encode(y, anchors: AnchorSet) -> np.ndarray:
    """Map colors to subspace coordinates; exact inverse of decode.

    y is an HslColor, giving a 3-vector, or an (n, 3) array of (h, s, l)
    rows, giving an (n, 3) block. Hue wraps mod 360; s and l are used as
    given. The chroma direction and radius come from the anchor polygon
    point at the hue's chord parameter, scaled by saturation and the
    bicone factor.
    """
    hsl = np.array([y.h, y.s, y.l]) if isinstance(y, HslColor) else np.asarray(y, dtype=np.float64)
    rows = _rows(hsl, "(h, s, l) colors")
    h = rows[:, 0] % 360.0
    if not np.all(np.isfinite(h)):
        raise ValueError("cannot encode a non-finite hue")
    k = np.minimum(h // 60.0, 5.0).astype(np.intp)
    alpha = (h - 60.0 * k) / 60.0
    pts = anchors.chroma_points
    chord = pts[k] + alpha[:, None] * (pts[(k + 1) % 6] - pts[k])
    l = rows[:, 2:]
    scale = rows[:, 1:2] * (1.0 - np.abs(2.0 * l - 1.0))
    chroma3 = scale * (chord[:, :1] * anchors.e1 + chord[:, 1:] * anchors.e2)
    return (anchors.black + l * anchors.axis + chroma3).reshape(hsl.shape)
