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
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import tensorio
from .colorspace import HslColor, canonical_hsl
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
_THETA_EDGES = np.array(HUE_DEGREES + (360.0,))  # hue at both ends of each segment
ANCHOR_LABELS = HUE_LABELS + ("black", "white")

# decode conventions for degenerate regions
_MIN_BICONE = 1e-6   # below this 1 - |2l - 1| the point is treated as achromatic
_MIN_CHROMA = 1e-9   # below this chroma norm the hue defaults to 0


@dataclass(frozen=True)
class AnchorSet:
    """Projected anchor geometry with its derived achromatic frame.

    hue_anchors: (6, 3) subspace coordinates ordered red, yellow, green,
    cyan, blue, magenta (increasing hue angle). thetas holds the assigned
    hue of each anchor in degrees. e1 points along the red anchor's chroma
    direction and e2 completes the chroma plane with yellow at a positive
    angle. chroma_points are the (6, 2) anchor positions in that plane.
    """

    hue_anchors: np.ndarray
    thetas: tuple[float, ...]
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
                {"label": lbl, "theta": th, "coords": self.hue_anchors[i].tolist()}
                for i, (lbl, th) in enumerate(zip(HUE_LABELS, self.thetas))
            ],
            "black": self.black.tolist(),
            "white": self.white.tolist(),
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "AnchorSet":
        entries = {e["label"]: e for e in obj["hue_anchors"]}
        missing = [l for l in HUE_LABELS if l not in entries]
        if missing:
            raise ValueError(f"anchor file missing hue labels: {missing}")
        hue = np.array([entries[l]["coords"] for l in HUE_LABELS], dtype=np.float64)
        return _assemble(
            hue,
            np.asarray(obj["black"], dtype=np.float64),
            np.asarray(obj["white"], dtype=np.float64),
        )

    def save(self, path) -> None:
        tensorio.write_json(path, self.to_json_dict())

    @classmethod
    def load(cls, path) -> "AnchorSet":
        return cls.from_json_dict(tensorio.read_json(path))


def _assemble(hue: np.ndarray, black: np.ndarray, white: np.ndarray) -> AnchorSet:
    """Derive the achromatic frame and validate the anchor geometry."""
    axis = white - black
    norm_axis = float(np.linalg.norm(axis))
    if norm_axis < 1e-9:
        raise ValueError("black and white probes coincide; no achromatic axis")
    unit_axis = axis / norm_axis

    def chroma_vec(p: np.ndarray) -> np.ndarray:
        rel = p - black
        return rel - (rel @ unit_axis) * unit_axis

    red_chroma = chroma_vec(hue[0])
    norm_red = float(np.linalg.norm(red_chroma))
    if norm_red < 1e-9:
        raise ValueError("degenerate anchor: red probe has no chroma")
    e1 = red_chroma / norm_red
    e2 = np.cross(unit_axis, e1)
    yellow = chroma_vec(hue[1])
    if float(yellow @ e2) < 0:
        e2 = -e2

    pts = np.empty((6, 2), dtype=np.float64)
    for i in range(6):
        v = chroma_vec(hue[i])
        if float(np.linalg.norm(v)) < 1e-9:
            raise ValueError(f"degenerate anchor: {HUE_LABELS[i]} probe has no chroma")
        pts[i] = (v @ e1, v @ e2)
    # consecutive anchors must turn counterclockwise around the axis ...
    nxt = np.roll(pts, -1, axis=0)
    if np.any(pts[:, 0] * nxt[:, 1] - pts[:, 1] * nxt[:, 0] <= 0):
        raise ValueError("hue anchors are not in strict counterclockwise order")
    angles = np.arctan2(pts[:, 1], pts[:, 0]) % (2.0 * math.pi)
    # e1 is the red chroma direction, so red sits at angle 0 exactly; its
    # computed angle can round to 2 pi when pts[0, 1] is a tiny negative
    angles[0] = 0.0
    # ... and go round it once, or hue lookup by angle has no meaning
    if not (np.all(np.diff(angles) > 0.0) and angles[5] < 2.0 * math.pi):
        raise ValueError("hue anchors wind around the achromatic axis more than once")

    return AnchorSet(
        hue_anchors=hue,
        thetas=HUE_DEGREES,
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
    hue = np.array([proj[l] for l in HUE_LABELS], dtype=np.float64)
    return _assemble(hue, proj["black"], proj["white"])


def _dot3(rows: np.ndarray, v: np.ndarray) -> np.ndarray:
    # written out so that a row's result does not depend on the batch size
    return rows[:, 0] * v[0] + rows[:, 1] * v[1] + rows[:, 2] * v[2]


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
    a = anchors
    rel = _rows(c, "subspace coordinates") - a.black
    l = _dot3(rel, a.axis) / float(a.axis @ a.axis)
    chroma3 = rel - l[:, None] * a.axis
    q0 = _dot3(chroma3, a.e1)
    q1 = _dot3(chroma3, a.e2)
    radius = np.hypot(q0, q1)
    chromatic = ~(radius < _MIN_CHROMA)

    ang = np.arctan2(q1, q0) % (2.0 * math.pi)
    k = np.searchsorted(a.chroma_angles, ang, side="right") - 1
    j = (k + 1) % 6
    pts = a.chroma_points
    cross_k = pts[k, 0] * q1 - pts[k, 1] * q0
    cross_j = pts[j, 0] * q1 - pts[j, 1] * q0
    denom = cross_k - cross_j
    if np.any(chromatic & (denom <= 0)):
        raise ValueError("anchor polygon does not enclose the chroma direction")
    bicone = 1.0 - np.abs(2.0 * l - 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):  # achromatic rows are replaced below
        alpha = np.minimum(np.maximum(cross_k / denom, 0.0), 1.0)
        h = (_THETA_EDGES[k] + alpha * (_THETA_EDGES[k + 1] - _THETA_EDGES[k])) % 360.0
        chord = pts[k] + alpha[:, None] * (pts[j] - pts[k])
        s = radius / (np.hypot(chord[:, 0], chord[:, 1]) * bicone)
    s = np.where(bicone < _MIN_BICONE, 0.0, s)
    hsl = np.stack([np.where(chromatic, h, 0.0), np.where(chromatic, s, 0.0), l], axis=1)
    return hsl.reshape(c.shape)


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
    alpha = (h - _THETA_EDGES[k]) / 60.0
    pts = anchors.chroma_points
    chord = pts[k] + alpha[:, None] * (pts[(k + 1) % 6] - pts[k])
    l = rows[:, 2:]
    scale = rows[:, 1:2] * (1.0 - np.abs(2.0 * l - 1.0))
    chroma3 = scale * (chord[:, :1] * anchors.e1 + chord[:, 1:] * anchors.e2)
    return (anchors.black + l * anchors.axis + chroma3).reshape(hsl.shape)
