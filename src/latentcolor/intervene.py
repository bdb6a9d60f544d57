"""Color interventions on latents at an arbitrary flow timestep.

Two primitive edits act on normalized subspace coordinates of the masked
patches: a mean shift straight in coordinate space, and a per-patch edit
through decoded HSL values with a common hue rotation. A scheduled blend
of the two trades the first's exactness against the second's per-patch
saturation and lightness control as generation progresses.

The full pipeline charts the masked patches at the final timestep (project
and normalize in one affine map), edits them, and writes the change back
through the chart's inverse; the intervene report decodes the same blocks.
"""

from __future__ import annotations

import re
from collections import Counter

import numpy as np

from . import tensorio
from .bicone import AnchorSet, decode_raw, encode
from .colorspace import HslColor, circular_mean_hue, signed_hue_delta
from .subspace import SubspaceModel
from .timestats import StatsTable, _chart

__all__ = [
    "PatchMask",
    "type1",
    "type2",
    "interpolated",
    "apply_intervention",
]

MODES = ("type1", "type2", "interp")


class PatchMask(tensorio.JsonRecord):
    """Selected patch indices of an L-patch tensor; indices is their sorted, read-only array."""

    __slots__ = ("L", "selected", "_indices")

    def __init__(self, L: int, selected=frozenset()) -> None:
        selected = selected if type(selected) is frozenset else tuple(selected)  # read once: it may be an iterator
        types = {type(L), *map(type, selected)}
        # int() below would truncate 2.7 to 2 and read True as 1; bool is neither int nor a numpy integer
        if not all(k is int or issubclass(k, np.integer) for k in types):
            raise ValueError("mask L and selected indices must be integers")
        if L < 1:
            raise ValueError("mask needs L >= 1")
        sel = frozenset(selected if types == {int} else map(int, selected))  # a frozenset comes back as itself
        order = sorted(sel)
        if order and (order[0] < 0 or order[-1] >= L):
            raise ValueError(f"mask indices out of range for L = {L}")
        self.L, self.selected = int(L), sel  # a numpy integer would not serialize
        self._indices = np.fromiter(order, np.intp, len(order))
        self._indices.flags.writeable = False

    def __eq__(self, other):
        return (self.L, self.selected) == (other.L, other.selected) if type(other) is PatchMask else NotImplemented

    @classmethod
    def full(cls, L: int) -> "PatchMask":
        return cls(L, frozenset(range(L)))

    @property
    def indices(self) -> np.ndarray:
        return self._indices

    def to_json_dict(self) -> dict:
        return {"L": self.L, "selected": self._indices.tolist()}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "PatchMask":
        selected = list(obj["selected"])
        mask = cls(obj["L"], selected)
        if len(mask.selected) != len(selected):  # the set hides a repeat
            repeated = sorted(i for i, n in Counter(selected).items() if n > 1)
            raise ValueError(f"mask lists patch indices more than once: {repeated}")
        return mask

    @classmethod
    def load(cls, path) -> "PatchMask":
        """Load a mask from JSON ({"L", "selected"}) or binary PGM (nonzero = selected)."""
        return tensorio._read(path, lambda raw: _mask_from_pgm(raw) if raw[:2] == b"P5" else
                              tensorio._record(raw, cls.from_json_dict, "PatchMask"))


_SEP = rb"(?:\s|#[^\n]*\n)"  # a whitespace byte, or a comment through its newline
# binary PGM: magic, width, height and maxval as separated decimal tokens, then one whitespace byte before the raster
_PGM_HEADER = re.compile(rb"P5" + _SEP + rb"+(\d+)" + _SEP + rb"+(\d+)" + _SEP + rb"+(\d+)\s")


def _mask_from_pgm(raw: bytes) -> PatchMask:
    header = _PGM_HEADER.match(raw)
    if header is None:
        raise ValueError("malformed or truncated PGM header")
    w, h, maxval = map(int, header.groups())
    if w < 1 or h < 1 or not 0 < maxval < 65536:
        raise ValueError(f"bad PGM dimensions {w}x{h} maxval {maxval}")
    bpp = 1 if maxval < 256 else 2
    data = raw[header.end():]
    if len(data) != w * h * bpp:
        raise ValueError(f"expected {w * h * bpp} raster bytes, found {len(data)}")
    px = np.frombuffer(data, dtype=">u2" if bpp == 2 else "u1")
    return PatchMask(L=w * h, selected=frozenset(np.flatnonzero(px).tolist()))


# ---------------------------------------------------------------------------
# Primitive edits on normalized coordinate blocks
# ---------------------------------------------------------------------------

def _check_block(coords: np.ndarray) -> np.ndarray:
    coords = np.asarray(coords, dtype=np.float64)
    if coords.ndim != 2 or coords.shape[1] != 3 or coords.shape[0] < 1:
        raise ValueError(f"expected a nonempty (n, 3) coordinate block, got shape {coords.shape}")
    return coords


def type1(coords: np.ndarray, target: HslColor, anchors: AnchorSet) -> np.ndarray:
    """Shift all patches so their mean lands exactly on the encoded target."""
    coords = _check_block(coords)
    return coords + (encode(target, anchors) - coords.mean(axis=0))


def type2(coords: np.ndarray, target: HslColor, anchors: AnchorSet) -> np.ndarray:
    """Decode each patch unclamped, apply one common HSL shift, and re-encode.

    The hue shift is the minimal circular move from the patches' circular
    mean hue to the target hue, each patch's hue weighted by its relative
    chroma s (1 - |2l - 1|): greys and apex patches weigh 0, and a block
    with no chromatic patch rotates from hue 0. Saturation and lightness
    shifts are arithmetic, on the raw s and l, which encode inverts as they
    are, in [0, 1] or not. So a zero shift returns every patch whose bicone
    factor 1 - |2l - 1| is at least 1e-6; at and beyond the apexes
    decode_raw reads s as 0, and those patches move onto the axis.
    """
    raw = decode_raw(_check_block(coords), anchors)
    h, s, l = raw.T
    dh = signed_hue_delta(target.h, circular_mean_hue(h, s * (1.0 - np.abs(2.0 * l - 1.0))))
    ds = target.s - float(np.mean(s))
    dl = target.l - float(np.mean(l))
    return encode(raw + np.array([dh, ds, dl]), anchors)


def interpolated(
    coords: np.ndarray,
    target: HslColor,
    anchors: AnchorSet,
    t: int,
    T: int,
) -> np.ndarray:
    """Blend the two edits with weight g = 1 - t/T on the mean shift, over timesteps 0..T.

    At the endpoints the pure edit is returned unchanged, so g = 1 and
    g = 0 match type1 and type2 bit for bit.
    """
    if T < 1:
        raise ValueError(f"blend horizon needs T >= 1, got {T}")
    if not 0 <= t <= T:
        raise ValueError(f"timestep {t} outside blend range 0..{T}")
    g = 1.0 - t / T
    if g == 1.0:
        return type1(coords, target, anchors)
    if g == 0.0:
        return type2(coords, target, anchors)
    return g * type1(coords, target, anchors) + (1.0 - g) * type2(coords, target, anchors)


# ---------------------------------------------------------------------------
# Full pipeline on a latent tensor
# ---------------------------------------------------------------------------

def apply_intervention(
    z: np.ndarray,
    t: int,
    target: HslColor,
    mask: PatchMask | None,
    model: SubspaceModel,
    anchors: AnchorSet,
    stats: StatsTable,
    mode: str = "interp",
) -> np.ndarray:
    """Steer the masked patches of z toward the target color at timestep t.

    Unmasked patches are returned bitwise unchanged, and the orthogonal
    complement of every patch is preserved. mask = None edits all patches.
    Each mode is a position on the interpolated blend over the stats table's
    horizon 0..stats.T: type1 at 0, type2 at stats.T and interp at t.
    A float overflow or invalid value raises FloatingPointError.
    """
    with np.errstate(over="raise", invalid="raise"):
        return _intervene(z, t, target, mask, model, anchors, stats, mode)[0]


def _intervene(z, t, target, mask, model, anchors, stats, mode):
    """apply_intervention's output, with the masked rows' charted block before the edit and after it."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2:
        raise ValueError(f"expected an (L, d) latent tensor, got shape {z.shape}")
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    if mask is not None and mask.L != z.shape[0]:
        raise ValueError(f"mask is for L = {mask.L} patches, tensor has {z.shape[0]}")
    rows = None if mask is None or len(mask.selected) == mask.L else mask.indices  # a full mask's indices: arange(L)
    if (z.shape[0] if rows is None else rows.size) == 0:
        raise ValueError("empty mask: nothing to intervene on")

    # every row: z itself, in the layout z[rows] would have (so the same bits), with no gather and no scatter
    hat, gain = _chart(np.ascontiguousarray(z) if rows is None else z[rows], model, t, stats)
    edited = interpolated(hat, target, anchors, {"type1": 0, "type2": stats.T, "interp": t}[mode], stats.T)

    # the chart's inverse on the change: back to step t's scale, then into the d-dim latent space
    if rows is None:
        return z + ((edited - hat) / gain) @ model.basis.T, hat, edited
    out = z.copy()
    out[rows] = z[rows] + ((edited - hat) / gain) @ model.basis.T
    return out, hat, edited
