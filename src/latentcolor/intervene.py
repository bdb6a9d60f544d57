"""Color interventions on latents at an arbitrary flow timestep.

Two primitive edits act on normalized subspace coordinates of the masked
patches: a mean shift straight in coordinate space, and a per-patch edit
through decoded HSL values with a common hue rotation. A scheduled blend
of the two trades the first's exactness against the second's per-patch
saturation and lightness control as generation progresses.

The full pipeline is project, normalize to the final timestep, edit,
denormalize back, and inject, touching only the masked patches.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import tensorio
from .bicone import AnchorSet, decode, encode
from .colorspace import HslColor, canonical_hsl, circular_mean_hue, signed_hue_delta
from .subspace import SubspaceModel, project
from .timestats import StatsTable, denormalize, normalize

__all__ = [
    "Schedule",
    "PatchMask",
    "gamma",
    "type1",
    "type2",
    "interpolated",
    "apply_intervention",
    "load_mask",
]

MODES = ("type1", "type2", "interp")


@dataclass(frozen=True)
class Schedule:
    """Blend schedule over timesteps 0..T; only the linear ramp is defined."""

    T: int
    kind: str = "linear"

    def __post_init__(self) -> None:
        if self.T < 1:
            raise ValueError(f"schedule needs T >= 1, got {self.T}")
        if self.kind != "linear":
            raise ValueError(f"unknown schedule kind {self.kind!r}")


def gamma(t: int, sched: Schedule) -> float:
    """Blend weight of the mean-shift edit: 1 at t = 0, 0 at t = T."""
    if not 0 <= t <= sched.T:
        raise ValueError(f"timestep {t} outside schedule range 0..{sched.T}")
    return 1.0 - t / sched.T


@dataclass(frozen=True)
class PatchMask:
    """Selected patch indices of an L-patch tensor."""

    L: int
    selected: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if self.L < 1:
            raise ValueError("mask needs L >= 1")
        sel = frozenset(int(i) for i in self.selected)
        if any(i < 0 or i >= self.L for i in sel):
            raise ValueError(f"mask indices out of range for L = {self.L}")
        object.__setattr__(self, "selected", sel)

    @classmethod
    def full(cls, L: int) -> "PatchMask":
        return cls(L=L, selected=frozenset(range(L)))

    @property
    def indices(self) -> np.ndarray:
        return np.array(sorted(self.selected), dtype=np.intp)

    def to_json_dict(self) -> dict:
        return {"L": self.L, "selected": sorted(self.selected)}

    def save(self, path) -> None:
        tensorio.write_json(path, self.to_json_dict())


def _mask_from_pgm(raw: bytes, path) -> PatchMask:
    # binary PGM: magic, whitespace-separated header tokens, one raster
    if not raw.startswith(b"P5"):
        raise ValueError(f"{path}: not a binary PGM file")
    tokens: list[int] = []
    i = 2
    while len(tokens) < 3:
        if i >= len(raw):
            raise ValueError(f"{path}: truncated PGM header")
        c = raw[i:i + 1]
        if c == b"#":
            while i < len(raw) and raw[i:i + 1] != b"\n":
                i += 1
        elif c.isspace():
            i += 1
        elif c.isdigit():
            j = i
            while j < len(raw) and raw[j:j + 1].isdigit():
                j += 1
            tokens.append(int(raw[i:j]))
            i = j
        else:
            raise ValueError(f"{path}: malformed PGM header")
    i += 1  # single whitespace byte separates header from raster
    w, h, maxval = tokens
    if w < 1 or h < 1 or not 0 < maxval < 65536:
        raise ValueError(f"{path}: bad PGM dimensions {w}x{h} maxval {maxval}")
    bpp = 1 if maxval < 256 else 2
    data = raw[i:]
    if len(data) != w * h * bpp:
        raise ValueError(f"{path}: expected {w * h * bpp} raster bytes, found {len(data)}")
    px = np.frombuffer(data, dtype=">u2" if bpp == 2 else "u1")
    return PatchMask(L=w * h, selected=frozenset(np.flatnonzero(px).tolist()))


def load_mask(path) -> PatchMask:
    """Load a mask from JSON ({"L", "selected"}) or binary PGM (nonzero = selected)."""
    with open(path, "rb") as f:
        raw = f.read()
    if raw.startswith(b"P5"):
        return _mask_from_pgm(raw, path)
    try:
        obj = json.loads(raw.decode("utf-8"))
        return PatchMask(L=int(obj["L"]), selected=frozenset(obj["selected"]))
    except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError) as e:
        raise ValueError(f"{path}: not a JSON or PGM mask: {e}") from e


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
    """Decode each patch, apply one common HSL shift, and re-encode.

    The hue shift is the minimal circular move from the patches' circular
    mean hue to the target hue; saturation and lightness shifts are
    arithmetic, with each patch clamped to [0, 1] after shifting.
    """
    decoded = decode(_check_block(coords), anchors)
    h, s, l = decoded.T
    dh = signed_hue_delta(target.h, circular_mean_hue(h.tolist()))
    ds = target.s - float(np.mean(s))
    dl = target.l - float(np.mean(l))
    return encode(canonical_hsl(decoded + np.array([dh, ds, dl])), anchors)


def interpolated(
    coords: np.ndarray,
    target: HslColor,
    anchors: AnchorSet,
    t: int,
    sched: Schedule,
) -> np.ndarray:
    """Blend the two edits with weight gamma(t) on the mean shift.

    At the endpoints the pure edit is returned unchanged, so gamma 1 and
    gamma 0 match type1 and type2 bit for bit.
    """
    g = gamma(t, sched)
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
    sched: Schedule | None = None,
    mode: str = "interp",
) -> np.ndarray:
    """Steer the masked patches of z toward the target color at timestep t.

    Unmasked patches are returned bitwise unchanged, and the orthogonal
    complement of every patch is preserved. mask = None edits all patches.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2:
        raise ValueError(f"expected an (L, d) latent tensor, got shape {z.shape}")
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    if mask is None:
        mask = PatchMask.full(z.shape[0])
    if mask.L != z.shape[0]:
        raise ValueError(f"mask is for L = {mask.L} patches, tensor has {z.shape[0]}")
    if not mask.selected:
        raise ValueError("empty mask: nothing to intervene on")
    if sched is None:
        sched = Schedule(T=stats.T)

    rows = mask.indices
    sub = project(z[rows], model)
    hat = normalize(sub, t, stats)
    if mode == "type1":
        edited = type1(hat, target, anchors)
    elif mode == "type2":
        edited = type2(hat, target, anchors)
    else:
        edited = interpolated(hat, target, anchors, t, sched)
    new_coords = denormalize(edited, t, stats)

    out = z.copy()
    out[rows] = z[rows] + (new_coords - sub) @ model.basis.T
    return out
