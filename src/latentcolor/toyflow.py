"""A miniature flow model whose color geometry is known exactly.

Colors live on a hexagonal bicone in a hidden 3-space: lightness along
an achromatic axis, hue along the polygon through six unit directions,
saturation as the scaled chroma radius. A seeded orthonormal lift plants
that solid inside a d-dimensional latent space, so subspace discovery,
anchor decoding, statistics, and interventions can all be checked
against ground truth.

Generation walks the straight interpolation path from Gaussian noise to
an attractor: each Euler step covers 1/(T - k) of the remaining distance
toward the denoiser output, so the final step lands exactly. The
denoiser snaps a tensor to whichever attractor is nearest in aggregate
subspace-plane distance, which makes basin switching by mean-shift
interventions well defined.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .bicone import AnchorSet, HUE_DEGREES, HUE_LABELS, decode, encode, regular_anchors
from .colorspace import HslColor, hsv_to_hsl, parse_hex, rgb_to_hsl
from .observe import ColorGrid

__all__ = [
    "TIMESTEP_PALETTE",
    "ToyEmbedder",
    "ProbeSet",
    "AttractorField",
    "embed_hsl",
    "embed_image",
    "toy_decode",
    "make_probe_set",
    "solid_attractor",
    "initial_noise",
    "sample_path",
    "generate",
]

# Named colors for the timestep-statistics experiments: bright, light, and
# dark variants around the hue circle plus near-neutrals.
TIMESTEP_PALETTE: dict[str, str] = {
    "Bright red": "#D81511",
    "Light red": "#E7A0AD",
    "Dark red": "#78262F",
    "Bright orange": "#EA710B",
    "Light orange": "#F3C09C",
    "Dark orange": "#AA552F",
    "Bright yellow": "#F3DB1B",
    "Light yellow": "#ECD25B",
    "Dark yellow": "#D69613",
    "Bright green": "#26C812",
    "Light green": "#8DCF7A",
    "Dark green": "#1D4B32",
    "Bright blue": "#0FB3DF",
    "Light blue": "#94D3E3",
    "Dark blue": "#184166",
    "Bright purple": "#9360B4",
    "Light purple": "#CDB5E4",
    "Dark purple": "#59334C",
    "Bright grey": "#A3A4A3",
    "Light grey": "#BCBFBE",
    "Dark grey": "#3F4244",
    "White": "#E0E1E0",
    "Black": "#292929",
    "Bright brown": "#AA6B46",
    "Light brown": "#C8A171",
    "Dark brown": "#563727",
}

# Dimensions of the hidden color solid. The solid is large relative to
# unit-Gaussian noise so that attractor basins stay well separated for
# per-patch noise at intervention timesteps.
AXIS_LENGTH = 60.0
CHROMA_RADIUS = 30.0

DEFAULT_DIM = 16
DEFAULT_GRID = (8, 8)


@dataclass(frozen=True)
class ToyEmbedder:
    """Affine rank-3 lift of the hexagonal bicone into d dimensions.

    lift: (d, 3) column-orthonormal. offset: (d,) translation. anchors is
    the ideal anchor set expressed in the hidden 3-space coordinates.
    """

    lift: np.ndarray
    offset: np.ndarray
    seed: int
    anchors: AnchorSet

    @classmethod
    def create(cls, seed: int = 0, d: int = DEFAULT_DIM) -> "ToyEmbedder":
        if d < 3:
            raise ValueError(f"need d >= 3, got {d}")
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((d, 3))
        q, r = np.linalg.qr(m)
        q = q * np.sign(np.diag(r))  # deterministic column signs
        offset = rng.standard_normal(d)
        return cls(
            lift=q,
            offset=offset,
            seed=seed,
            anchors=regular_anchors(AXIS_LENGTH, CHROMA_RADIUS),
        )

    @property
    def dim(self) -> int:
        return self.lift.shape[0]


def embed_hsl(y, e: ToyEmbedder) -> np.ndarray:
    """Latent of colors: a d-vector for one HslColor, (n, d) for an (n, 3) array of (h, s, l)."""
    c = encode(y, e.anchors)
    # written out over the three coordinates so that a color's latent does
    # not depend on how many colors are embedded with it
    return e.offset + sum(c[..., i, None] * e.lift[:, i] for i in range(3))


def embed_image(pixels: ColorGrid, e: ToyEmbedder) -> np.ndarray:
    """(L, d) latent tensor of a color grid, one patch per cell."""
    return embed_hsl(pixels.hsl.reshape(-1, 3), e)


def toy_decode(z: np.ndarray, e: ToyEmbedder) -> HslColor:
    """Exact color of a latent d-vector (inverse of embed_hsl on the solid)."""
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (e.dim,):
        raise ValueError(f"expected a ({e.dim},) latent vector, got shape {z.shape}")
    return decode(e.lift.T @ (z - e.offset), e.anchors)


@dataclass(frozen=True)
class ProbeSet:
    """Labeled anchor probes plus a lattice of sample latents for fitting."""

    labeled: Mapping[str, np.ndarray]
    lattice: np.ndarray
    lattice_colors: tuple[HslColor, ...]


def probe_colors() -> dict[str, HslColor]:
    """The eight anchor probe colors."""
    out = {label: HslColor(th, 1.0, 0.5) for label, th in zip(HUE_LABELS, HUE_DEGREES)}
    out["black"] = HslColor(0.0, 0.0, 0.0)
    out["white"] = HslColor(0.0, 0.0, 1.0)
    return out


def make_probe_set(e: ToyEmbedder, lattice_side: int = 8) -> ProbeSet:
    """Labeled probes plus lattice_side**3 uniform HSV lattice latents.

    The lattice uses cell midpoints for saturation and value so no plane
    collapses to a single color. Deterministic given the embedder.
    """
    if lattice_side < 2:
        raise ValueError("lattice_side must be >= 2")
    labeled = {k: embed_hsl(c, e) for k, c in probe_colors().items()}
    colors = []
    n = lattice_side
    for i in range(n):
        for j in range(n):
            for k in range(n):
                colors.append(hsv_to_hsl(360.0 * i / n, (j + 0.5) / n, (k + 0.5) / n))
    lattice = embed_hsl(np.array([(c.h, c.s, c.l) for c in colors]), e)
    return ProbeSet(labeled=labeled, lattice=lattice, lattice_colors=tuple(colors))


# ---------------------------------------------------------------------------
# Flow simulation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AttractorField:
    """Clean targets the flow can land on, plus the step count T.

    The embedder defines the subspace plane in which the nearest
    attractor is selected.
    """

    attractors: tuple[np.ndarray, ...]
    T: int
    embedder: ToyEmbedder

    def __post_init__(self) -> None:
        if self.T < 1:
            raise ValueError(f"need T >= 1, got {self.T}")
        atts = tuple(np.asarray(a, dtype=np.float64) for a in self.attractors)
        if not atts:
            raise ValueError("field needs at least one attractor")
        shapes = {a.shape for a in atts}
        if len(shapes) != 1 or atts[0].ndim != 2 or atts[0].shape[1] != self.embedder.dim:
            raise ValueError(f"attractors must share one (L, {self.embedder.dim}) shape, got {sorted(shapes)}")
        object.__setattr__(self, "attractors", atts)


def solid_attractor(color: HslColor, e: ToyEmbedder, grid: tuple[int, int] = DEFAULT_GRID) -> np.ndarray:
    """Latent tensor of a solid-color image."""
    return embed_image(ColorGrid.solid(color, *grid), e)


def initial_noise(L: int, d: int, seed: int) -> np.ndarray:
    """Unit Gaussian starting latents."""
    return np.random.default_rng(seed).standard_normal((L, d))


def sample_path(z1: np.ndarray, z0: np.ndarray, t: int, T: int) -> np.ndarray:
    """Point at timestep t on the straight path from noise z0 to clean z1."""
    z0 = np.asarray(z0, dtype=np.float64)
    z1 = np.asarray(z1, dtype=np.float64)
    if z0.shape != z1.shape:
        raise ValueError(f"endpoint shapes differ: {z0.shape} vs {z1.shape}")
    if not 0 <= t <= T:
        raise ValueError(f"timestep {t} outside 0..{T}")
    tau = t / T
    return (1.0 - tau) * z0 + tau * z1


def nearest_attractor(z: np.ndarray, field: AttractorField) -> int:
    """Index of the attractor closest to z in aggregate subspace distance."""
    q = field.embedder.lift
    mu = field.embedder.offset
    coords = (z - mu) @ q
    dists = [float(np.sum(((a - mu) @ q - coords) ** 2)) for a in field.attractors]
    return int(np.argmin(dists))


def _denoise(z: np.ndarray, field: AttractorField) -> np.ndarray:
    return field.attractors[nearest_attractor(z, field)]


def generate(
    z0: np.ndarray,
    field: AttractorField,
    T: int | None = None,
    edit: Callable[[np.ndarray, int], np.ndarray] | None = None,
) -> np.ndarray:
    """Integrate the flow from noise to an attractor; returns (T+1, L, d).

    Step k moves 1/(T - k) of the way toward the denoised target, which
    is Euler integration of the interpolation-path velocity and lands on
    the target exactly at k = T - 1. An optional edit callback receives
    (z, t) before each step and its output becomes the recorded state,
    so interventions alter the rest of the trajectory.
    """
    if T is None:
        T = field.T
    elif T != field.T:
        raise ValueError(f"T = {T} conflicts with field T = {field.T}")
    z = np.asarray(z0, dtype=np.float64)
    if z.shape != field.attractors[0].shape:
        raise ValueError(f"z0 shape {z.shape} does not match attractors {field.attractors[0].shape}")
    z = z.copy()
    frames = np.empty((T + 1,) + z.shape)
    for k in range(T + 1):
        if edit is not None:
            z = np.asarray(edit(z, k), dtype=np.float64)
        frames[k] = z
        if k < T:
            z = z + (_denoise(z, field) - z) / (T - k)
    return frames


def palette_color(name: str) -> HslColor:
    """HSL value of a named palette color."""
    return rgb_to_hsl(parse_hex(TIMESTEP_PALETTE[name]))
