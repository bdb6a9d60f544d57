"""Reading color out of latents mid-flight, plus grid-level color metrics.

An observation decodes every patch of a latent at timestep t through the
normalization map and arranges the colors in the patch grid. Metrics
compare two grids either cell by cell or through their average color;
averaging always happens in linear RGB so that it matches how light
mixes, not how gamma-encoded bytes do.
"""

from __future__ import annotations

import numpy as np

from . import tensorio
from .bicone import AnchorSet, decode
from .colorspace import (
    HslColor,
    RgbColor,
    canonical_hsl,
    ciede2000_array,
    hsl_to_rgb_array,
    linear_channel_to_srgb,
    linear_rgb_to_lab_array,
    rgb_to_hsl,
    srgb_to_lab_array,
    srgb_to_linear_array,
)
from .intervene import PatchMask
from .subspace import SubspaceModel, project
from .timestats import StatsTable, normalize

__all__ = [
    "ColorGrid",
    "observe",
    "grid_de00_per_pixel",
    "grid_de00_mean_pixel",
    "mean_color",
    "masked_mean_color",
    "render_ppm",
]


class ColorGrid:
    """Immutable height x width grid of colors, row-major.

    One read-only (height, width, 3) float array, ``hsl``, holds every
    cell's (h, s, l) in the canonical form HslColor gives them.
    """

    __slots__ = ("hsl",)

    def __init__(self, height: int, width: int, cells) -> None:
        """Grid of height * width HslColor cells given in row-major order."""
        cells = tuple(cells)
        if height < 1 or width < 1:
            raise ValueError(f"bad grid dims {height}x{width}")
        if len(cells) != height * width:
            raise ValueError(f"{height}x{width} grid needs {height * width} cells, got {len(cells)}")
        self._set(np.array([(c.h, c.s, c.l) for c in cells], dtype=np.float64).reshape(height, width, 3))

    def _set(self, hsl: np.ndarray) -> None:
        if hsl.ndim != 3 or hsl.shape[2] != 3:
            raise ValueError(f"expected a (height, width, 3) array of colors, got shape {hsl.shape}")
        if hsl.shape[0] < 1 or hsl.shape[1] < 1:
            raise ValueError(f"bad grid dims {hsl.shape[0]}x{hsl.shape[1]}")
        hsl = canonical_hsl(hsl)
        hsl.flags.writeable = False
        self.hsl = hsl

    @classmethod
    def from_hsl(cls, hsl) -> "ColorGrid":
        """Grid over a (height, width, 3) array of (h, s, l), wrapped and clamped as HslColor does."""
        grid = cls.__new__(cls)
        grid._set(np.asarray(hsl, dtype=np.float64))
        return grid

    @classmethod
    def solid(cls, color: HslColor, height: int, width: int) -> "ColorGrid":
        return cls.from_hsl(np.broadcast_to([color.h, color.s, color.l], (height, width, 3)))

    @property
    def height(self) -> int:
        return self.hsl.shape[0]

    @property
    def width(self) -> int:
        return self.hsl.shape[1]

    @property
    def cells(self) -> tuple[HslColor, ...]:
        """The cells as HslColor, row-major."""
        return tuple(HslColor(h, s, l) for h, s, l in self.hsl.reshape(-1, 3).tolist())

    def __eq__(self, other) -> bool:
        if not isinstance(other, ColorGrid):
            return NotImplemented
        return np.array_equal(self.hsl, other.hsl)

    def __repr__(self) -> str:
        return f"ColorGrid({self.height}x{self.width})"

    def to_json_dict(self) -> dict:
        return {
            "height": self.height,
            "width": self.width,
            "cells": self.hsl.reshape(-1, 3).tolist(),
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "ColorGrid":
        height, width = int(obj["height"]), int(obj["width"])
        cells = np.asarray(obj["cells"], dtype=np.float64)
        if height < 1 or width < 1 or cells.shape != (height * width, 3):
            raise ValueError(f"{height}x{width} grid needs {height * width} (h, s, l) cells, got shape {cells.shape}")
        return cls.from_hsl(cells.reshape(height, width, 3))

    def save(self, path) -> None:
        tensorio.write_json(path, self.to_json_dict())

    @classmethod
    def load(cls, path) -> "ColorGrid":
        return cls.from_json_dict(tensorio.read_json(path))


def observe(
    z: np.ndarray,
    t: int,
    model: SubspaceModel,
    anchors: AnchorSet,
    stats: StatsTable,
    grid_dims: tuple[int, int],
) -> ColorGrid:
    """Decode every patch of z at timestep t into a color grid.

    grid_dims is (height, width) with height * width equal to the patch
    count; patches are taken in row-major order.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2:
        raise ValueError(f"expected an (L, d) latent tensor, got shape {z.shape}")
    height, width = grid_dims
    if height * width != z.shape[0]:
        raise ValueError(f"grid {height}x{width} does not cover {z.shape[0]} patches")
    hat = normalize(project(z, model), t, stats)
    return ColorGrid.from_hsl(decode(hat, anchors).reshape(height, width, 3))


def _check_same_dims(a: ColorGrid, b: ColorGrid) -> None:
    if (a.height, a.width) != (b.height, b.width):
        raise ValueError(f"grid dims differ: {a.height}x{a.width} vs {b.height}x{b.width}")


def grid_de00_per_pixel(pred: ColorGrid, ref: ColorGrid) -> float:
    """Mean over cells of the CIEDE2000 difference."""
    _check_same_dims(pred, ref)
    lab_p = srgb_to_lab_array(hsl_to_rgb_array(pred.hsl))
    lab_r = srgb_to_lab_array(hsl_to_rgb_array(ref.hsl))
    return float(np.mean(ciede2000_array(lab_p, lab_r)))


def _mean_linear_rgb(hsl: np.ndarray) -> np.ndarray:
    return srgb_to_linear_array(hsl_to_rgb_array(hsl.reshape(-1, 3))).mean(axis=0)


def grid_de00_mean_pixel(pred: ColorGrid, ref: ColorGrid) -> float:
    """CIEDE2000 between the grids' average colors (averaged in linear RGB)."""
    _check_same_dims(pred, ref)
    lab_p = linear_rgb_to_lab_array(_mean_linear_rgb(pred.hsl))
    lab_r = linear_rgb_to_lab_array(_mean_linear_rgb(ref.hsl))
    return float(ciede2000_array(lab_p, lab_r))


def mean_color(hsl: np.ndarray) -> HslColor:
    """Average color of a nonempty (n, 3) block of (h, s, l) rows, mixed in linear RGB."""
    lin = _mean_linear_rgb(hsl)
    return rgb_to_hsl(RgbColor(*(linear_channel_to_srgb(v) for v in lin.tolist())))


def masked_mean_color(grid: ColorGrid, mask: PatchMask) -> HslColor:
    """Average color of the masked cells, mixed in linear RGB."""
    if mask.L != grid.height * grid.width:
        raise ValueError(f"mask is for L = {mask.L} cells, grid has {grid.height * grid.width}")
    if not mask.selected:
        raise ValueError("empty mask: no cells to average")
    return mean_color(grid.hsl.reshape(-1, 3)[mask.indices])


def render_ppm(grid: ColorGrid, cell_px: int = 1) -> bytes:
    """Render the grid as a binary PPM (P6, maxval 255).

    Each cell becomes a cell_px x cell_px block of its 8-bit sRGB color.
    """
    if cell_px < 1:
        raise ValueError("cell_px must be >= 1")
    rgb8 = np.rint(hsl_to_rgb_array(grid.hsl) * 255.0).astype(np.uint8)
    pixels = np.repeat(np.repeat(rgb8, cell_px, axis=0), cell_px, axis=1)
    header = f"P6\n{grid.width * cell_px} {grid.height * cell_px}\n255\n".encode("ascii")
    return header + pixels.tobytes()
