"""Reading color out of latents mid-flight, plus grid-level color metrics.

An observation decodes every patch of a latent at timestep t through the
normalization map and arranges the colors in the patch grid. Metrics
compare two grids either cell by cell or through their average color;
averaging always happens in linear RGB so that it matches how light
mixes, not how gamma-encoded bytes do. An average color stays in linear
RGB, and its Lab is taken from there, not from a displayed HSL value.
"""

from __future__ import annotations

import numpy as np

from . import tensorio
from .bicone import AnchorSet, _decode_planes
from .colorspace import (
    HslColor,
    _canonical,
    _ciede2000,
    _hsl_to_rgb,
    _linear_to_lab,
    srgb_to_linear_array,
    _from_planes,
    _to_planes,
)
from .subspace import SubspaceModel
from .timestats import StatsTable, _chart

__all__ = [
    "ColorGrid",
    "observe",
    "grid_de00_per_pixel",
    "grid_de00_mean_pixel",
    "mean_color",
    "render_ppm",
]


def _mean_planes(planes: np.ndarray) -> np.ndarray:
    # the (n, 3) rows' mean(axis=0) bit for bit: that runs one inner loop of length 3 per row, while a
    # running sum along each (3, n) plane adds the same terms in the same order at a fraction of the cost.
    # At n = 4096 np.add.reduce (7 us), reduce(where=) (15 us) and planes @ ones (9 us) beat its 42 us,
    # but sum pairwise or in blocks: they changed the bits on 20, 20 and 19 of 20 random draws
    return np.add.accumulate(planes, axis=-1)[..., -1] / planes.shape[-1]


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class ColorGrid(tensorio.JsonRecord):
    """Immutable height x width grid of colors, row-major.

    One read-only (3, height, width) block holds the cells' h, s and l
    planes, canonical as HslColor makes them; ``hsl`` is its read-only
    (height, width, 3) view. The sRGB, linear RGB and Lab planes are made
    on first use and kept, read-only; the linear and Lab blocks end in one
    more column, the cells' mean color. The grid also keeps its last
    comparison: the CIEDE2000 of each cell and of the mean against one ref.
    """

    __slots__ = ("_block", "hsl", "_rgb_cache", "_blocks_cache", "_compared")

    def __init__(self, height: int, width: int, cells) -> None:
        """Grid of height * width HslColor cells given in row-major order."""
        cells = tuple(cells)
        if height < 1 or width < 1:
            raise ValueError(f"bad grid dims {height}x{width}")
        if len(cells) != height * width:
            raise ValueError(f"{height}x{width} grid needs {height * width} cells, got {len(cells)}")
        self._set(_canonical(_to_planes(np.array([(c.h, c.s, c.l) for c in cells]).reshape(height, width, 3))))

    def _set(self, planes: np.ndarray) -> "ColorGrid":
        # takes over (3, height, width) canonical planes
        self._block = _read_only(planes)
        self.hsl = planes.transpose(1, 2, 0)
        self._rgb_cache = self._blocks_cache = self._compared = None
        return self

    @classmethod
    def from_hsl(cls, hsl) -> "ColorGrid":
        """Grid over a (height, width, 3) array of (h, s, l), wrapped and clamped as HslColor does."""
        hsl = np.asarray(hsl, dtype=np.float64)
        if hsl.ndim != 3 or hsl.shape[2] != 3 or 0 in hsl.shape:
            raise ValueError(f"expected a nonempty (height, width, 3) array of colors, got shape {hsl.shape}")
        return cls.__new__(cls)._set(_canonical(_to_planes(hsl)))

    @classmethod
    def solid(cls, color: HslColor, height: int, width: int) -> "ColorGrid":
        return cls.from_hsl(np.broadcast_to([color.h, color.s, color.l], (height, width, 3)))

    @property
    def height(self) -> int:
        return self._block.shape[1]

    @property
    def width(self) -> int:
        return self._block.shape[2]

    @property
    def _rgb(self) -> np.ndarray:
        if self._rgb_cache is None:
            self._rgb_cache = _read_only(_hsl_to_rgb(self._block))
        return self._rgb_cache

    @property
    def _blocks(self) -> tuple[np.ndarray, np.ndarray]:
        # (3, n + 1) linear RGB and Lab: the n cells, then their mean color, averaged in linear RGB
        if self._blocks_cache is None:
            n = self._block[0].size
            lin = np.empty((3, n + 1))
            lin[:, :n] = srgb_to_linear_array(self._rgb.reshape(3, n))
            lin[:, n] = _mean_planes(lin[:, :n])
            self._blocks_cache = _read_only(lin), _read_only(_linear_to_lab(lin))
        return self._blocks_cache

    @property
    def cells(self) -> tuple[HslColor, ...]:
        """The cells as HslColor, row-major."""
        return tuple(HslColor(h, s, l) for h, s, l in self.hsl.reshape(-1, 3).tolist())

    def __eq__(self, other) -> bool:
        if not isinstance(other, ColorGrid):
            return NotImplemented
        return np.array_equal(self._block, other._block)

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
        height, width = obj["height"], obj["width"]
        if not (type(height) is int and type(width) is int and height > 0 and width > 0):  # no floats, no bools
            raise ValueError(f"grid height and width must be positive integers, got {height!r} and {width!r}")
        return cls.from_hsl(tensorio.float_array(obj["cells"], (height * width, 3)).reshape(height, width, 3))


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
    count; patches are taken in row-major order. A float overflow or
    invalid value raises FloatingPointError.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2:
        raise ValueError(f"expected an (L, d) latent tensor, got shape {z.shape}")
    height, width = grid_dims
    if height * width != z.shape[0]:
        raise ValueError(f"grid {height}x{width} does not cover {z.shape[0]} patches")
    with np.errstate(over="raise", invalid="raise"):
        hat, _ = _chart(z, model, t, stats)
        hsl = _decode_planes(hat.T, anchors).reshape(3, height, width)
    sl = hsl[1:]  # the hue is canonical already; s and l clamp in place, keeping -0.0 and NaN as HslColor does
    np.clip(sl, 0.0, 1.0, out=sl)
    return ColorGrid.__new__(ColorGrid)._set(hsl)


def _de00(pred: ColorGrid, ref: ColorGrid) -> np.ndarray:
    """CIEDE2000 of each cell, then of the mean colors, in one call; pred keeps it for this ref."""
    if (pred.height, pred.width) != (ref.height, ref.width):
        raise ValueError(f"grid dims differ: {pred.height}x{pred.width} vs {ref.height}x{ref.width}")
    if pred._compared is None or pred._compared[0] is not ref:
        pred._compared = (ref, _read_only(_ciede2000(pred._blocks[1], ref._blocks[1])))
    return pred._compared[1]


def grid_de00_per_pixel(pred: ColorGrid, ref: ColorGrid) -> float:
    """Mean over cells of the CIEDE2000 difference."""
    return float(np.mean(_de00(pred, ref)[:-1]))


def grid_de00_mean_pixel(pred: ColorGrid, ref: ColorGrid) -> float:
    """CIEDE2000 between the grids' average colors (averaged in linear RGB)."""
    return float(_de00(pred, ref)[-1])


def mean_color(hsl: np.ndarray) -> np.ndarray:
    """Average color of a nonempty (n, 3) block of (h, s, l) rows, as linear RGB.

    The rows may be any set of cells: a grid's masked cells are grid.hsl.reshape(-1, 3)[mask.indices].
    A (k, n, 3) stack of blocks gives the (k, 3) means, each with the bits of its own block's mean.
    """
    planes = _to_planes(hsl)
    if planes.shape[-1] == 0:
        raise ValueError("empty block: no colors to average")
    return _from_planes(_mean_planes(srgb_to_linear_array(_hsl_to_rgb(planes))))


def render_ppm(grid: ColorGrid, cell_px: int = 1) -> bytes:
    """Render the grid as a binary PPM (P6, maxval 255).

    Each cell becomes a cell_px x cell_px block of its 8-bit sRGB color.
    """
    if cell_px < 1:
        raise ValueError("cell_px must be >= 1")
    scaled = grid._rgb * 255.0
    np.rint(scaled, out=scaled)
    width, height = grid.width * cell_px, grid.height * cell_px
    header = f"P6\n{width} {height}\n255\n".encode("ascii")
    try:  # the whole raster is allocated first, so a size numpy refuses costs no memory
        raster = np.empty((grid.height, cell_px, grid.width, cell_px, 3), dtype=np.uint8)
    except (MemoryError, ValueError) as e:  # ValueError: the byte count overflows
        raise ValueError(f"a PPM raster of {width}x{height} pixels is too large to allocate") from e
    # each cell's bytes, cast as astype(np.uint8) casts, into the first pixel row of its cell row; then that
    # row's contiguous bytes into the other cell_px - 1 (one strided cast of every pixel costs about 7x as much)
    np.copyto(raster[:, 0], scaled.transpose(1, 2, 0)[:, :, None], casting="unsafe")
    raster[:, 1:] = raster[:, :1]
    return b"".join((header, raster))  # join reads the contiguous raster directly: one copy of it, not two
