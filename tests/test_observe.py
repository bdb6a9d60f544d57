"""Grid observation, color metrics, and PPM rendering."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from latentcolor import (
    ColorGrid,
    PatchMask,
    SubspaceModel,
    encode,
    grid_de00_mean_pixel,
    grid_de00_per_pixel,
    observe,
    project,
    render_ppm,
)
from latentcolor.colorspace import HslColor, linear_to_srgb_array, rgb_to_hsl_array, signed_hue_delta
from latentcolor.observe import mean_color
from colorref import (
    ciede2000,
    hsl_to_rgb,
    linear_channel_to_srgb,
    linear_rgb_to_lab,
    rgb_to_hsl,
    srgb_channel_to_linear,
    srgb_to_lab,
)

RED = HslColor(0.0, 1.0, 0.5)
GREEN = HslColor(120.0, 1.0, 0.5)


def checkerboard(a: HslColor, b: HslColor, h: int, w: int) -> ColorGrid:
    cells = tuple(a if (i + j) % 2 == 0 else b for i in range(h) for j in range(w))
    return ColorGrid(h, w, cells)


# ---------------------------------------------------------------------------
# ColorGrid type
# ---------------------------------------------------------------------------

def test_grid_validation():
    with pytest.raises(ValueError):
        ColorGrid(2, 2, (RED,) * 3)
    with pytest.raises(ValueError):
        ColorGrid(0, 2, ())


def test_grid_serialization_roundtrip(tmp_path):
    grid = checkerboard(RED, GREEN, 3, 4)
    path = tmp_path / "grid.json"
    grid.save(path)
    back = ColorGrid.load(path)
    assert back == grid


# ---------------------------------------------------------------------------
# observation
# ---------------------------------------------------------------------------

def test_observe_recovers_planted_colors(embedder, model, anchors, toy_stats):
    """Plant known colors at timestep t by inverting the whole pipeline."""
    rng = np.random.default_rng(51)
    colors = [
        HslColor(rng.uniform(0, 360), rng.uniform(0.1, 0.9), rng.uniform(0.2, 0.8))
        for _ in range(12)
    ]
    t = 35
    coords_T = np.array([encode(y, anchors) for y in colors])
    z0 = rng.standard_normal((12, embedder.dim))
    # normalize's inverse, written out: final-step coordinates back to step t
    coords_t = (coords_T - toy_stats.alpha[-1]) / toy_stats.beta[-1] * toy_stats.beta[t] + toy_stats.alpha[t]
    z = z0 + (coords_t - project(z0, model)) @ model.basis.T
    grid = observe(z, t, model, anchors, toy_stats, (3, 4))
    assert (grid.height, grid.width) == (3, 4)
    for got, want in zip(grid.cells, colors):
        assert abs(signed_hue_delta(got.h, want.h)) < 1e-6
        assert got.s == pytest.approx(want.s, abs=1e-9)
        assert got.l == pytest.approx(want.l, abs=1e-9)


def test_observe_rejects_mismatched_grid(embedder, model, anchors, toy_stats):
    z = np.zeros((12, embedder.dim))
    with pytest.raises(ValueError, match="does not cover"):
        observe(z, 35, model, anchors, toy_stats, (3, 3))


def test_observe_refuses_a_latent_that_is_not_2_d(embedder, model, anchors, toy_stats):
    with pytest.raises(ValueError) as info:
        observe(np.zeros(embedder.dim), 35, model, anchors, toy_stats, (1, 1))
    assert str(info.value) == f"expected an (L, d) latent tensor, got shape ({embedder.dim},)"


def test_observe_refuses_a_model_value_that_overflows(palette_runs, model, anchors, toy_stats):
    # the record checks pass and the chart stays finite; the decode overflows, and must not return a grid
    mean = model.mean.copy()
    mean[0] = 1.7e308
    huge = SubspaceModel(mean, model.basis, model.explained)
    with pytest.raises(FloatingPointError):
        observe(palette_runs["Bright red"][10], 10, huge, anchors, toy_stats, (8, 8))


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def test_identical_grids_have_zero_error():
    grid = checkerboard(RED, GREEN, 4, 4)
    assert grid_de00_per_pixel(grid, grid) == pytest.approx(0.0, abs=1e-12)
    assert grid_de00_mean_pixel(grid, grid) == pytest.approx(0.0, abs=1e-12)


def test_per_pixel_error_matches_direct_computation():
    pred = ColorGrid.solid(RED, 2, 2)
    ref = ColorGrid.solid(GREEN, 2, 2)
    want = ciede2000(srgb_to_lab(hsl_to_rgb(RED)), srgb_to_lab(hsl_to_rgb(GREEN)))
    assert grid_de00_per_pixel(pred, ref) == pytest.approx(want, abs=1e-12)


def test_per_pixel_error_averages_over_cells():
    pred = ColorGrid(1, 2, (RED, GREEN))
    ref = ColorGrid(1, 2, (GREEN, GREEN))
    want = 0.5 * ciede2000(srgb_to_lab(hsl_to_rgb(RED)), srgb_to_lab(hsl_to_rgb(GREEN)))
    assert grid_de00_per_pixel(pred, ref) == pytest.approx(want, abs=1e-12)


def test_mean_pixel_error_ignores_arrangement():
    a = checkerboard(RED, GREEN, 4, 4)
    b = checkerboard(GREEN, RED, 4, 4)
    assert grid_de00_mean_pixel(a, b) == pytest.approx(0.0, abs=1e-12)
    assert grid_de00_per_pixel(a, b) > 20.0


def test_mean_pixel_error_mixes_in_linear_rgb():
    a = ColorGrid(1, 2, (RED, GREEN))
    b = ColorGrid.solid(RED, 1, 2)
    lin_red = tuple(srgb_channel_to_linear(v) for v in (1.0, 0.0, 0.0))
    lin_green = tuple(srgb_channel_to_linear(v) for v in (0.0, 1.0, 0.0))
    mix = tuple(0.5 * (x + y) for x, y in zip(lin_red, lin_green))
    want = ciede2000(linear_rgb_to_lab(*mix), linear_rgb_to_lab(*lin_red))
    assert grid_de00_mean_pixel(a, b) == pytest.approx(want, abs=1e-12)


def test_metrics_reject_mismatched_dims():
    with pytest.raises(ValueError):
        grid_de00_per_pixel(ColorGrid.solid(RED, 2, 2), ColorGrid.solid(RED, 2, 3))


def test_masked_mean_color_oracle():
    grid = ColorGrid(1, 3, (RED, GREEN, HslColor(240.0, 1.0, 0.5)))
    mask = PatchMask(L=3, selected=frozenset({0, 1}))
    got = mean_color(grid.hsl.reshape(-1, 3)[mask.indices])
    lin = [
        tuple(srgb_channel_to_linear(v) for v in (1.0, 0.0, 0.0)),
        tuple(srgb_channel_to_linear(v) for v in (0.0, 1.0, 0.0)),
    ]
    mix = np.mean(lin, axis=0)
    np.testing.assert_allclose(got, mix, rtol=0.0, atol=1e-12)  # the mean stays in linear RGB
    want = rgb_to_hsl([linear_channel_to_srgb(v) for v in mix])
    got = HslColor(*rgb_to_hsl_array(linear_to_srgb_array(got)).tolist())  # as displayed
    assert abs(signed_hue_delta(got.h, want.h)) < 1e-9
    assert got.s == pytest.approx(want.s, abs=1e-12)
    assert got.l == pytest.approx(want.l, abs=1e-12)


@pytest.mark.parametrize("shape", [(0, 3), (2, 0, 3)])
def test_mean_color_refuses_an_empty_block(shape):
    grid = ColorGrid.solid(RED, 2, 2)
    with pytest.raises(ValueError, match="^empty block: no colors to average$"):
        mean_color(grid.hsl.reshape(-1, 3)[PatchMask(L=4).indices])
    with pytest.raises(ValueError, match="^empty block: no colors to average$"):
        mean_color(np.zeros(shape))


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def test_render_ppm_bytes_exact():
    grid = ColorGrid(1, 2, (RED, HslColor(0.0, 0.0, 1.0)))
    assert render_ppm(grid) == b"P6\n2 1\n255\n" + bytes([255, 0, 0, 255, 255, 255])


def test_render_ppm_cell_scaling():
    grid = ColorGrid(1, 1, (RED,))
    data = render_ppm(grid, cell_px=3)
    assert data == b"P6\n3 3\n255\n" + bytes([255, 0, 0]) * 9


def test_render_ppm_row_major_order():
    grid = ColorGrid(2, 1, (RED, GREEN))
    data = render_ppm(grid)
    assert data == b"P6\n1 2\n255\n" + bytes([255, 0, 0, 0, 255, 0])


@pytest.mark.parametrize("cell_px", [10**6, 10**15])  # numpy refuses both sizes at once: no memory is touched
def test_render_ppm_refuses_a_raster_too_large_to_allocate(cell_px):
    side = 8 * cell_px
    with pytest.raises(ValueError, match=f"raster of {side}x{side} pixels is too large"):
        render_ppm(ColorGrid.solid(RED, 8, 8), cell_px=cell_px)


def test_render_ppm_holds_the_raster_about_twice_at_its_peak():
    grid = ColorGrid.solid(RED, 8, 8)
    render_ppm(grid, cell_px=2)  # the grid's RGB planes are made on first use: not part of the peak
    raster = (8 * 100) ** 2 * 3  # 1.9 MB
    tracemalloc.start()
    try:
        data = render_ppm(grid, cell_px=100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert data == b"P6\n800 800\n255\n" + bytes([255, 0, 0]) * (raster // 3)
    assert peak < 2.5 * raster  # the raster and the file's bytes; a tobytes() copy on top would make three


def test_render_ppm_rejects_bad_cell_px():
    with pytest.raises(ValueError):
        render_ppm(ColorGrid.solid(RED, 1, 1), cell_px=0)


# sha256 over render_ppm(observe(...)) of every palette run at t = 1..T, in
# sorted name order: the affine chart must give the bytes that project
# followed by normalize gives
PALETTE_PPM_SHA256 = "f958a7ffb4287f50779fc9894e983b23032168474eb32bbd8d8d607f759b7c04"


def test_observed_ppm_bytes_are_pinned(palette_runs, model, anchors, toy_stats):
    digest = hashlib.sha256()
    for name in sorted(palette_runs):
        for t in range(1, toy_stats.T + 1):
            digest.update(render_ppm(observe(palette_runs[name][t], t, model, anchors, toy_stats, (8, 8))))
    assert digest.hexdigest() == PALETTE_PPM_SHA256
