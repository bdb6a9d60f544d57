"""Array kernels checked against the per-color reference.

The reference is the scalar code: the colorspace functions that take one
color dataclass, and below, the per-vector bicone decode and the
per-cell grid loops that the array code replaced. Where a kernel does the
reference's arithmetic elementwise it must match bit for bit. Where numpy's
vectorized pow, atan2, hypot or exp stand in for the C library's (Lab,
CIEDE2000, decode), or where sums run in another order (grid means), the
tolerance is 1e-12, with hue compared circularly.
"""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from latentcolor import (
    ColorGrid,
    PatchMask,
    decode,
    decode_raw,
    encode,
    grid_de00_mean_pixel,
    grid_de00_per_pixel,
    masked_mean_color,
    observe,
    render_ppm,
    type2,
)
from latentcolor.colorspace import (
    HslColor,
    LabColor,
    RgbColor,
    canonical_hsl,
    ciede2000,
    ciede2000_array,
    circular_mean_hue,
    hsl_to_rgb,
    hsl_to_rgb_array,
    linear_channel_to_srgb,
    linear_rgb_to_lab,
    linear_rgb_to_lab_array,
    rgb_to_hsl,
    signed_hue_delta,
    srgb_channel_to_linear,
    srgb_to_lab,
    srgb_to_lab_array,
    srgb_to_linear_array,
)
from latentcolor.subspace import project
from latentcolor.timestats import normalize
from test_colorspace import CIEDE2000_PAIRS

TOL = 1e-12
BELOW_360 = math.nextafter(360.0, 0.0)

# hue, including 0, the segment edges and the last floats below 360
hue = st.one_of(
    st.floats(0.0, 360.0, exclude_max=True),
    st.sampled_from([0.0, 60.0, 180.0, 300.0, 359.9999999, BELOW_360]),
)
unit = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0]))
canonical_rows = st.lists(st.tuples(hue, unit, unit), min_size=1, max_size=16)
raw_rows = st.lists(
    st.tuples(st.floats(-720.0, 720.0), st.floats(-1.0, 2.0), st.floats(-1.0, 2.0)), min_size=1, max_size=16
)
lab = st.tuples(st.floats(0.0, 100.0), st.floats(-120.0, 120.0), st.floats(-120.0, 120.0))


def blue_lab():
    """Lab colors whose hue lies around 275 degrees, where CIEDE2000's rotation term acts."""
    return st.builds(
        lambda L, c, h: (L, c * math.cos(math.radians(h)), c * math.sin(math.radians(h))),
        st.floats(0.0, 100.0),
        st.floats(0.0, 120.0),
        st.floats(230.0, 320.0),
    )


def hue_gap(a, b) -> np.ndarray:
    return np.abs((np.asarray(a) - np.asarray(b) + 180.0) % 360.0 - 180.0)


def hsl_rows(colors) -> np.ndarray:
    return np.array([(c.h, c.s, c.l) for c in colors]).reshape(-1, 3)


# ---------------------------------------------------------------------------
# colorspace kernels
# ---------------------------------------------------------------------------

@given(raw_rows)
def test_canonical_hsl_is_hslcolor_bitwise(rows):
    rows = rows + [(-0.0, -0.0, -0.0), (-1e-30, 0.5, 0.5)]
    want = hsl_rows(HslColor(*r) for r in rows)
    assert np.array_equal(canonical_hsl(rows), want)
    assert np.array_equal(np.signbit(canonical_hsl(rows)), np.signbit(want))


@given(canonical_rows)
def test_hsl_to_rgb_array_is_scalar_bitwise(rows):
    colors = [HslColor(*r) for r in rows]
    want = np.array([(c.r, c.g, c.b) for c in map(hsl_to_rgb, colors)])
    assert np.array_equal(hsl_to_rgb_array(hsl_rows(colors)), want)


def test_hsl_to_rgb_array_keeps_leading_axes():
    grid = np.array([[[0.0, 1.0, 0.5], [120.0, 1.0, 0.5]], [[240.0, 1.0, 0.5], [0.0, 0.0, 1.0]]])
    assert np.array_equal(hsl_to_rgb_array(grid), [[[1, 0, 0], [0, 1, 0]], [[0, 0, 1], [1, 1, 1]]])
    assert np.array_equal(hsl_to_rgb_array(grid[0, 0]), [1.0, 0.0, 0.0])


@given(st.lists(st.tuples(unit, unit, unit), min_size=1, max_size=16))
def test_srgb_to_lab_array_matches_scalar(rows):
    rows = rows + [(0.04045, 0.0, 1.0)]
    want = np.array([(c.L, c.a, c.b) for c in (srgb_to_lab(RgbColor(*r)) for r in rows)])
    np.testing.assert_allclose(srgb_to_lab_array(rows), want, rtol=TOL, atol=TOL)
    lin = np.array([[srgb_channel_to_linear(v) for v in r] for r in rows])
    np.testing.assert_allclose(srgb_to_linear_array(rows), lin, rtol=TOL, atol=TOL)
    want = np.array([(c.L, c.a, c.b) for c in (linear_rgb_to_lab(*r) for r in lin.tolist())])
    np.testing.assert_allclose(linear_rgb_to_lab_array(lin), want, rtol=TOL, atol=TOL)


@given(st.lists(st.tuples(st.one_of(lab, blue_lab()), st.one_of(lab, blue_lab())), min_size=1, max_size=16))
def test_ciede2000_array_matches_scalar(pairs):
    pairs = pairs + [((50.0, 0.0, 0.0), (50.0, -0.0, 0.0)), ((40.0, 0.0, -30.0), (40.0, 0.0, -30.0))]
    x = np.array([p[0] for p in pairs])
    y = np.array([p[1] for p in pairs])
    want = [ciede2000(LabColor(*a), LabColor(*b)) for a, b in pairs]
    np.testing.assert_allclose(ciede2000_array(x, y), want, rtol=TOL, atol=TOL)


def test_ciede2000_array_reference_pairs():
    x = np.array([p[0] for p in CIEDE2000_PAIRS])
    y = np.array([p[1] for p in CIEDE2000_PAIRS])
    expected = np.array([p[2] for p in CIEDE2000_PAIRS])
    assert len(expected) == 34
    np.testing.assert_allclose(ciede2000_array(x, y), expected, rtol=0.0, atol=1e-4)
    np.testing.assert_allclose(ciede2000_array(y, x), expected, rtol=0.0, atol=1e-4)


# ---------------------------------------------------------------------------
# bicone kernels
# ---------------------------------------------------------------------------

def reference_decode_raw(c: np.ndarray, anchors) -> tuple[float, float, float]:
    """The per-vector decode the array code replaced, with its linear segment search."""
    rel = c - anchors.black
    axis = anchors.axis
    l = float(rel @ axis) / float(axis @ axis)
    chroma3 = rel - l * axis
    q = np.array([chroma3 @ anchors.e1, chroma3 @ anchors.e2])
    radius = float(np.hypot(q[0], q[1]))
    if radius < 1e-9:
        return 0.0, 0.0, l
    ang = math.atan2(q[1], q[0]) % (2.0 * math.pi)
    pts = anchors.chroma_points
    k = 5
    for i in range(5):
        if anchors.chroma_angles[i] <= ang < anchors.chroma_angles[i + 1]:
            k = i
            break
    j = (k + 1) % 6
    cross_k = pts[k, 0] * q[1] - pts[k, 1] * q[0]
    cross_j = pts[j, 0] * q[1] - pts[j, 1] * q[0]
    alpha = min(max(cross_k / (cross_k - cross_j), 0.0), 1.0)
    th0 = anchors.thetas[k]
    th1 = anchors.thetas[k + 1] if k < 5 else 360.0
    h = (th0 + alpha * (th1 - th0)) % 360.0
    bicone = 1.0 - abs(2.0 * l - 1.0)
    if bicone < 1e-6:
        return h, 0.0, l
    chord = pts[k] + alpha * (pts[j] - pts[k])
    return h, radius / (float(np.hypot(chord[0], chord[1])) * bicone), l


def reference_encode(y: HslColor, anchors) -> np.ndarray:
    """The per-color encode the array code replaced."""
    k = min(int(y.h // 60.0), 5)
    alpha = (y.h - 60.0 * k) / 60.0
    pts = anchors.chroma_points
    chord = pts[k] + alpha * (pts[(k + 1) % 6] - pts[k])
    scale = y.s * (1.0 - abs(2.0 * y.l - 1.0))
    return anchors.black + y.l * anchors.axis + scale * (chord[0] * anchors.e1 + chord[1] * anchors.e2)


def assert_hsl_close(got: np.ndarray, want: np.ndarray, tol: float = TOL) -> None:
    got, want = np.asarray(got).reshape(-1, 3), np.asarray(want).reshape(-1, 3)
    assert np.all(hue_gap(got[:, 0], want[:, 0]) <= tol)
    np.testing.assert_allclose(got[:, 1:], want[:, 1:], rtol=tol, atol=tol)


@given(canonical_rows)
def test_encode_array_is_reference_bitwise(anchors, rows):
    colors = [HslColor(*r) for r in rows]
    want = np.array([reference_encode(c, anchors) for c in colors])
    assert np.array_equal(encode(hsl_rows(colors), anchors), want)
    assert np.array_equal(encode(colors[0], anchors), want[0])


@given(st.lists(st.tuples(hue, st.floats(0.0, 2.0), st.floats(-0.5, 1.5)), min_size=1, max_size=16))
def test_decode_raw_matches_reference(anchors, rows):
    # s and l outside [0, 1] included: decode_raw must not clamp
    coords = encode(np.array(rows), anchors)
    want = np.array([reference_decode_raw(c, anchors) for c in coords])
    got = decode_raw(coords, anchors)
    assert got.shape == coords.shape
    assert_hsl_close(got, want)
    assert_hsl_close(decode_raw(coords[0], anchors), want[0])


def test_decode_raw_special_points_match_reference(anchors):
    a = anchors
    special = [
        a.black,  # apexes and the axis between them: achromatic
        a.white,
        a.black + 0.3 * a.axis,
        a.black - 0.2 * a.axis,  # beyond the apexes
        a.white + 0.2 * a.axis,
        *a.hue_anchors,  # hue exactly at each anchor, 0 for red
        a.hue_anchors[0] - 1e-7 * a.e2,  # just below hue 0: the wrap segment
        a.black + 0.5 * a.axis + 40.0 * a.e1,  # beyond the red anchor
    ]
    got = decode_raw(np.array(special), a)
    want = np.array([reference_decode_raw(c, a) for c in special])
    assert_hsl_close(got, want)
    assert np.array_equal(got[:3, :2], np.zeros((3, 2)))
    assert got[-2, 0] > 359.0


@given(canonical_rows)
def test_decode_block_is_per_vector_decode(anchors, rows):
    coords = encode(np.array(rows), anchors)
    block = decode(coords, anchors)
    assert isinstance(block, np.ndarray) and block.shape == coords.shape
    singles = [decode(c, anchors) for c in coords]
    assert all(isinstance(y, HslColor) for y in singles)
    assert np.array_equal(block, hsl_rows(singles))


@pytest.mark.parametrize("shape", [(), (2,), (4,), (2, 2), (1, 3, 3)])
def test_bicone_kernels_reject_bad_shapes(anchors, shape):
    x = np.zeros(shape)
    with pytest.raises(ValueError):
        decode_raw(x, anchors)
    with pytest.raises(ValueError):
        encode(x, anchors)


def test_encode_rejects_nonfinite_hue(anchors):
    with pytest.raises(ValueError, match="non-finite"):
        encode(np.array([[math.nan, 0.5, 0.5]]), anchors)


def test_observe_matches_per_patch_reference(palette_runs, model, anchors, toy_stats):
    frames = palette_runs["Bright red"]
    for t in (1, 10, 30, 50):
        hat = normalize(project(frames[t], model), t, toy_stats)
        want = hsl_rows(HslColor(*reference_decode_raw(c, anchors)) for c in hat)
        grid = observe(frames[t], t, model, anchors, toy_stats, (8, 8))
        assert_hsl_close(grid.hsl, want)


def test_type2_matches_per_patch_reference(anchors):
    rng = np.random.default_rng(31)
    coords = encode(np.column_stack([rng.uniform(0, 360, 50), rng.uniform(0, 1.3, 50), rng.uniform(-0.1, 1.1, 50)]), anchors)
    target = HslColor(200.0, 0.6, 0.4)
    decoded = [HslColor(*reference_decode_raw(c, anchors)) for c in coords]
    dh = signed_hue_delta(target.h, circular_mean_hue([y.h for y in decoded]))
    ds = target.s - float(np.mean([y.s for y in decoded]))
    dl = target.l - float(np.mean([y.l for y in decoded]))
    want = np.array([reference_encode(HslColor(y.h + dh, y.s + ds, y.l + dl), anchors) for y in decoded])
    scale = float(np.abs(want).max())
    np.testing.assert_allclose(type2(coords, target, anchors), want, rtol=0.0, atol=TOL * scale)


# ---------------------------------------------------------------------------
# grid metrics, mean color, PPM and JSON
# ---------------------------------------------------------------------------

def reference_mean_linear_rgb(cells) -> np.ndarray:
    acc = np.zeros(3)
    for c in cells:
        rgb = hsl_to_rgb(c)
        acc += tuple(srgb_channel_to_linear(v) for v in (rgb.r, rgb.g, rgb.b))
    return acc / len(cells)


def grids(cell=st.tuples(hue, unit, unit)):
    """(dims, pred cells, ref cells) of two equally sized grids."""
    return st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(
        lambda dims: st.tuples(
            st.just(dims),
            st.lists(cell, min_size=dims[0] * dims[1], max_size=dims[0] * dims[1]),
            st.lists(cell, min_size=dims[0] * dims[1], max_size=dims[0] * dims[1]),
        )
    )


def reference_metrics(pred: ColorGrid, ref: ColorGrid) -> tuple[float, float]:
    labs = [(srgb_to_lab(hsl_to_rgb(p)), srgb_to_lab(hsl_to_rgb(r))) for p, r in zip(pred.cells, ref.cells)]
    per_pixel = sum(ciede2000(x, y) for x, y in labs) / len(labs)
    lin_p = reference_mean_linear_rgb(pred.cells)
    lin_r = reference_mean_linear_rgb(ref.cells)
    return per_pixel, ciede2000(linear_rgb_to_lab(*lin_p), linear_rgb_to_lab(*lin_r))


@given(grids(st.tuples(hue, st.floats(0.01, 1.0), st.floats(0.01, 0.99))))
def test_grid_metrics_match_per_cell_reference(case):
    (h, w), a, b = case
    pred = ColorGrid(h, w, [HslColor(*c) for c in a])
    ref = ColorGrid(h, w, [HslColor(*c) for c in b])
    per_pixel, mean_pixel = reference_metrics(pred, ref)
    assert grid_de00_per_pixel(pred, ref) == pytest.approx(per_pixel, rel=TOL, abs=TOL)
    assert grid_de00_mean_pixel(pred, ref) == pytest.approx(mean_pixel, rel=TOL, abs=TOL)


@given(grids())
def test_grid_metrics_with_grey_cells_match_per_cell_reference(case):
    # The Lab a and b of a grey are rounding noise (up to ~6e-14) rather
    # than 0, and CIEDE2000's hue terms turn noise in a near-zero chroma
    # into differences up to ~2e-6 (measured) when pow and cbrt round
    # differently; chromatic cells stay at 1e-12 (test above).
    (h, w), a, b = case
    pred = ColorGrid(h, w, [HslColor(*c) for c in a])
    ref = ColorGrid(h, w, [HslColor(*c) for c in b])
    per_pixel, mean_pixel = reference_metrics(pred, ref)
    assert grid_de00_per_pixel(pred, ref) == pytest.approx(per_pixel, abs=1e-5)
    assert grid_de00_mean_pixel(pred, ref) == pytest.approx(mean_pixel, abs=1e-5)


@given(grids())
def test_mean_color_matches_per_cell_reference(case):
    (h, w), a, _ = case
    grid = ColorGrid(h, w, [HslColor(*c) for c in a])
    picked = list(range(0, h * w, 2))
    got = masked_mean_color(grid, PatchMask(h * w, frozenset(picked)))
    lin = reference_mean_linear_rgb([grid.cells[i] for i in picked])
    want = rgb_to_hsl(RgbColor(*(linear_channel_to_srgb(v) for v in lin)))
    # compared in RGB: the hue of a near-grey mean is ill-conditioned
    got_rgb, want_rgb = hsl_to_rgb(got), hsl_to_rgb(want)
    np.testing.assert_allclose((got_rgb.r, got_rgb.g, got_rgb.b), (want_rgb.r, want_rgb.g, want_rgb.b), rtol=0, atol=TOL)


@given(grids(), st.integers(1, 3))
def test_render_ppm_matches_per_cell_reference(case, cell_px):
    (h, w), a, _ = case
    grid = ColorGrid(h, w, [HslColor(*c) for c in a])
    rows = bytearray()
    for gy in range(h):
        row = b"".join(bytes(hsl_to_rgb(grid.cells[gy * w + gx]).to_8bit()) * cell_px for gx in range(w))
        rows += row * cell_px
    assert render_ppm(grid, cell_px) == f"P6\n{w * cell_px} {h * cell_px}\n255\n".encode() + bytes(rows)


# A fixed grid with achromatic cells, hue 0 and just below 360, and
# lightness near 1, and the digests of what the per-cell implementation
# (commit 58f291a) wrote for it.
PINNED_CELLS = [
    (0.0, 1.0, 0.5), (359.9999999, 0.7, 0.4), (0.0, 0.0, 0.5), (0.0, 0.0, 0.0),
    (0.0, 0.0, 1.0), (45.3, 0.33, 0.71), (120.0, 1.0, 0.5), (200.25, 0.8, 0.2),
    (240.0, 1.0, 0.5), (299.99, 0.05, 0.95), (12.5, 1.0, 0.999), (330.0, 0.5, 0.5),
]
PINNED_JSON = (457, "7092fab717d42813ff51aa3942864591ec037ee82119ea878439958a5643e044")
PINNED_PPM_3PX = (336, "536a518e712dbc6582011cc1208e9e33e9e6819495e2ee27478234b11a7073ac")


def digest(data: bytes) -> tuple[int, str]:
    return len(data), hashlib.sha256(data).hexdigest()


def test_pinned_grid_bytes(tmp_path):
    grid = ColorGrid(3, 4, [HslColor(*c) for c in PINNED_CELLS])
    path = tmp_path / "grid.json"
    grid.save(path)
    assert digest(path.read_bytes()) == PINNED_JSON
    assert digest(render_ppm(grid, cell_px=3)) == PINNED_PPM_3PX
    assert ColorGrid.load(path) == grid


def test_grid_from_hsl_equals_grid_from_cells():
    colors = [HslColor(*c) for c in PINNED_CELLS]
    grid = ColorGrid(3, 4, colors)
    assert grid.hsl.shape == (3, 4, 3)
    assert ColorGrid.from_hsl(hsl_rows(colors).reshape(3, 4, 3)) == grid
    assert grid.cells == tuple(colors)
    with pytest.raises(ValueError):
        grid.hsl[0, 0, 0] = 1.0  # read-only


def test_grid_from_hsl_canonicalizes_and_validates():
    grid = ColorGrid.from_hsl([[[-30.0, 1.5, -0.5]]])
    assert grid.cells == (HslColor(330.0, 1.0, 0.0),)
    for bad in (np.zeros((2, 3)), np.zeros((1, 2, 2)), np.zeros((0, 2, 3))):
        with pytest.raises(ValueError):
            ColorGrid.from_hsl(bad)


@pytest.mark.parametrize(
    "obj",
    [
        {"height": 1, "width": 2, "cells": [[0.0, 1.0, 0.5]]},
        {"height": 1, "width": 1, "cells": [[0.0, 1.0]]},
        {"height": 0, "width": 1, "cells": []},
        {"height": 1, "width": 2, "cells": [[0.0, 1.0, 0.5], [1.0]]},
    ],
)
def test_grid_json_rejects_malformed_cells(obj):
    with pytest.raises(ValueError):
        ColorGrid.from_json_dict(obj)

