"""Array kernels checked against the per-color reference.

The reference is the scalar code: the per-color conversions in
colorref.py, and below, the per-vector bicone decode and the per-cell
grid loops that the array code replaced. Where a kernel does the
reference's arithmetic elementwise it must match bit for bit. Where numpy's
vectorized pow, atan2, hypot or exp stand in for the C library's (Lab,
CIEDE2000, decode), or where sums run in another order (grid means), the
tolerance is 1e-12, with hue compared circularly.
"""

import dataclasses
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
    regular_anchors,
    render_ppm,
    type2,
)
from latentcolor.bicone import HUE_DEGREES
from latentcolor.colorspace import (
    HslColor,
    LabColor,
    canonical_hsl,
    ciede2000_array,
    circular_mean_hue,
    hsl_to_rgb_array,
    linear_rgb_to_lab_array,
    linear_to_srgb_array,
    rgb_to_hsl_array,
    signed_hue_delta,
    srgb_to_linear_array,
    _T_COS,
    _T_SIN,
    _ciede2000,
    _ciede_t,
    _from_planes,
    _hsl_to_rgb,
    _linear_to_lab,
    _to_planes,
)
from latentcolor.bicone import _decode_planes
from latentcolor.observe import mean_color
from latentcolor.subspace import project
from latentcolor.timestats import _chart, normalize
from colorref import (
    _M_XYZ as REF_M_XYZ,
    _WHITE as REF_WHITE,
    ciede2000,
    hsl_to_rgb,
    linear_channel_to_srgb,
    linear_rgb_to_lab,
    rgb_to_hsl,
    srgb_channel_to_linear,
    srgb_to_lab,
)
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
    want = np.array([hsl_to_rgb(c) for c in colors])
    assert np.array_equal(hsl_to_rgb_array(hsl_rows(colors)), want)


def test_hsl_to_rgb_array_keeps_leading_axes():
    grid = np.array([[[0.0, 1.0, 0.5], [120.0, 1.0, 0.5]], [[240.0, 1.0, 0.5], [0.0, 0.0, 1.0]]])
    assert np.array_equal(hsl_to_rgb_array(grid), [[[1, 0, 0], [0, 1, 0]], [[0, 0, 1], [1, 1, 1]]])
    assert np.array_equal(hsl_to_rgb_array(grid[0, 0]), [1.0, 0.0, 0.0])


channel = st.one_of(
    st.floats(-0.5, 1.5),
    st.sampled_from([-0.0, 0.0, 0.5, 1.0, -1e-300, 5e-324, math.nextafter(0.5, 0.0), math.nextafter(1.0, 2.0)]),
)


@given(st.lists(st.tuples(channel, channel, channel), min_size=1, max_size=16))
def test_rgb_to_hsl_array_is_reference_bitwise(rows):
    # every row also as a grey and with two channels sharing the maximum (or minimum) in each position
    rows = rows + [v for a, b, c in rows for v in ((a, a, a), (a, a, c), (a, c, a), (c, a, a), (b, -0.0, 0.0))]
    want = hsl_rows(map(rgb_to_hsl, rows))
    assert_same_bits(rgb_to_hsl_array(rows), want)
    assert_same_bits(rgb_to_hsl_array(rows[0]), want[0])


def test_rgb_to_hsl_array_is_reference_bitwise_on_8bit_colors():
    greys = [(v, v, v) for v in range(256)]
    cube = [(r, g, b) for r in range(0, 256, 17) for g in range(0, 256, 17) for b in range(0, 256, 17)]
    rows = (np.array(greys + cube + np.random.default_rng(3).integers(0, 256, (20000, 3)).tolist()) / 255.0).tolist()
    assert_same_bits(rgb_to_hsl_array(rows), hsl_rows(map(rgb_to_hsl, rows)))
    assert rgb_to_hsl_array(np.reshape(rows[:12], (3, 4, 3))).shape == (3, 4, 3)


SRGB_SEAM = 0.0031308


@given(st.lists(st.one_of(st.floats(-0.1, 1.5), st.sampled_from([0.0, -0.0, 1.0])), min_size=1, max_size=16))
def test_linear_to_srgb_array_matches_reference(xs):
    xs = xs + [SRGB_SEAM, math.nextafter(SRGB_SEAM, 0.0), math.nextafter(SRGB_SEAM, 1.0)]
    want = [linear_channel_to_srgb(x) for x in xs]
    np.testing.assert_allclose(linear_to_srgb_array(xs), want, rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(linear_to_srgb_array(np.reshape(xs[-3:], (1, 3))), [want[-3:]], rtol=0.0, atol=1e-15)


@given(st.lists(st.tuples(unit, unit, unit), min_size=1, max_size=16))
def test_srgb_to_lab_kernels_match_scalar(rows):
    # the sRGB-to-Lab composition of the transfer and Lab kernels, and each kernel on its own
    rows = rows + [(0.04045, 0.0, 1.0)]
    want = np.array([(c.L, c.a, c.b) for c in map(srgb_to_lab, rows)])
    np.testing.assert_allclose(linear_rgb_to_lab_array(srgb_to_linear_array(rows)), want, rtol=TOL, atol=TOL)
    lin = np.array([[srgb_channel_to_linear(v) for v in r] for r in rows])
    np.testing.assert_allclose(srgb_to_linear_array(rows), lin, rtol=TOL, atol=TOL)
    want = np.array([(c.L, c.a, c.b) for c in (linear_rgb_to_lab(*r) for r in lin.tolist())])
    np.testing.assert_allclose(linear_rgb_to_lab_array(lin), want, rtol=TOL, atol=TOL)


@given(unit)
def test_lab_of_an_exact_grey_has_zero_a_and_b(v):
    for lab in (srgb_to_lab((v, v, v)), linear_rgb_to_lab(v, v, v)):
        assert (lab.a, lab.b) == (0.0, 0.0)
    rows = [(v, v, v), (v, v, v)]
    assert not linear_rgb_to_lab_array(srgb_to_linear_array(rows))[:, 1:].any()
    assert not linear_rgb_to_lab_array(rows)[:, 1:].any()


@given(st.lists(st.tuples(st.one_of(lab, blue_lab()), st.one_of(lab, blue_lab())), min_size=1, max_size=16))
def test_ciede2000_array_matches_scalar(pairs):
    # each first color also against its exact complement, whose hue lies exactly 180 degrees away
    complements = [(x, (y[0], -x[1], -x[2])) for x, y in pairs]
    pairs = pairs + complements + [((50.0, 0.0, 0.0), (50.0, -0.0, 0.0)), ((40.0, 0.0, -30.0), (40.0, 0.0, -30.0))]
    x = np.array([p[0] for p in pairs])
    y = np.array([p[1] for p in pairs])
    want = [ciede2000(LabColor(*a), LabColor(*b)) for a, b in pairs]
    np.testing.assert_allclose(ciede2000_array(x, y), want, rtol=TOL, atol=TOL)


def reference_hue_sum(x, y) -> float:
    """h1' + h2' in degrees, as colorref.ciede2000 works them out."""
    c_bar = (math.hypot(x[1], x[2]) + math.hypot(y[1], y[2])) / 2.0
    g = 0.5 * (1.0 - math.sqrt(c_bar ** 7 / (c_bar ** 7 + 25.0 ** 7)))
    h1, h2 = (math.degrees(math.atan2(c[2], (1.0 + g) * c[1])) % 360.0 for c in (x, y))
    return h1 + h2


def test_ciede2000_array_edge_families_match_scalar():
    rng = np.random.default_rng(83)
    n = 400
    chromatic = np.column_stack([rng.uniform(0.0, 100.0, n), rng.uniform(-120.0, 120.0, (n, 2))])
    other_L = rng.uniform(0.0, 100.0, n)
    # no chroma, with every sign of zero: atan2(+-0, -0.0) is +-pi, which must not reach the mean hue
    zeros = [(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0)]
    grey = np.array([(L, *zeros[i % 4]) for i, L in enumerate(other_L)])
    # conjugate hues h and 360 - h at twice the chroma: the reference's hue sum is exactly 360
    conjugate = np.column_stack([other_L, 2.0 * chromatic[:, 1], -2.0 * chromatic[:, 2]])
    assert all(reference_hue_sum(x, y) == 360.0 for x, y in zip(chromatic.tolist(), conjugate.tolist()))
    # antiparallel at twice the chroma: exactly complementary without being a negation
    antiparallel = np.column_stack([other_L, -2.0 * chromatic[:, 1], -2.0 * chromatic[:, 2]])
    hue = rng.uniform(np.radians(230.0), np.radians(320.0), (2, n))
    chroma = rng.uniform(0.0, 120.0, (2, n))
    blue = [np.column_stack([rng.uniform(0.0, 100.0, n), c * np.cos(h), c * np.sin(h)]) for h, c in zip(hue, chroma)]
    # nearly antiparallel: the rounded products -k a and -k b leave the chroma a few ulps off
    # antiparallel, too close for atan2 to tell on which side
    k = rng.uniform(0.1, 3.0, n)
    near_antiparallel = np.column_stack([other_L, -k * chromatic[:, 1], -k * chromatic[:, 2]])
    for x, y in [(grey, chromatic), (chromatic, grey), (grey, grey[::-1]), (chromatic, conjugate),
                 (conjugate, chromatic), (chromatic, antiparallel), tuple(blue), (blue[0], chromatic),
                 (chromatic, near_antiparallel), (near_antiparallel, chromatic)]:
        want = [ciede2000(LabColor(*a), LabColor(*b)) for a, b in zip(x.tolist(), y.tolist())]
        np.testing.assert_allclose(ciede2000_array(x, y), want, rtol=TOL, atol=TOL)


def test_lab_array_matches_scalar_at_the_cube_root_toe():
    # a grey of v gives t = v exactly in each channel; the toe is t = (6/29)^3 = 216/24389
    toe = 216.0 / 24389.0
    near = [math.nextafter(toe, 0.0), toe, math.nextafter(toe, 1.0)]
    rows = [(v, v, v) for v in near] + [(v, toe, 1.0 - v) for v in near] + [(toe, v, toe) for v in near]
    want = np.array([(c.L, c.a, c.b) for c in (linear_rgb_to_lab(*r) for r in rows)])
    np.testing.assert_allclose(linear_rgb_to_lab_array(rows), want, rtol=TOL, atol=TOL)


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
    th0 = HUE_DEGREES[k]
    th1 = HUE_DEGREES[k + 1] if k < 5 else 360.0
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
        # canonical_hsl runs once in observe; a second pass would change no bit
        charted, _ = _chart(frames[t], model, t, toy_stats)
        assert grid.hsl.tobytes() == ColorGrid.from_hsl(decode(charted, anchors).reshape(8, 8, 3)).hsl.tobytes()


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
        acc += tuple(srgb_channel_to_linear(v) for v in hsl_to_rgb(c))
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
    # Exact greys have a* = b* = 0 on both paths, so they match like
    # chromatic cells. A near-grey cell (s or 1 - l a few ulps above 0)
    # has a true chroma near 1e-14, and CIEDE2000's sqrt(C1 * C2) and
    # hue terms turn the last-bit differences between numpy's and the C
    # library's pow into de00 differences up to ~4e-6 (measured on
    # 100k targeted pairs, 1.7e-4 of them above 1e-6). Hypothesis draws
    # such cells rarely: the worst over 60k examples was 1.7e-7.
    (h, w), a, b = case
    pred = ColorGrid(h, w, [HslColor(*c) for c in a])
    ref = ColorGrid(h, w, [HslColor(*c) for c in b])
    per_pixel, mean_pixel = reference_metrics(pred, ref)
    assert grid_de00_per_pixel(pred, ref) == pytest.approx(per_pixel, abs=1e-6)
    assert grid_de00_mean_pixel(pred, ref) == pytest.approx(mean_pixel, abs=1e-6)


@given(grids())
def test_mean_color_matches_per_cell_reference(case):
    (h, w), a, _ = case
    grid = ColorGrid(h, w, [HslColor(*c) for c in a])
    picked = list(range(0, h * w, 2))
    got = masked_mean_color(grid, PatchMask(h * w, frozenset(picked)))
    lin = reference_mean_linear_rgb([grid.cells[i] for i in picked])
    np.testing.assert_allclose(got, lin, rtol=0, atol=TOL)
    # as displayed, compared in RGB: the hue of a near-grey mean is ill-conditioned
    shown = HslColor(*rgb_to_hsl_array(linear_to_srgb_array(got)).tolist())
    want = rgb_to_hsl([linear_channel_to_srgb(v) for v in lin])
    np.testing.assert_allclose(hsl_to_rgb(shown), hsl_to_rgb(want), rtol=0, atol=TOL)


@pytest.mark.parametrize("h, w", [(1, 1), (1, 2), (3, 5), (8, 8), (64, 64)])
def test_grid_means_are_the_axis0_mean_bitwise(h, w):
    # the running sums per column add what mean(axis=0) adds, in the same order
    rng = np.random.default_rng(h * 100 + w)
    for _ in range(20):
        hsl = np.column_stack([rng.uniform(0.0, 360.0, h * w), rng.uniform(0.0, 1.0, (h * w, 2)) ** 3.0])
        grid = ColorGrid.from_hsl(hsl.reshape(h, w, 3))
        want = srgb_to_linear_array(hsl_to_rgb_array(hsl)).mean(axis=0)
        assert_same_bits(masked_mean_color(grid, PatchMask.full(h * w)), want)
        assert_same_bits(mean_color(hsl), want)
        blocks = np.stack([hsl, hsl[::-1], hsl ** 0.5])  # a stack of blocks: each mean has its own block's bits
        assert_same_bits(mean_color(blocks), np.stack([mean_color(block) for block in blocks]))


@given(grids(), st.integers(1, 3))
def test_render_ppm_matches_per_cell_reference(case, cell_px):
    (h, w), a, _ = case
    grid = ColorGrid(h, w, [HslColor(*c) for c in a])
    rows = bytearray()
    for gy in range(h):
        row = b"".join(bytes(round(v * 255.0) for v in hsl_to_rgb(grid.cells[gy * w + gx])) * cell_px for gx in range(w))
        rows += row * cell_px
    assert render_ppm(grid, cell_px) == f"P6\n{w * cell_px} {h * cell_px}\n255\n".encode() + bytes(rows)


def bits(x):
    """x with every float spelled out exactly (float.hex), for bitwise comparison."""
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, np.ndarray):
        return x.shape, tuple(v.hex() for v in x.ravel().tolist())
    return x


def uncached_outputs(pred: ColorGrid, ref: ColorGrid, picked: list[int]) -> dict:
    """What the grid functions return, composed afresh from the kernels on the hsl arrays."""

    def lab(g):
        return linear_rgb_to_lab_array(srgb_to_linear_array(hsl_to_rgb_array(g.hsl)))

    def mean_linear(g, rows):
        return srgb_to_linear_array(hsl_to_rgb_array(g.hsl.reshape(-1, 3)[rows])).mean(axis=0)

    def mean_lab(g):
        return linear_rgb_to_lab_array(mean_linear(g, slice(None)))

    def ppm(k):
        rgb8 = np.rint(hsl_to_rgb_array(pred.hsl) * 255.0).astype(np.uint8)
        pixels = np.repeat(np.repeat(rgb8, k, axis=0), k, axis=1)
        return f"P6\n{pred.width * k} {pred.height * k}\n255\n".encode() + pixels.tobytes()

    return {
        "per_pixel": float(np.mean(ciede2000_array(lab(pred), lab(ref)))),
        "mean_pixel": float(ciede2000_array(mean_lab(pred), mean_lab(ref))),
        "masked_pred": mean_linear(pred, picked),
        "masked_ref": mean_linear(ref, picked),
        **{f"ppm{k}": ppm(k) for k in (1, 2, 3)},
    }


@given(grids(), st.data())
def test_cached_conversions_match_fresh_kernels_bitwise(case, data):
    # A grid converts its cells to sRGB, linear RGB and Lab once and
    # keeps the arrays; every function must return what the kernels give
    # afresh, whatever the order of calls and however often.
    (h, w), a, b = case
    picked = sorted(data.draw(st.sets(st.integers(0, h * w - 1), min_size=1), label="mask"))

    def grid(cells):
        return ColorGrid(h, w, [HslColor(*c) for c in cells])

    want = uncached_outputs(grid(a), grid(b), picked)
    pred, ref = grid(a), grid(b)
    mask = PatchMask(h * w, frozenset(picked))
    calls = {
        "per_pixel": lambda: grid_de00_per_pixel(pred, ref),
        "mean_pixel": lambda: grid_de00_mean_pixel(pred, ref),
        "masked_pred": lambda: masked_mean_color(pred, mask),
        "masked_ref": lambda: masked_mean_color(ref, mask),
        **{f"ppm{k}": (lambda k=k: render_ppm(pred, k)) for k in (1, 2, 3)},
    }
    order = data.draw(st.permutations(sorted(calls)), label="order")
    for name in order + order:  # the second round reads filled caches
        assert bits(calls[name]()) == bits(want[name]), name
    for g in (pred, ref):
        for cached in (g._rgb, *g._blocks):
            with pytest.raises(ValueError, match="read-only"):
                cached[0, 0] = 0.5


def fixed_grid(rng, h: int, w: int) -> ColorGrid:
    """A seeded h x w grid: an exact grey and a hue just below 360, then random cells with s and l skewed toward 0."""
    hsl = np.column_stack([rng.uniform(0.0, 360.0, h * w), rng.uniform(0.0, 1.0, (h * w, 2)) ** 3.0])
    hsl[: min(2, h * w)] = [(0.0, 0.0, 0.5), (BELOW_360, 1.0, 0.5)][: h * w]
    return ColorGrid.from_hsl(hsl.reshape(h, w, 3))


@pytest.mark.parametrize("h, w", [(1, 1), (1, 3), (3, 3), (8, 8), (64, 64)])
def test_cached_conversions_match_fresh_kernels_bitwise_at_fixed_sizes(h, w):
    # As test_cached_conversions_match_fresh_kernels_bitwise, at sizes its grids (at most 4x4) never
    # reach: one-cell kernel calls, SIMD tails, and a 64x64 grid whose blocks hold 4096 + 1 columns.
    rng = np.random.default_rng(h * 100 + w)
    pred, ref = fixed_grid(rng, h, w), fixed_grid(rng, h, w)
    picked = sorted(rng.choice(h * w, size=max(1, h * w // 2), replace=False).tolist())
    want = uncached_outputs(pred, ref, picked)
    mask = PatchMask(h * w, frozenset(picked))
    calls = {
        "per_pixel": lambda: grid_de00_per_pixel(pred, ref),
        "mean_pixel": lambda: grid_de00_mean_pixel(pred, ref),
        "masked_pred": lambda: masked_mean_color(pred, mask),
        "masked_ref": lambda: masked_mean_color(ref, mask),
        **{f"ppm{k}": (lambda k=k: render_ppm(pred, k)) for k in (1, 2, 3)},
    }
    order = sorted(calls)
    for name in order + order[::-1]:  # the second round reads filled caches
        assert bits(calls[name]()) == bits(want[name]), name


def test_comparison_slot_follows_the_ref_object():
    # A grid keeps the CIEDE2000 against its last ref only. Switching refs, alternating the two
    # metrics, swapping roles, and a ref equal to A that is another object must each give what the
    # kernels give afresh.
    rng = np.random.default_rng(11)
    pred, a, b = (fixed_grid(rng, 3, 4) for _ in range(3))
    twin = ColorGrid.from_hsl(a.hsl)
    assert twin == a and twin is not a
    metrics = {"per_pixel": grid_de00_per_pixel, "mean_pixel": grid_de00_mean_pixel}
    for name in metrics:  # a slot that ignored its ref would be seen
        assert uncached_outputs(pred, a, [0])[name] != uncached_outputs(pred, b, [0])[name]
    pairs = [(pred, a), (pred, b), (pred, a), (a, pred), (pred, twin), (pred, b), (twin, pred), (pred, a), (a, b)]
    for i, (p, r) in enumerate(pairs):
        want = uncached_outputs(p, r, [0])
        for name in sorted(metrics, reverse=i % 2 == 1):
            assert bits(metrics[name](p, r)) == bits(want[name]), (i, name)


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
    assert not hasattr(grid, "__dict__")  # slots only, also through the JsonRecord base
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


# ---------------------------------------------------------------------------
# the kernels against the % and searchsorted formulas they replaced
# ---------------------------------------------------------------------------

def modulo_canonical_hsl(hsl) -> np.ndarray:
    hsl = np.asarray(hsl, dtype=np.float64)
    h = hsl[..., 0] % 360.0
    h = np.where(h == 360.0, 0.0, h)
    s, l = (np.where(x < 0.0, 0.0, np.where(x > 1.0, 1.0, x)) for x in (hsl[..., 1], hsl[..., 2]))
    return np.stack([h, s, l], axis=-1)


def modulo_hsl_to_rgb_array(hsl) -> np.ndarray:
    hsl = np.asarray(hsl, dtype=np.float64)
    h, s, l = hsl[..., 0], hsl[..., 1], hsl[..., 2]
    chroma = (1.0 - np.abs(2.0 * l - 1.0)) * s
    hp = h / 60.0
    x = chroma * (1.0 - np.abs(hp % 2.0 - 1.0))
    m = l - chroma / 2.0
    sextant = np.searchsorted(np.array([1.0, 2.0, 3.0, 4.0, 5.0]), hp, side="right")
    channels = np.array([[0, 1, 2], [1, 0, 2], [2, 0, 1], [2, 1, 0], [1, 2, 0], [0, 2, 1]])
    shifted = (chroma + m, x + m, m)
    rgb = np.empty(hsl.shape)
    for c in range(3):
        pick = channels[:, c].take(sextant)
        rgb[..., c] = np.where(pick == 0, shifted[0], np.where(pick == 1, shifted[1], shifted[2]))
    return np.clip(rgb, 0.0, 1.0)


def modulo_decode_raw(c, a) -> np.ndarray:
    c = np.asarray(c, dtype=np.float64).reshape(-1, 3)
    dot3 = lambda rows, v: rows[:, 0] * v[0] + rows[:, 1] * v[1] + rows[:, 2] * v[2]
    rel = c - a.black
    l = dot3(rel, a.axis) / float(a.axis @ a.axis)
    chroma3 = rel - l[:, None] * a.axis
    q0, q1 = dot3(chroma3, a.e1), dot3(chroma3, a.e2)
    radius = np.hypot(q0, q1)
    chromatic = ~(radius < 1e-9)
    ang = np.arctan2(q1, q0) % (2.0 * math.pi)
    k = np.searchsorted(a.chroma_angles, ang, side="right") - 1
    j = (k + 1) % 6
    edges = np.array([0.0, 60.0, 120.0, 180.0, 240.0, 300.0, 360.0])
    pts = a.chroma_points
    cross_k = pts[k, 0] * q1 - pts[k, 1] * q0
    cross_j = pts[j, 0] * q1 - pts[j, 1] * q0
    bicone = 1.0 - np.abs(2.0 * l - 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        alpha = np.minimum(np.maximum(cross_k / (cross_k - cross_j), 0.0), 1.0)
        h = (edges[k] + alpha * (edges[k + 1] - edges[k])) % 360.0
        chord = pts[k] + alpha[:, None] * (pts[j] - pts[k])
        s = radius / (np.hypot(chord[:, 0], chord[:, 1]) * bicone)
    s = np.where(bicone < 1e-6, 0.0, s)
    return np.stack([np.where(chromatic, h, 0.0), np.where(chromatic, s, 0.0), l], axis=1)


def assert_same_bits(got, want) -> None:
    assert [float.hex(v) for v in np.ravel(got).tolist()] == [float.hex(v) for v in np.ravel(want).tolist()]


EDGE_HUES = [
    -0.0, 0.0, -1e-300, -5e-324, 5e-324, 1e-300, BELOW_360, 360.0, -360.0, 720.0, -60.0, 1e20, -1e20,
    *(60.0 * k for k in range(1, 6)),
    *(math.nextafter(60.0 * k, 0.0) for k in range(1, 7)),
    *(math.nextafter(60.0 * k, 360.0) for k in range(0, 6)),
]


@given(raw_rows)
def test_canonical_hsl_is_modulo_formula_bitwise(rows):
    rows = np.array(rows + [(h, -0.0, 1.5) for h in EDGE_HUES]).reshape(-1, 3)
    assert_same_bits(canonical_hsl(rows), modulo_canonical_hsl(rows))
    assert_same_bits(canonical_hsl(rows.reshape(-1, 1, 3)), modulo_canonical_hsl(rows.reshape(-1, 1, 3)))


@given(canonical_rows)
def test_hsl_to_rgb_array_is_modulo_formula_bitwise(rows):
    edges = [(h, s, l) for h in EDGE_HUES for s, l in ((1.0, 0.5), (0.3, 0.8))]
    rows = canonical_hsl(np.array(rows + edges))
    assert_same_bits(hsl_to_rgb_array(rows), modulo_hsl_to_rgb_array(rows))


def edge_anchor_sets(anchors):
    """The fitted anchors, and regular ones whose chroma coordinates decode_raw recovers exactly."""
    regular = regular_anchors(1.0, 1.0)
    # e2 with signed zeros, so a chroma point (x, -0.0) gives q1 = -0.0 and atan2(-0.0, x) = -0.0
    signed = dataclasses.replace(regular, e2=np.array([-0.0, -0.0, 1.0]))
    return anchors, regular, signed


@pytest.mark.parametrize("which", range(3), ids=["fitted", "regular", "signed-zero e2"])
def test_decode_raw_is_modulo_formula_bitwise(anchors, which):
    a = edge_anchor_sets(anchors)[which]
    rng = np.random.default_rng(61)
    mid = a.black + 0.5 * a.axis
    on_points = [np.array([mid[0], x, y]) for x, y in a.chroma_points] if which else []
    special = [
        *rng.normal(mid, 2.0, (2000, 3)),
        *a.hue_anchors,  # angles at (or an ulp off) each chroma_angles entry
        *on_points,  # chroma exactly at each anchor point: the angle is the entry itself
        np.array([mid[0], 0.3, -0.0]),  # atan2(-0.0, 0.3)
        np.array([mid[0], 0.3, -1e-300]),  # just below hue 0: rounds to 2 pi, hue 360, then 0
        a.hue_anchors[0] - 1e-7 * a.e2,
        a.black, a.white, a.black - 0.2 * a.axis,
    ]
    assert_same_bits(decode_raw(np.array(special), a), modulo_decode_raw(np.array(special), a))
    for c in special[-7:]:
        assert_same_bits(decode_raw(c, a), modulo_decode_raw(c, a))


def test_decode_raw_edge_inputs_hit_the_edges(anchors):
    _, regular, signed = edge_anchor_sets(anchors)
    mid = regular.black[0] + 0.5 * regular.axis[0]
    # chroma at each anchor point gives that anchor's hue exactly
    on_points = np.array([[mid, x, y] for x, y in regular.chroma_points])
    assert np.array_equal(decode_raw(on_points, regular)[:, 0], [0.0, 60.0, 120.0, 180.0, 240.0, 300.0])
    for a in (regular, signed):
        assert_same_bits(decode_raw(np.array([mid, 0.3, -0.0]), a)[0], 0.0)
        assert_same_bits(decode_raw(np.array([mid, 0.3, -1e-300]), a)[0], 0.0)


@pytest.mark.parametrize("which", range(3), ids=["fitted", "regular", "signed-zero e2"])
def test_decode_raw_hue_needs_no_wrap(anchors, which):
    # observe clamps only s and l of decode_raw's output: its hue must be canonical already, so
    # canonical_hsl leaves it bit for bit. The inputs are those of test_decode_raw_is_modulo_formula_bitwise.
    a = edge_anchor_sets(anchors)[which]
    rng = np.random.default_rng(61)
    mid = a.black + 0.5 * a.axis
    special = [
        *rng.normal(mid, 2.0, (2000, 3)),
        *a.hue_anchors,
        *([np.array([mid[0], x, y]) for x, y in a.chroma_points] if which else []),
        np.array([mid[0], 0.3, -0.0]),
        np.array([mid[0], 0.3, -1e-300]),
        a.hue_anchors[0] - 1e-7 * a.e2,
        a.black, a.white, a.black - 0.2 * a.axis,
    ]
    raw = decode_raw(np.array(special), a)
    assert_same_bits(canonical_hsl(raw)[..., 0], raw[..., 0])
    assert np.all((raw[..., 0] >= 0.0) & (raw[..., 0] < 360.0)) and not np.any(np.signbit(raw[..., 0]))


def four_cosine_t(h: np.ndarray) -> np.ndarray:
    return (
        1.0
        - 0.17 * np.cos(np.radians(h - 30.0))
        + 0.24 * np.cos(np.radians(2.0 * h))
        + 0.32 * np.cos(np.radians(3.0 * h + 6.0))
        - 0.20 * np.cos(np.radians(4.0 * h - 63.0))
    )


def test_ciede2000_t_term_is_four_cosine_form():
    # the mean hue lies in [0, 360), or [0, 720) as the sum of two hues when one is achromatic;
    # at 180 and 540 degrees the half-angle tangent _ciede_t works from is about 1.6e16
    h = np.concatenate([np.linspace(0.0, 720.0, 720001), np.arange(0.0, 720.0, 0.5), [BELOW_360, -0.0, 180.0, 540.0]])
    rad = np.radians(h)
    assert np.abs(np.tan(rad[-2:] / 2.0)).min() > 1e15
    np.testing.assert_allclose(_ciede_t(rad), four_cosine_t(h), rtol=0.0, atol=1e-12)


def moveaxis_to_planes(colors) -> np.ndarray:
    return np.ascontiguousarray(np.moveaxis(np.asarray(colors, dtype=np.float64), -1, 0))


def moveaxis_from_planes(planes) -> np.ndarray:
    return np.moveaxis(planes, 0, -1).copy()


def strided_views(a: np.ndarray, axis: int) -> list[np.ndarray]:
    """a itself, then views of other arrays that hold a's values: every other entry, reversed, Fortran order."""
    step = (slice(None),) * (axis % a.ndim)
    return [a, np.repeat(a, 2, axis=axis)[step + (slice(None, None, 2),)], np.flip(np.flip(a, axis).copy(), axis),
            np.asfortranarray(a)]


any_float = st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.sampled_from([-0.0, math.nan, -math.nan]))


@given(st.sampled_from([(3,), (1, 3), (5, 3), (2, 4, 3), (1, 1, 3)]), st.data())
def test_plane_adapters_are_moveaxis_bitwise(shape, data):
    colors = np.array(data.draw(st.lists(any_float, min_size=math.prod(shape), max_size=math.prod(shape)))).reshape(shape)
    for view in strided_views(colors, 0):
        planes = _to_planes(view)
        assert planes.flags.c_contiguous and planes.shape == (3, *shape[:-1])
        assert planes.tobytes() == moveaxis_to_planes(view).tobytes()
        for p in strided_views(planes, -1):  # the restack reads any layout
            back = _from_planes(p)
            assert back.flags.c_contiguous and back.tobytes() == moveaxis_from_planes(p).tobytes()
            assert back.tobytes() == np.ascontiguousarray(colors).tobytes()  # the round trip, bit for bit
    assert _to_planes(colors.tolist()).tobytes() == moveaxis_to_planes(colors).tobytes()


# ---------------------------------------------------------------------------
# the in-place kernels against the out-of-place formulas they replaced
# ---------------------------------------------------------------------------
# The kernels write their chains of ops over temporaries they made themselves. Each twin below runs
# the same IEEE operations in the same order, every one into a fresh array, so no bit may differ. An
# operand may swap sides of a product or sum; a regrouping such as l50 / s * 0.015 for 0.015 * l50 / s
# moves the last bits, and these tests fail on it.

def formula_srgb_to_linear(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    lin = np.asarray(x / 12.92)
    np.power((x + 0.055) / 1.055, 2.4, out=lin, where=x > 0.04045)
    return lin


def formula_linear_to_lab(lin) -> np.ndarray:
    r, g, b = moveaxis_to_planes(lin)
    f = []
    for m, w in zip(REF_M_XYZ, REF_WHITE):
        t = (m[0] * r + m[1] * g + m[2] * b) / w
        f.append(np.asarray((24389.0 / 27.0 * t + 16.0) / 116.0))
        np.cbrt(t, out=f[-1], where=t > 216.0 / 24389.0)
    fx, fy, fz = f
    grey = (r == g) & (g == b)
    lab = [116.0 * fy - 16.0, np.where(grey, 0.0, 500.0 * (fx - fy)), np.where(grey, 0.0, 200.0 * (fy - fz))]
    return moveaxis_from_planes(np.array(lab))


def formula_ciede_t(hbp) -> np.ndarray:
    u = np.tan(hbp / 2.0)
    uu = u * u
    w = 1.0 / (1.0 + uu)
    c, a, b = (1.0 - uu) * w, _T_COS, _T_SIN
    p = (((a[4] * c + a[3]) * c + a[2]) * c + a[1]) * c + a[0]
    q = ((b[3] * c + b[2]) * c + b[1]) * c + b[0]
    return p + (2.0 * u * w) * q


def formula_ciede2000(x, y) -> np.ndarray:
    tau = 2.0 * math.pi
    L1, a1, b1 = moveaxis_to_planes(x)
    L2, a2, b2 = moveaxis_to_planes(y)
    bb1, bb2 = b1 * b1, b2 * b2
    c_bar = (np.sqrt(a1 * a1 + bb1) + np.sqrt(a2 * a2 + bb2)) / 2.0
    c7 = (c_bar * c_bar * c_bar) ** 2 * c_bar
    g1 = 1.5 - 0.5 * np.sqrt(c7 / (c7 + 25.0 ** 7))
    a1p, a2p = g1 * a1, g1 * a2
    c1p, c2p = np.sqrt(a1p * a1p + bb1), np.sqrt(a2p * a2p + bb2)
    h1p, h2p = np.arctan2(b1, a1p), np.arctan2(b2, a2p)
    h1p, h2p = h1p + tau * (h1p < 0.0), h2p + tau * (h2p < 0.0)
    dhp, hsum = h2p - h1p, h1p + h2p
    far = (np.abs(dhp) > np.pi / 2.0) & (dhp * (a1 * b2 - b1 * a2) < 0.0)
    v = np.tan(dhp / 4.0)
    dHp = np.where(far, -4.0, 4.0) * np.sqrt(c1p * c2p) * v / (1.0 + v * v)
    hbp = (hsum + far * np.where(hsum < tau, tau, -tau)) / 2.0
    Lbp, Cbp = (L1 + L2) / 2.0, (c1p + c2p) / 2.0
    l50 = (Lbp - 50.0) ** 2
    sL = 1.0 + 0.015 * l50 / np.sqrt(20.0 + l50)
    sC = 1.0 + 0.045 * Cbp
    sH = 1.0 + 0.015 * Cbp * formula_ciede_t(hbp)
    w = np.tan(math.pi / 6.0 * np.exp(-(((hbp - math.radians(275.0)) / math.radians(25.0)) ** 2)))
    cbp7 = (Cbp * Cbp * Cbp) ** 2 * Cbp
    rT = -4.0 * np.sqrt(cbp7 / (cbp7 + 25.0 ** 7)) * w / (1.0 + w * w)
    tL, tC, tH = (L2 - L1) / sL, (c2p - c1p) / sC, dHp / sH
    return np.sqrt(tL * tL + tC * tC + (tH + rT * tC) * tH)


signed_zero = st.sampled_from([0.0, -0.0])
grey_lab = st.tuples(st.floats(0.0, 100.0), signed_zero, signed_zero)
near_grey_lab = st.tuples(st.floats(0.0, 100.0), st.floats(-1e-9, 1e-9), signed_zero)
lab_family = st.one_of(lab, blue_lab(), grey_lab, near_grey_lab)


@given(st.lists(st.tuples(lab_family, lab_family), min_size=1, max_size=16), st.integers(1, 3))
def test_ciede2000_kernel_is_the_formula_bitwise(pairs, k):
    x = np.array([p[0] for p in pairs])
    # each first color also against its exact complement and its antiparallel double (a power-of-2 scale
    # keeps the negated chroma exact), and the pairs the other way round
    y = np.array([p[1] for p in pairs])
    y_anti, y_double = x * [1.0, -1.0, -1.0], x * [1.0, -2.0, -2.0]
    x, y = np.concatenate([x, x, x, y]), np.concatenate([y, y_anti, y_double, x])
    assert_same_bits(ciede2000_array(x, y), formula_ciede2000(x, y))
    for i in (0, -1):  # single colors, whose planes are numpy scalars
        assert_same_bits(ciede2000_array(x[i], y[i]), formula_ciede2000(x[i], y[i]))
        assert type(ciede2000_array(x[i], y[i])) is type(formula_ciede2000(x[i], y[i]))
        assert_same_bits(ciede2000_array(x, y[i]), formula_ciede2000(x, y[i]))
        assert_same_bits(ciede2000_array(x[i], y), formula_ciede2000(x[i], y))
    stack = np.stack([np.roll(x, j, axis=0) for j in range(k)])  # (k, n) against (n,) and (k, 1) against (n,)
    assert_same_bits(ciede2000_array(stack, y), formula_ciede2000(stack, y))
    assert_same_bits(ciede2000_array(stack[:, :1], y), formula_ciede2000(stack[:, :1], y))


def test_ciede2000_kernel_is_the_formula_bitwise_on_a_seeded_batch():
    rng = np.random.default_rng(181)
    x = np.column_stack([rng.uniform(0.0, 100.0, 4096), rng.uniform(-120.0, 120.0, (4096, 2))])
    y = np.column_stack([rng.uniform(0.0, 100.0, 4096), rng.uniform(-120.0, 120.0, (4096, 2))])
    x[::7, 1:] = 0.0
    y[::5, 1:] = -3.0 * x[::5, 1:]
    assert_same_bits(ciede2000_array(x, y), formula_ciede2000(x, y))


def test_ciede_t_is_the_formula_bitwise():
    h = np.concatenate([np.linspace(0.0, 4.0 * math.pi, 100001), [math.pi, 3.0 * math.pi, -0.0, 0.0]])
    assert_same_bits(_ciede_t(h), formula_ciede_t(h))
    assert_same_bits(_ciede_t(np.float64(1.25)), formula_ciede_t(np.float64(1.25)))


TOE = 216.0 / 24389.0
toe_value = st.sampled_from([math.nextafter(TOE, 0.0), TOE, math.nextafter(TOE, 1.0), 0.0, -0.0, 1.0, 5e-324])
channel_family = st.one_of(unit, toe_value, st.floats(-0.1, 1.2))


@given(st.lists(st.one_of(st.tuples(channel_family, channel_family, channel_family),
                          channel_family.map(lambda v: (v, v, v))), min_size=1, max_size=16))
def test_linear_to_lab_kernel_is_the_formula_bitwise(rows):
    lin = np.array(rows)
    assert_same_bits(linear_rgb_to_lab_array(lin), formula_linear_to_lab(lin))
    assert_same_bits(linear_rgb_to_lab_array(lin[0]), formula_linear_to_lab(lin[0]))
    stack = np.stack([lin, lin[::-1]])
    assert_same_bits(linear_rgb_to_lab_array(stack), formula_linear_to_lab(stack))
    assert_same_bits(_linear_to_lab(_to_planes(stack)), moveaxis_to_planes(formula_linear_to_lab(stack)))


@given(st.lists(st.one_of(channel_family, st.sampled_from([0.04045, math.nextafter(0.04045, 1.0), -0.2])),
                min_size=1, max_size=48))
def test_srgb_to_linear_is_the_formula_bitwise(values):
    x = np.array(values)
    assert_same_bits(srgb_to_linear_array(x), formula_srgb_to_linear(x))
    assert_same_bits(srgb_to_linear_array(x[0]), formula_srgb_to_linear(x[0]))
    if x.size % 3 == 0:
        planes = x.reshape(3, 1, -1)
        assert_same_bits(srgb_to_linear_array(planes), formula_srgb_to_linear(planes))


def writable_and_frozen_copies(a: np.ndarray) -> list[np.ndarray]:
    frozen = a.copy()
    frozen.flags.writeable = False
    return [a.copy(), frozen, np.asfortranarray(a)]


@given(st.integers(1, 40), st.integers(0, 2**32 - 1))
def test_read_path_kernels_leave_their_inputs_alone(anchors, model, toy_stats, n, seed):
    rng = np.random.default_rng(seed)
    hsl = np.stack([rng.uniform(0.0, 360.0, n), rng.uniform(0.0, 1.0, n), rng.uniform(0.0, 1.0, n)])
    lin = rng.uniform(-0.1, 1.1, (3, n))
    lin[:, ::3] = lin[0, ::3]  # greys
    labs = _linear_to_lab(lin)
    calls = [
        (lambda c: _decode_planes(c, anchors), rng.normal(anchors.black + 0.5 * anchors.axis, 2.0, (n, 3)).T),
        (_hsl_to_rgb, hsl), (_hsl_to_rgb, hsl[:, 0]),
        (srgb_to_linear_array, lin), (srgb_to_linear_array, lin[:, 0]),
        (_linear_to_lab, lin), (_linear_to_lab, lin[:, 0]),
        (lambda y: _ciede2000(labs[:, ::-1], y), labs), (lambda x: _ciede2000(x, labs[:, 0]), labs),
        (lambda x: _ciede2000(x, labs[:, :1]), labs[:, 0]), (lambda x: _ciede2000(x, labs[:, 0]), labs[:, 0]),
    ]
    fixed = labs.tobytes()  # the other operand of the CIEDE2000 calls
    for kernel, arg in calls:
        for a in writable_and_frozen_copies(arg):
            before = a.tobytes()
            kernel(a)
            assert a.tobytes() == before
    assert labs.tobytes() == fixed
    z = rng.normal(0.0, 1.0, (n, model.dim))
    for a in writable_and_frozen_copies(z):
        before = a.tobytes()
        observe(a, int(rng.integers(1, 51)), model, anchors, toy_stats, (1, n))
        assert a.tobytes() == before
