"""Color conversions checked against published reference data and the
stdlib colorsys module."""

import colorsys
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from latentcolor.cli import _hsl_error
from latentcolor.colorspace import (
    HslColor,
    LabColor,
    ciede2000,
    circular_mean_hue,
    hsl_to_rgb_array,
    linear_rgb_to_lab_array,
    linear_to_srgb_array,
    parse_hex,
    rgb_to_hsl,
    rgb_to_hsl_array,
    signed_hue_delta,
    srgb_to_linear_array,
)
from latentcolor.toyflow import _hsv_to_hsl

# Standard CIEDE2000 verification set: Lab pair and expected difference,
# published to 4 decimals.
CIEDE2000_PAIRS = [
    ((50.0000, 2.6772, -79.7751), (50.0000, 0.0000, -82.7485), 2.0425),
    ((50.0000, 3.1571, -77.2803), (50.0000, 0.0000, -82.7485), 2.8615),
    ((50.0000, 2.8361, -74.0200), (50.0000, 0.0000, -82.7485), 3.4412),
    ((50.0000, -1.3802, -84.2814), (50.0000, 0.0000, -82.7485), 1.0000),
    ((50.0000, -1.1848, -84.8006), (50.0000, 0.0000, -82.7485), 1.0000),
    ((50.0000, -0.9009, -85.5211), (50.0000, 0.0000, -82.7485), 1.0000),
    ((50.0000, 0.0000, 0.0000), (50.0000, -1.0000, 2.0000), 2.3669),
    ((50.0000, -1.0000, 2.0000), (50.0000, 0.0000, 0.0000), 2.3669),
    ((50.0000, 2.4900, -0.0010), (50.0000, -2.4900, 0.0009), 7.1792),
    ((50.0000, 2.4900, -0.0010), (50.0000, -2.4900, 0.0010), 7.1792),
    ((50.0000, 2.4900, -0.0010), (50.0000, -2.4900, 0.0011), 7.2195),
    ((50.0000, 2.4900, -0.0010), (50.0000, -2.4900, 0.0012), 7.2195),
    ((50.0000, -0.0010, 2.4900), (50.0000, 0.0009, -2.4900), 4.8045),
    ((50.0000, -0.0010, 2.4900), (50.0000, 0.0010, -2.4900), 4.8045),
    ((50.0000, -0.0010, 2.4900), (50.0000, 0.0011, -2.4900), 4.7461),
    ((50.0000, 2.5000, 0.0000), (50.0000, 0.0000, -2.5000), 4.3065),
    ((50.0000, 2.5000, 0.0000), (73.0000, 25.0000, -18.0000), 27.1492),
    ((50.0000, 2.5000, 0.0000), (61.0000, -5.0000, 29.0000), 22.8977),
    ((50.0000, 2.5000, 0.0000), (56.0000, -27.0000, -3.0000), 31.9030),
    ((50.0000, 2.5000, 0.0000), (58.0000, 24.0000, 15.0000), 19.4535),
    ((50.0000, 2.5000, 0.0000), (50.0000, 3.1736, 0.5854), 1.0000),
    ((50.0000, 2.5000, 0.0000), (50.0000, 3.2972, 0.0000), 1.0000),
    ((50.0000, 2.5000, 0.0000), (50.0000, 1.8634, 0.5757), 1.0000),
    ((50.0000, 2.5000, 0.0000), (50.0000, 3.2592, 0.3350), 1.0000),
    ((60.2574, -34.0099, 36.2677), (60.4626, -34.1751, 39.4387), 1.2644),
    ((63.0109, -31.0961, -5.8663), (62.8187, -29.7946, -4.0864), 1.2630),
    ((61.2901, 3.7196, -5.3901), (61.4292, 2.2480, -4.9620), 1.8731),
    ((35.0831, -44.1164, 3.7933), (35.0232, -40.0716, 1.5901), 1.8645),
    ((22.7233, 20.0904, -46.6940), (23.0331, 14.9730, -42.5619), 2.0373),
    ((36.4612, 47.8580, 18.3852), (36.2715, 50.5065, 21.2231), 1.4146),
    ((90.8027, -2.0831, 1.4410), (91.1528, -1.6435, 0.0447), 1.4441),
    ((90.9257, -0.5406, -0.9208), (88.6381, -0.8985, -0.7239), 1.5381),
    ((6.7747, -0.2908, -2.4247), (5.8714, -0.0985, -2.2286), 0.6377),
    ((2.0776, 0.0795, -1.1350), (0.9033, -0.0636, -0.5514), 0.9082),
]

# D65 Lab coordinates of the sRGB primaries, quoted to 4 decimals.
LAB_REFERENCES = [
    ((1.0, 0.0, 0.0), (53.2408, 80.0925, 67.2032)),
    ((0.0, 1.0, 0.0), (87.7347, -86.1827, 83.1793)),
    ((0.0, 0.0, 1.0), (32.2970, 79.1875, -107.8602)),
    ((0.5, 0.5, 0.5), (53.3890, 0.0, 0.0)),
]

hue = st.floats(0.0, 360.0, exclude_max=True, allow_nan=False)
unit = st.floats(0.0, 1.0, allow_nan=False)
byte = st.integers(0, 255)


def hues_equal(a: float, b: float, tol: float) -> bool:
    return abs(signed_hue_delta(a, b)) <= tol


# the kernels on one color, to meet the per-color oracles below
def hsl_to_rgb(c: HslColor) -> tuple[float, float, float]:
    return tuple(hsl_to_rgb_array((c.h, c.s, c.l)).tolist())


def to_8bit(rgb) -> tuple[int, ...]:
    return tuple(round(v * 255.0) for v in rgb)


def to_8bit_via_hsl(rgb8) -> list[tuple[int, ...]]:
    """8-bit sRGB rows sent to HSL and back, as 8-bit rows."""
    back = hsl_to_rgb_array(rgb_to_hsl_array(np.array(rgb8) / 255.0))
    return [to_8bit(c) for c in back.reshape(-1, 3).tolist()]


def srgb_to_lab(rgb) -> LabColor:
    return LabColor(*linear_rgb_to_lab_array(srgb_to_linear_array(rgb)).tolist())


def to_linear(x: float) -> float:
    return float(srgb_to_linear_array(x))


def to_srgb(x: float) -> float:
    return float(linear_to_srgb_array(x))


# ---------------------------------------------------------------------------
# dataclasses and hex parsing
# ---------------------------------------------------------------------------

def test_rgb_clamps_channels():
    assert rgb_to_hsl((-0.5, 0.25, 1.5)) == rgb_to_hsl((0.0, 0.25, 1.0)) == rgb_to_hsl(np.array([-0.5, 0.25, 1.5]))


def test_hsl_wraps_hue_and_clamps():
    c = HslColor(-30.0, 1.7, -0.2)
    assert (c.h, c.s, c.l) == (330.0, 1.0, 0.0)
    assert HslColor(720.0, 0.5, 0.5).h == 0.0
    assert HslColor(-0.0, 0.5, 0.5).h == 0.0


def test_parse_hex():
    c = parse_hex("#D81511")
    assert c.shape == (3,)
    assert to_8bit(c) == (0xD8, 0x15, 0x11)
    assert to_8bit(parse_hex("ffffff")) == (255, 255, 255)


@pytest.mark.parametrize("bad", ["", "#fff", "12345", "1234567", "gg0000", "#12 456", "##FF0000"])
def test_parse_hex_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_hex(bad)


def test_8bit_roundtrip_exact_for_all_bytes():
    for v in range(256):
        rgb = parse_hex(f"#{v:02x}{255 - v:02X}{v // 2:02x}")
        assert rgb.tolist() == [v / 255.0, (255 - v) / 255.0, (v // 2) / 255.0]  # each byte over 255, exactly
        assert to_8bit(rgb) == (v, 255 - v, v // 2)


# ---------------------------------------------------------------------------
# RGB <-> HSL, HSV -> HSL (stdlib colorsys as the oracle)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "rgb,hsl",
    [
        ((1.0, 0.0, 0.0), (0.0, 1.0, 0.5)),
        ((1.0, 1.0, 0.0), (60.0, 1.0, 0.5)),
        ((0.0, 1.0, 0.0), (120.0, 1.0, 0.5)),
        ((0.0, 1.0, 1.0), (180.0, 1.0, 0.5)),
        ((0.0, 0.0, 1.0), (240.0, 1.0, 0.5)),
        ((1.0, 0.0, 1.0), (300.0, 1.0, 0.5)),
        ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0)),
        ((1.0, 1.0, 1.0), (0.0, 0.0, 1.0)),
        ((0.5, 0.5, 0.5), (0.0, 0.0, 0.5)),
    ],
)
def test_named_color_conversions(rgb, hsl):
    got = rgb_to_hsl(rgb)
    assert (got.h, got.s, got.l) == pytest.approx(hsl, abs=1e-12)
    assert hsl_to_rgb(HslColor(*hsl)) == pytest.approx(rgb, abs=1e-12)


@given(unit, unit, unit)
def test_rgb_to_hsl_matches_colorsys(r, g, b):
    got = rgb_to_hsl((r, g, b))
    h, l, s = colorsys.rgb_to_hls(r, g, b)
    assert hues_equal(got.h, h * 360.0, 1e-9)
    assert got.s == pytest.approx(s, abs=1e-12)
    assert got.l == pytest.approx(l, abs=1e-12)


@given(hue, unit, unit)
def test_hsl_to_rgb_matches_colorsys(h, s, l):
    got = hsl_to_rgb(HslColor(h, s, l))
    assert got == pytest.approx(colorsys.hls_to_rgb(h / 360.0, l, s), abs=1e-12)


@given(hue, unit, unit)
def test_hsv_to_hsl_matches_colorsys(h, s, v):
    got = hsl_to_rgb(HslColor(*_hsv_to_hsl(np.array([h, s, v])).tolist()))
    assert got == pytest.approx(colorsys.hsv_to_rgb(h / 360.0, s, v), abs=1e-10)


@given(byte, byte, byte)
def test_hsl_roundtrip_preserves_8bit_rgb(r, g, b):
    assert to_8bit(hsl_to_rgb(rgb_to_hsl((r / 255.0, g / 255.0, b / 255.0)))) == (r, g, b)
    assert to_8bit_via_hsl([r, g, b]) == [(r, g, b)]


def test_hsl_roundtrip_preserves_8bit_rgb_lattice():
    # deterministic sweep on a stride-17 cube plus the grey diagonal
    rows = [(r, g, b) for r in range(0, 256, 17) for g in range(0, 256, 17) for b in range(0, 256, 17)]
    rows += [(v, v, v) for v in range(256)]
    assert to_8bit_via_hsl(rows) == rows


@given(hue, st.floats(0.01, 1.0), st.floats(0.01, 0.99))
def test_chromatic_hsl_roundtrip(h, s, l):
    back = HslColor(*rgb_to_hsl_array(hsl_to_rgb_array((h, s, l))).tolist())
    assert hues_equal(back.h, h, 1e-9)
    assert back.s == pytest.approx(s, abs=1e-9)
    assert back.l == pytest.approx(l, abs=1e-12)


# ---------------------------------------------------------------------------
# Lab and CIEDE2000
# ---------------------------------------------------------------------------

def test_white_maps_to_lab_origin_exactly():
    lab = srgb_to_lab((1.0, 1.0, 1.0))
    assert lab.L == pytest.approx(100.0, abs=1e-9)
    assert lab.a == pytest.approx(0.0, abs=1e-9)
    assert lab.b == pytest.approx(0.0, abs=1e-9)


def test_black_maps_to_lab_zero():
    lab = srgb_to_lab((0.0, 0.0, 0.0))
    assert (lab.L, lab.a, lab.b) == pytest.approx((0.0, 0.0, 0.0), abs=1e-12)


@pytest.mark.parametrize("rgb,expected", LAB_REFERENCES)
def test_lab_reference_values(rgb, expected):
    lab = srgb_to_lab(rgb)
    assert (lab.L, lab.a, lab.b) == pytest.approx(expected, abs=1e-3)


@given(unit)
def test_srgb_transfer_roundtrip(x):
    # The standard's two breakpoints (0.04045 encoded, 0.0031308 linear) are
    # not exact inverses, so each roundtrip carries an intrinsic gap inside a
    # hair-thin window at its branch seam (measured 2.96e-8 and 2.33e-9);
    # everywhere else the functions invert each other to rounding error.
    tol = 1e-7 if 0.04044 < x < 0.04046 else 1e-12
    assert to_srgb(to_linear(x)) == pytest.approx(x, abs=tol)
    tol = 1e-8 if 0.0031307 < x < 0.0031309 else 1e-12
    assert to_linear(to_srgb(x)) == pytest.approx(x, abs=tol)


def test_srgb_transfer_seam_roundtrip_gap_is_bounded():
    x = 0.04045
    assert to_srgb(to_linear(x)) == pytest.approx(x, abs=1e-7)


def test_srgb_transfer_is_monotone():
    xs = np.arange(1001) / 1000.0
    for ys in (srgb_to_linear_array(xs), linear_to_srgb_array(xs)):
        assert np.all(np.diff(ys) > 0.0)


def test_lab_of_grey_is_neutral():
    _, a, b = linear_rgb_to_lab_array((0.2, 0.2, 0.2))
    assert a == pytest.approx(0.0, abs=1e-9)
    assert b == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("x,y,expected", CIEDE2000_PAIRS)
def test_ciede2000_reference_pairs(x, y, expected):
    got = ciede2000(LabColor(*x), LabColor(*y))
    assert got == pytest.approx(expected, abs=1e-4)


lab_strategy = st.builds(
    LabColor,
    st.floats(0.0, 100.0),
    st.floats(-120.0, 120.0),
    st.floats(-120.0, 120.0),
)


@given(lab_strategy, lab_strategy)
def test_ciede2000_symmetric_and_nonnegative(x, y):
    d = ciede2000(x, y)
    assert d >= 0.0
    assert d == pytest.approx(ciede2000(y, x), abs=1e-9)


@given(lab_strategy)
def test_ciede2000_identity_is_zero(x):
    assert ciede2000(x, x) == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# hue arithmetic
# ---------------------------------------------------------------------------

@given(st.floats(-720.0, 720.0), st.floats(-720.0, 720.0))
def test_signed_hue_delta_range_and_congruence(a, b):
    d = signed_hue_delta(a, b)
    assert -180.0 < d <= 180.0
    assert math.isclose((a - b - d) % 360.0 % 360.0, 0.0, abs_tol=1e-9) or math.isclose(
        (a - b - d) % 360.0, 360.0, abs_tol=1e-9
    )


def test_signed_hue_delta_values():
    assert signed_hue_delta(10.0, 350.0) == pytest.approx(20.0)
    assert signed_hue_delta(350.0, 10.0) == pytest.approx(-20.0)
    assert signed_hue_delta(180.0, 0.0) == pytest.approx(180.0)


def test_hsl_error_uses_circular_hue_distance():
    dh, ds, dl = _hsl_error((5.0, 0.2, 0.8), (355.0, 0.5, 0.5))
    assert dh == pytest.approx(10.0)
    assert ds == pytest.approx(0.3)
    assert dl == pytest.approx(0.3, abs=1e-12)


def test_circular_mean_hue_wraps():
    assert circular_mean_hue([350.0, 10.0], [1.0, 1.0]) == pytest.approx(0.0, abs=1e-9)
    assert circular_mean_hue([10.0, 50.0], [1.0, 1.0]) == pytest.approx(30.0)
    assert circular_mean_hue([90.0], [1.0]) == pytest.approx(90.0)


def test_circular_mean_hue_cancellation_defaults_to_zero():
    assert circular_mean_hue([0.0, 180.0], [1.0, 1.0]) == 0.0
    assert circular_mean_hue([30.0, 210.0], [2.5, 2.5]) == 0.0  # the weighted vectors cancel
    assert circular_mean_hue([90.0, 200.0], [0.0, 0.0]) == 0.0  # nothing weighs anything: an all-grey block
    assert circular_mean_hue([], []) == 0.0


def test_circular_mean_hue_cut_is_relative_to_the_weights():
    assert circular_mean_hue([90.0], [1e-13]) == pytest.approx(90.0)  # tiny weights are no cancellation
    assert circular_mean_hue([10.0, 190.0], [1e-300, 1e-300]) == 0.0  # opposite hues cancel at any scale
    assert circular_mean_hue([10.0, 190.0], [1e300, 1e300]) == 0.0
    assert circular_mean_hue([180.0], [0.0]) == 0.0
    assert circular_mean_hue([200.0, 250.0], [0.0, 0.0]) == 0.0


@given(
    st.lists(st.tuples(hue, st.one_of(st.floats(1e-3, 2.0), st.just(0.0))), min_size=1, max_size=8),
    st.integers(-300, 300),
)
def test_circular_mean_hue_does_not_move_when_every_weight_is_scaled(rows, k):
    hues, weights = [h for h, _ in rows], [w for _, w in rows]
    base, scaled = circular_mean_hue(hues, weights), circular_mean_hue(hues, [w * 10.0**k for w in weights])
    resultant = math.hypot(*(sum(w * f(math.radians(h)) for h, w in rows) for f in (math.cos, math.sin)))
    if resultant >= 1e-3 * sum(weights) > 0.0:  # a mean that rounding cannot swing
        assert abs(signed_hue_delta(scaled, base)) <= 1e-9
    elif sum(weights) == 0.0:
        assert base == scaled == 0.0
    halves = circular_mean_hue(hues + [h + 180.0 for h in hues], [w * 10.0**k for w in weights * 2])
    assert halves == 0.0  # each hue and its opposite at equal weight: a cancellation at every scale


def test_circular_mean_hue_counts_each_hue_by_its_weight():
    assert circular_mean_hue([0.0, 90.0], [1.0, 0.0]) == 0.0
    assert circular_mean_hue([0.0, 90.0], [0.0, 1.0]) == pytest.approx(90.0)
    assert circular_mean_hue([0.0, 90.0], [3.0, 3.0]) == pytest.approx(45.0)
    assert circular_mean_hue([30.0, 210.0], [2.0, 1.0]) == pytest.approx(30.0)  # the heavier side wins
    assert circular_mean_hue([0.0, 120.0, 120.0], [2.0, 1.0, 1.0]) == pytest.approx(60.0)


def test_circular_mean_hue_needs_one_weight_per_hue():
    with pytest.raises(ValueError, match=r"^expected one weight per hue, got \(1,\) weights for \(2,\) hues$"):
        circular_mean_hue([10.0, 20.0], [1.0])
    with pytest.raises(TypeError):
        circular_mean_hue([10.0, 20.0])  # the weights have no default


@given(st.lists(st.tuples(hue, st.floats(0.0, 2.0)), min_size=1, max_size=8), st.floats(-360.0, 360.0))
def test_circular_mean_hue_rotation_equivariance(rows, rot):
    hues, weights = [h for h, _ in rows], [w for _, w in rows]
    base = circular_mean_hue(hues, weights)
    sx = sum(w * math.cos(math.radians(h)) for h, w in rows)
    sy = sum(w * math.sin(math.radians(h)) for h, w in rows)
    if math.hypot(sx, sy) < 1e-6:  # near-cancelling sets have unstable means
        return
    rotated = circular_mean_hue([h + rot for h in hues], weights)
    assert hues_equal(rotated, base + rot, 1e-6)
