"""Anchor-calibrated bicone coordinates: exactness of the bijection."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from latentcolor import (
    AnchorSet,
    ToyEmbedder,
    build_anchors,
    builtin_flux_stats,
    decode,
    decode_raw,
    embed_hsl,
    encode,
    fit_pca,
    make_probe_set,
    observe,
    regular_anchors,
    toy_decode,
)
from latentcolor.bicone import ANCHOR_LABELS, HUE_DEGREES, HUE_LABELS
from latentcolor.colorspace import HslColor, signed_hue_delta

hue = st.floats(0.0, 360.0, exclude_max=True, allow_nan=False)


@pytest.fixture(scope="module")
def ideal():
    return regular_anchors(60.0, 30.0)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_regular_anchor_geometry(ideal):
    assert np.allclose(ideal.black, [0.0, 0.0, 0.0])
    assert np.allclose(ideal.white, [60.0, 0.0, 0.0])
    for label, theta, anchor in zip(HUE_LABELS, HUE_DEGREES, ideal.hue_anchors):
        got = decode(anchor, ideal)
        assert abs(signed_hue_delta(got.h, theta)) < 1e-9
        assert got.s == pytest.approx(1.0, abs=1e-12)
        assert got.l == pytest.approx(0.5, abs=1e-12)


def test_apex_decoding(ideal):
    black = decode(ideal.black, ideal)
    white = decode(ideal.white, ideal)
    assert (black.h, black.s, black.l) == (0.0, 0.0, 0.0)
    assert (white.h, white.s, white.l) == (0.0, 0.0, 1.0)
    mid = decode(np.array([30.0, 0.0, 0.0]), ideal)
    assert (mid.h, mid.s, mid.l) == (0.0, 0.0, 0.5)


def test_build_anchors_from_probes(probe_set, model, anchors):
    assert anchors.thetas == HUE_DEGREES
    for label, theta in zip(HUE_LABELS, HUE_DEGREES):
        got = decode(anchors.hue_anchors[HUE_LABELS.index(label)], anchors)
        assert abs(signed_hue_delta(got.h, theta)) < 1e-9
        assert got.s == pytest.approx(1.0, abs=1e-9)
        assert got.l == pytest.approx(0.5, abs=1e-9)


def test_build_anchors_requires_all_labels(probe_set, model):
    probes = {k: v for k, v in probe_set.labeled.items() if k != "cyan"}
    with pytest.raises(ValueError, match="cyan"):
        build_anchors(probes, model)


def test_coincident_black_white_rejected(probe_set, model):
    probes = dict(probe_set.labeled)
    probes["white"] = probes["black"]
    with pytest.raises(ValueError, match="coincide"):
        build_anchors(probes, model)


def test_misordered_hue_anchors_rejected(probe_set, model):
    probes = dict(probe_set.labeled)
    probes["yellow"], probes["green"] = probes["green"], probes["yellow"]
    with pytest.raises(ValueError, match="counterclockwise"):
        build_anchors(probes, model)


def hexagon_json(degrees) -> dict:
    """Anchor file with hue anchors at the given angles on a radius-30 circle."""
    return {
        "hue_anchors": [
            {"label": lbl, "theta": th, "coords": [30.0, 30.0 * math.cos(math.radians(d)), 30.0 * math.sin(math.radians(d))]}
            for lbl, th, d in zip(HUE_LABELS, HUE_DEGREES, degrees)
        ],
        "black": [0.0, 0.0, 0.0],
        "white": [60.0, 0.0, 0.0],
    }


def test_anchor_polygon_winding_twice_rejected():
    # every consecutive pair turns counterclockwise, but the polygon goes round twice
    with pytest.raises(ValueError, match="more than once"):
        AnchorSet.from_json_dict(hexagon_json([0.0, 120.0, 240.0, 360.0, 480.0, 600.0]))
    ok = AnchorSet.from_json_dict(hexagon_json(HUE_DEGREES))
    assert np.all(np.diff(ok.chroma_angles) > 0)


def test_red_anchor_angle_is_exactly_zero():
    # red's second chroma coordinate comes out as a rounding-level negative
    # here, which must not put red at angle 2 pi
    obj = hexagon_json(HUE_DEGREES)
    obj["hue_anchors"][0]["coords"] = [30.4, 29.6, 1.9]
    a = AnchorSet.from_json_dict(obj)
    assert a.chroma_angles[0] == 0.0
    for h in (1.0, 30.0, 59.0):
        back = decode(encode(HslColor(h, 0.7, 0.5), a), a)
        assert abs(signed_hue_delta(back.h, h)) < 1e-9
        assert back.s == pytest.approx(0.7, abs=1e-9)


def test_fitted_anchors_decode_red_yellow_segment_on_seed_5():
    """The d = 64 toy world of seed 5 fits a red anchor whose second chroma
    coordinate rounds below zero; observe at the final step must still
    match the toy ground truth across the red-yellow segment."""
    e = ToyEmbedder.create(seed=5, d=64)
    probes = make_probe_set(e)
    model = fit_pca(probes.lattice, k=3, orientation=probes.labeled)
    a = build_anchors(probes.labeled, model)
    colors = [HslColor(h, 0.6, 0.45) for h in np.linspace(1.0, 59.0, 24)]
    z = np.stack([embed_hsl(y, e) for y in colors])
    stats = builtin_flux_stats()
    grid = observe(z, stats.T, model, a, stats, (4, 6))
    truth = [toy_decode(row, e) for row in z]
    for got, want, planted in zip(grid.cells, truth, colors):
        for ref in (want, planted):
            assert abs(signed_hue_delta(got.h, ref.h)) < 1e-6
            assert abs(got.s - ref.s) < 1e-6 and abs(got.l - ref.l) < 1e-6


# ---------------------------------------------------------------------------
# bijection
# ---------------------------------------------------------------------------

def test_decode_encode_identity_on_grid(anchors):
    worst = np.zeros(3)
    for h in range(0, 360, 10):
        for s in np.linspace(0.01, 0.99, 10):
            for l in np.linspace(0.01, 0.99, 10):
                y = HslColor(float(h), float(s), float(l))
                back = decode(encode(y, anchors), anchors)
                worst = np.maximum(
                    worst,
                    [abs(signed_hue_delta(back.h, y.h)), abs(back.s - y.s), abs(back.l - y.l)],
                )
    assert worst[0] <= 1e-6
    assert worst[1] <= 1e-9
    assert worst[2] <= 1e-9


@given(hue, st.floats(0.001, 1.0), st.floats(0.001, 0.999))
def test_decode_encode_identity_random(anchors, h, s, l):
    y = HslColor(h, s, l)
    back = decode(encode(y, anchors), anchors)
    assert abs(signed_hue_delta(back.h, y.h)) <= 1e-6
    assert abs(back.s - y.s) <= 1e-9
    assert abs(back.l - y.l) <= 1e-9


def test_encode_decode_identity_on_interior_points(anchors):
    rng = np.random.default_rng(12)
    for _ in range(1000):
        y = HslColor(rng.uniform(0, 360), rng.uniform(0.01, 0.99), rng.uniform(0.01, 0.99))
        c = encode(y, anchors)
        c2 = encode(decode(c, anchors), anchors)
        assert np.max(np.abs(c2 - c)) <= 1e-9


def test_raw_decode_skips_clamping(ideal):
    outside = np.array([30.0, 45.0, 0.0])  # radius past the red anchor
    h, s, l = decode_raw(outside, ideal)
    assert s == pytest.approx(1.5, abs=1e-12)
    clamped = decode(outside, ideal)
    assert clamped.s == 1.0


def test_above_white_clamps_lightness(ideal):
    y = decode(np.array([75.0, 0.0, 0.0]), ideal)
    assert y.l == 1.0
    assert y.s == 0.0


def test_chroma_shrinks_toward_apexes(anchors):
    # the same saturation buys less chroma near black or white
    mid = np.linalg.norm(encode(HslColor(200.0, 0.8, 0.5), anchors) - encode(HslColor(200.0, 0.0, 0.5), anchors))
    low = np.linalg.norm(encode(HslColor(200.0, 0.8, 0.1), anchors) - encode(HslColor(200.0, 0.0, 0.1), anchors))
    assert low == pytest.approx(0.2 * mid, rel=1e-9)


def test_sixfold_rotation_symmetry(ideal):
    # regular anchors make hue+60 a rotation in the chroma plane
    rot = np.array(
        [
            [1.0, 0.0, 0.0],
            [0.0, math.cos(math.pi / 3), -math.sin(math.pi / 3)],
            [0.0, math.sin(math.pi / 3), math.cos(math.pi / 3)],
        ]
    )
    for h in (0.0, 25.0, 110.0, 342.5):
        for s, l in ((1.0, 0.5), (0.4, 0.7)):
            a = encode(HslColor(h, s, l), ideal)
            b = encode(HslColor(h + 60.0, s, l), ideal)
            a_shifted = a - np.array([l * 60.0, 0.0, 0.0])
            b_shifted = b - np.array([l * 60.0, 0.0, 0.0])
            assert np.allclose(rot @ a_shifted, b_shifted, atol=1e-9)


def test_bisection_oracle_agrees_with_decode(anchors):
    """Invert encode by brute force and compare against decode.

    Hue is recovered by bisecting the winding angle of encode's chroma
    output, saturation by rescaling against a unit-saturation probe, so
    the decode algebra is never used.
    """

    def chroma_angle(c: np.ndarray) -> float:
        q = c - anchors.black
        x = float(q @ anchors.e1)
        y = float(q @ anchors.e2)
        return math.atan2(y, x) % (2.0 * math.pi)

    rng = np.random.default_rng(21)
    for _ in range(400):
        y = HslColor(rng.uniform(0, 360), rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95))
        c = encode(y, anchors)
        got = decode(c, anchors)

        target = chroma_angle(c)
        lo, hi = 0.0, 360.0 - 1e-9
        lo_angle = chroma_angle(encode(HslColor(lo, 1.0, 0.5), anchors))
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            mid_angle = chroma_angle(encode(HslColor(mid, 1.0, 0.5), anchors))
            # winding is monotone, so compare unwrapped angles
            if (mid_angle - lo_angle) % (2.0 * math.pi) <= (target - lo_angle) % (2.0 * math.pi):
                lo = mid
            else:
                hi = mid
        h_hat = 0.5 * (lo + hi)
        assert abs(signed_hue_delta(h_hat, got.h)) < 0.01

        axial = float((c - anchors.black) @ anchors.unit_axis)
        l_hat = axial / float(np.linalg.norm(anchors.axis))
        probe = encode(HslColor(h_hat, 1.0, l_hat), anchors)
        radius = np.linalg.norm(c - anchors.black - axial * anchors.unit_axis)
        probe_radius = np.linalg.norm(probe - anchors.black - axial * anchors.unit_axis)
        s_hat = radius / probe_radius
        assert abs(s_hat - got.s) < 1e-4
        assert abs(l_hat - got.l) < 1e-9


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_anchor_serialization_roundtrip(anchors, tmp_path):
    path = tmp_path / "anchors.json"
    anchors.save(path)
    back = AnchorSet.load(path)
    assert np.array_equal(back.black, anchors.black)
    assert np.array_equal(back.white, anchors.white)
    assert np.array_equal(back.hue_anchors, anchors.hue_anchors)
    rng = np.random.default_rng(13)
    for _ in range(20):
        y = HslColor(rng.uniform(0, 360), rng.uniform(0, 1), rng.uniform(0, 1))
        assert np.allclose(encode(y, back), encode(y, anchors), atol=1e-12)


def test_anchor_labels_are_complete():
    assert ANCHOR_LABELS == HUE_LABELS + ("black", "white")
    assert len(HUE_DEGREES) == 6
