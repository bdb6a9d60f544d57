"""Anchor-calibrated bicone coordinates: exactness of the bijection."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from latentcolor import (
    AnchorSet,
    ToyEmbedder,
    build_anchors,
    builtin_flux_stats,
    decode,
    decode_raw,
    encode,
    fit_pca,
    make_probe_set,
    observe,
    toy_decode,
)
from latentcolor import bicone
from latentcolor.bicone import ANCHOR_LABELS, HUE_DEGREES, HUE_LABELS
from latentcolor.colorspace import HslColor, signed_hue_delta
from latentcolor.toyflow import _regular_anchors, embed_hsl

hue = st.floats(0.0, 360.0, exclude_max=True, allow_nan=False)


@pytest.fixture(scope="module")
def ideal():
    return _regular_anchors(60.0, 30.0)


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
    for label, theta in zip(HUE_LABELS, HUE_DEGREES):
        got = decode(anchors.hue_anchors[HUE_LABELS.index(label)], anchors)
        assert abs(signed_hue_delta(got.h, theta)) < 1e-9
        assert got.s == pytest.approx(1.0, abs=1e-9)
        assert got.l == pytest.approx(0.5, abs=1e-9)


PROBE_LABELS_SAID = "expected the probe labels ['red', 'yellow', 'green', 'cyan', 'blue', 'magenta', 'black', 'white'], got "


def test_build_anchors_requires_all_labels(probe_set, model):
    probes = {k: v for k, v in probe_set.labeled.items() if k != "cyan"}
    with pytest.raises(ValueError) as info:
        build_anchors(probes, model)
    assert str(info.value) == PROBE_LABELS_SAID + str(sorted(set(ANCHOR_LABELS) - {"cyan"}))


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


def test_build_anchors_refuses_an_unknown_label(probe_set, model):
    probes = {**probe_set.labeled, "orange": probe_set.labeled["red"]}
    with pytest.raises(ValueError) as info:
        build_anchors(probes, model)
    assert str(info.value) == PROBE_LABELS_SAID + str(sorted([*ANCHOR_LABELS, "orange"]))


def test_build_anchors_refuses_a_latent_that_is_not_one_vector(probe_set, model):
    probes = dict(probe_set.labeled)
    probes["green"] = np.stack([probes["green"], probes["green"]])
    with pytest.raises(ValueError, match=r"^expected one \(d,\) latent per probe label, got shapes .*\(2, 3\)"):
        build_anchors(probes, model)


def test_a_mirrored_anchor_set_decodes_its_own_encode(anchors):
    # reflected through the plane of the axis and red: the hues turn clockwise about u x e1, so AnchorSet flips e2
    mirror = np.eye(3) - 2.0 * np.outer(anchors.e2, anchors.e2)
    mirrored = AnchorSet(anchors.black + (anchors.hue_anchors - anchors.black) @ mirror, anchors.black, anchors.white)
    assert mirrored.e2 @ np.cross(mirrored.unit_axis, mirrored.e1) < 0
    rng = np.random.default_rng(23)
    hsl = np.column_stack([rng.uniform(0.0, 360.0, 500), rng.uniform(0.01, 0.99, (500, 2))])
    coords = encode(hsl, mirrored)
    back = decode(coords, mirrored)
    assert max(abs(signed_hue_delta(a, b)) for a, b in zip(back[:, 0], hsl[:, 0])) <= 1e-9
    assert np.abs(back[:, 1:] - hsl[:, 1:]).max() <= 1e-12
    # the mirror image of the original set's encoding, up to rounding
    assert np.abs(anchors.black + (coords - anchors.black) @ mirror - encode(hsl, anchors)).max() <= 1e-9


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


def assemble_per_anchor(hue, black, white):
    """AnchorSet's frame and chroma points, one anchor at a time with np.cross and np.roll: the reference."""
    axis = white - black
    unit_axis = axis / float(np.linalg.norm(axis))

    def chroma_vec(p):
        rel = p - black
        return rel - (rel @ unit_axis) * unit_axis

    for i in range(6):
        if float(np.linalg.norm(chroma_vec(hue[i]))) < 1e-9:
            return f"degenerate anchor: {HUE_LABELS[i]} probe has no chroma"
    e1 = chroma_vec(hue[0]) / float(np.linalg.norm(chroma_vec(hue[0])))
    e2 = np.cross(unit_axis, e1)
    if float(chroma_vec(hue[1]) @ e2) < 0:
        e2 = -e2
    pts = np.array([(chroma_vec(hue[i]) @ e1, chroma_vec(hue[i]) @ e2) for i in range(6)])
    nxt = np.roll(pts, -1, axis=0)
    if np.any(pts[:, 0] * nxt[:, 1] - pts[:, 1] * nxt[:, 0] <= 0):
        return "hue anchors are not in strict counterclockwise order"
    return unit_axis, e1, e2, pts


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([1e-12, 1e-6, 1e-2, 0.3, 1.0]),
    st.sampled_from([None, *range(6)]),
)
def test_assemble_is_the_per_anchor_reference_bitwise(seed, jitter, flat):
    rng = np.random.default_rng(seed)
    ideal = _regular_anchors(60.0 * rng.uniform(0.1, 10.0), 30.0 * rng.uniform(0.1, 10.0))
    rotation, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    shift = rng.standard_normal(3) * 10.0
    hue = (ideal.hue_anchors + rng.standard_normal((6, 3)) * jitter * 30.0) @ rotation + shift
    black, white = ideal.black @ rotation + shift, ideal.white @ rotation + shift
    if flat is not None:  # an anchor on the achromatic axis
        hue[flat] = black + (white - black) * rng.uniform()
    expected = assemble_per_anchor(hue, black, white)
    try:
        got = AnchorSet(hue, black, white)
    except ValueError as e:
        assert str(e) == expected if isinstance(expected, str) else "more than once" in str(e)  # not checked here
        return
    assert isinstance(expected, tuple)
    for a, b in zip((got.unit_axis, got.e1, got.e2, got.chroma_points), expected):
        assert a.tobytes() == b.tobytes()


def test_assemble_needs_nothing_added_in_numpy_2(monkeypatch):
    # pyproject allows numpy 1.24, which has no np.vecdot
    want = _regular_anchors(60.0, 30.0)
    monkeypatch.delattr(np, "vecdot", raising=False)
    got = _regular_anchors(60.0, 30.0)
    for field in ("unit_axis", "e1", "e2", "chroma_points"):
        assert getattr(got, field).tobytes() == getattr(want, field).tobytes()


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


# hue anchors whose cyan and magenta chroma (about 32 and 6) are under 2e-16 of the largest coordinate (2e17):
# decode_raw's rounding then puts the cyan-blue edge midpoint on the wrong side of the polygon
TINY_CHROMA_HUES = [
    [0.06, 3e7, 0.0], [2.0, -2e10, 2e11], [1.0, -7e7, 6e7], [3.0, -30.0, -10.0], [0.9, -6e16, -2e17], [1.0, 1.0, -6.0],
]
TINY_CHROMA_AXIS = ([0.0, 0.0, 0.0], [3.0, 0.0, 0.0])


def test_an_anchor_with_chroma_lost_to_rounding_is_refused(monkeypatch):
    with pytest.raises(ValueError, match=r"^degenerate anchor: cyan probe has no chroma$"):
        AnchorSet(TINY_CHROMA_HUES, *TINY_CHROMA_AXIS)
    # judged by absolute chroma alone, the set passes, and decode cannot use it
    monkeypatch.setattr(bicone, "_MIN_ANCHOR_CHROMA", 0.0)
    a = AnchorSet(TINY_CHROMA_HUES, *TINY_CHROMA_AXIS)
    with pytest.raises(ValueError, match="does not enclose"):
        decode_raw((a.hue_anchors[3] + a.hue_anchors[4]) / 2.0, a)


def scaled_hexagon(seed, log_scale, log_radii, log_axis, log_offset):
    """Hue anchors in counterclockwise order, black and white; each size is 10 ** (log_scale + its log_ argument).

    The sizes are the six chroma radii, the axis length and the offset. The hues are 0.2 to 1 rad
    apart before the gaps are scaled to a full turn, each at a random lightness on the axis; then
    the whole set is rotated and moved by a random vector of the offset's size.
    """
    rng = np.random.default_rng(seed)
    gaps = rng.uniform(0.2, 1.0, 6)
    theta = np.cumsum(gaps * (2.0 * math.pi / gaps.sum())) + rng.uniform(0.0, 2.0 * math.pi)
    radii = 10.0 ** (log_scale + np.array(log_radii))
    axis, offset = 10.0 ** (log_scale + log_axis), 10.0 ** (log_scale + log_offset)
    local = np.column_stack([axis * rng.uniform(0.0, 1.0, 6), radii * np.cos(theta), radii * np.sin(theta)])
    rotation, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    shift = offset * rng.standard_normal(3)
    return local @ rotation + shift, shift, np.array([axis, 0.0, 0.0]) @ rotation + shift


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.floats(-3.0, 31.0),
    st.sampled_from([12.0, 34.0]).flatmap(lambda w: st.lists(st.floats(-w, 0.0), min_size=6, max_size=6)),
    st.floats(-34.0, 0.0),
    st.floats(-34.0, 0.0),
)
def test_decode_takes_the_anchors_and_edge_midpoints_of_every_set_the_constructor_accepts(
    seed, log_scale, log_radii, log_axis, log_offset
):
    hue, black, white = scaled_hexagon(seed, log_scale, log_radii, log_axis, log_offset)
    try:
        a = AnchorSet(hue, black, white)
    except ValueError:
        return
    decode_raw(np.vstack([hue, (hue + np.roll(hue, -1, axis=0)) / 2.0]), a)  # refuses nothing


ANCHOR_FIELDS = ("hue_anchors", "black", "white", "axis", "unit_axis", "e1", "e2", "chroma_points", "chroma_angles")


def anchor_frame_by_arrays(hue_anchors, black, white):
    """AnchorSet's derivation as whole-array numpy steps, every check included: the reference for its fields."""
    hue, black, white = (np.asarray(v, dtype=np.float64) for v in (hue_anchors, black, white))
    axis = white - black
    norm_axis = float(np.linalg.norm(axis))
    if norm_axis < 1e-9:
        raise ValueError("black and white probes coincide; no achromatic axis")
    unit_axis = axis / norm_axis
    rel = hue - black
    chroma = rel - bicone._rowdots(rel, unit_axis)[:, None] * unit_axis
    norms = np.sqrt(bicone._rowdots(chroma, chroma))
    scale = max(float(np.abs(v).max()) for v in (hue, black, white))
    degenerate = np.flatnonzero(norms < max(bicone._MIN_CHROMA, bicone._MIN_ANCHOR_CHROMA * scale))
    if degenerate.size:
        raise ValueError(f"degenerate anchor: {HUE_LABELS[degenerate[0]]} probe has no chroma")
    e1 = chroma[0] / norms[0]
    (u0, u1, u2), (f0, f1, f2) = unit_axis.tolist(), e1.tolist()
    e2 = np.array([u1 * f2 - u2 * f1, u2 * f0 - u0 * f2, u0 * f1 - u1 * f0])
    if float(chroma[1] @ e2) < 0:
        e2 = -e2
    pts = bicone._rowdots(chroma[:, None], np.array([e1, e2]))
    nxt = pts[[1, 2, 3, 4, 5, 0]]
    if (pts[:, 0] * nxt[:, 1] - pts[:, 1] * nxt[:, 0] <= 0).any():
        raise ValueError("hue anchors are not in strict counterclockwise order")
    angles = np.arctan2(pts[:, 1], pts[:, 0]) % (2.0 * math.pi)
    angles[0] = 0.0
    if not ((np.diff(angles) > 0.0).all() and angles[5] < 2.0 * math.pi):
        raise ValueError("hue anchors wind around the achromatic axis more than once")
    return hue, black, white, axis, unit_axis, e1, e2, pts, angles


@st.composite
def anchor_points(draw):
    """Eight anchor points: a scaled hexagon, an exact one on small integers (consecutive anchors may
    point the same way or coincide) or random points; then perhaps a NaN or an infinity in some coordinates."""
    seed, kind = draw(st.integers(0, 2**32 - 1)), draw(st.sampled_from(["hexagon", "integer", "random"]))
    rng = np.random.default_rng(seed)
    if kind == "hexagon":
        radii = draw(st.lists(st.floats(-13.0, 0.0), min_size=6, max_size=6))
        points = np.vstack(scaled_hexagon(seed, draw(st.floats(-3.0, 6.0)), radii, draw(st.floats(-13.0, 0.0)), 0.0))
    elif kind == "integer":
        chroma = np.array([[4, 0], [2, 3], [-2, 3], [-4, 0], [-2, -3], [2, -3]], dtype=np.float64)
        at = draw(st.integers(0, 5))
        chroma[(at + 1) % 6] = chroma[at] * draw(st.sampled_from([1.0, 2.0, 0.5, -1.0]))
        hue = np.column_stack([rng.integers(0, 3, 6), chroma])
        points = np.vstack([hue, [[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]]])
    else:
        points = rng.standard_normal((8, 3)) * 10.0 ** draw(st.floats(-3.0, 6.0))
    for at in draw(st.lists(st.integers(0, 23), max_size=draw(st.sampled_from([0, 0, 1, 3])))):
        points.flat[at] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    return points[:6], points[6], points[7]


@settings(max_examples=400, deadline=None)
@given(anchor_points())
@example((np.array([[0.0, 4.0, 0.0], [1.0, 8.0, 0.0], [0.0, -2.0, 3.0], [0.0, -4.0, 0.0], [0.0, -2.0, -3.0],
                    [0.0, 2.0, -3.0]]), np.zeros(3), np.array([2.0, 0.0, 0.0])))  # red and yellow point the same way
def test_anchor_set_is_the_whole_array_derivation_bitwise(anchor_set):
    outcomes = []
    for derive in (lambda *a: tuple(getattr(AnchorSet(*a), f) for f in ANCHOR_FIELDS), anchor_frame_by_arrays):
        with np.errstate(all="ignore"):
            try:
                fields = derive(*anchor_set)
            except Exception as e:
                outcomes.append((type(e), str(e)))
            else:
                outcomes.append(tuple((a.shape, a.dtype, a.tobytes()) for a in fields))
    assert outcomes[0] == outcomes[1]


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


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.floats(0.0, 31.0),
    st.lists(st.floats(-4.0, 0.0), min_size=6, max_size=6),
    st.floats(-4.0, 0.0),
    st.floats(-34.0, 4.0),
)
def test_encode_decode_round_trip_holds_on_extreme_anchor_sets(seed, log_scale, log_radii, log_axis, log_offset):
    """encode(decode_raw(c)) gives back interior points c of scaled_hexagon sets, within 1e-10 of the set's scale.

    The domain keeps clear of the floors where the round trip fails: every size is at least 1e-4 of
    10 ** log_scale >= 1, and the offset at most 1e4 of it. So the axis and every anchor's chroma stay
    at least about 1e-9 of the largest coordinate (the floors are 1e-14 and 1e-12), and an interior
    point's chroma, s and 1 - |2l - 1| at least 0.05 and 0.1, stays far above the absolute 1e-9.
    """
    hue, black, white = scaled_hexagon(seed, log_scale, log_radii, log_axis, log_offset)
    a = AnchorSet(hue, black, white)  # every set of the domain is accepted
    rng = np.random.default_rng(seed)
    corners = [[h, s, l] for h in (0.0, 30.0, 359.0) for s in (0.05, 0.95) for l in (0.05, 0.5, 0.95)]
    hsl = np.vstack([corners, np.column_stack([rng.uniform(0.0, 360.0, 64), rng.uniform(0.05, 0.95, (64, 2))])])
    c = encode(hsl, a)
    scale = max(float(np.abs(v).max()) for v in (hue, black, white))
    assert float(np.abs(encode(decode_raw(c, a), a) - c).max()) <= 1e-10 * scale


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


def test_anchor_file_writes_each_labels_theta(anchors, tmp_path):
    path = tmp_path / "anchors.json"
    anchors.save(path)
    entries = json.loads(path.read_text())["hue_anchors"]
    assert [(e["label"], e["theta"]) for e in entries] == list(zip(HUE_LABELS, HUE_DEGREES))


def test_anchor_file_entries_load_in_any_order(anchors):
    obj = anchors.to_json_dict()
    back = AnchorSet.from_json_dict({**obj, "hue_anchors": obj["hue_anchors"][::-1]})
    assert np.array_equal(back.hue_anchors, anchors.hue_anchors)


@pytest.mark.parametrize("field, value", [
    ("black", -5), ("black", [0.5]), ("white", 3.0), ("white", [30.0]), ("white", [1.0, 2.0, 3.0, 4.0]),
    ("coords", [1.0]), ("coords", 2.0), ("coords", [[1.0, 2.0, 3.0]]),
], ids=["black-scalar", "black-1", "white-scalar", "white-1", "white-4", "hue-1", "hue-scalar", "hue-1x3"])
def test_anchor_file_refuses_points_of_the_wrong_shape(anchors, field, value):
    # numpy would broadcast most of these into a geometry the file does not describe
    obj = anchors.to_json_dict()
    if field == "coords":
        obj = {**obj, "hue_anchors": [{**e, "coords": value} for e in obj["hue_anchors"]]}
    else:
        obj = {**obj, field: value}
    with pytest.raises(ValueError, match=r"^expected an array of shape \((6, 3|3,)\), found .+ on axis [01]$"):
        AnchorSet.from_json_dict(obj)


def _relabeled(obj, labels):
    return {**obj, "hue_anchors": [{**e, "label": l} for e, l in zip(obj["hue_anchors"], labels)]}


@pytest.mark.parametrize("edit, labels", [
    (lambda o: _relabeled(o, ["orange", *HUE_LABELS[1:]]), ["orange", *HUE_LABELS[1:]]),
    (lambda o: _relabeled(o, ["red", "red", *HUE_LABELS[2:]]), ["red", "red", *HUE_LABELS[2:]]),
    (lambda o: {**o, "hue_anchors": o["hue_anchors"][:5]}, list(HUE_LABELS[:5])),
    (lambda o: {**o, "hue_anchors": [*o["hue_anchors"], {**o["hue_anchors"][0], "label": "orange"}]}, [*HUE_LABELS, "orange"]),
    (lambda o: {**o, "hue_anchors": [*o["hue_anchors"], o["hue_anchors"][0]]}, [*HUE_LABELS, "red"]),
    (lambda o: _relabeled(o, [["red"], *HUE_LABELS[1:]]), [["red"], *HUE_LABELS[1:]]),
], ids=["unknown", "repeat-among-six", "missing", "seventh-entry", "seventh-repeat", "unhashable"])
def test_anchor_file_lists_the_six_hue_labels_once_each(anchors, edit, labels):
    with pytest.raises(ValueError) as info:
        AnchorSet.from_json_dict(edit(anchors.to_json_dict()))
    assert str(info.value) == f"expected the hue labels {list(HUE_LABELS)} once each, got {labels}"


def test_anchor_set_refuses_points_that_are_not_eight_3_vectors(ideal):
    with pytest.raises(ValueError) as info:
        AnchorSet(ideal.hue_anchors[:5], ideal.black, ideal.white)
    assert str(info.value) == "expected six hue anchors, black and white as 3-vectors, got shape (7, 3)"
    with pytest.raises(ValueError, match=r"got shape \(8, 2\)$"):
        AnchorSet(ideal.hue_anchors[:, :2], ideal.black[:2], ideal.white[:2])


def test_anchor_labels_are_complete():
    assert ANCHOR_LABELS == HUE_LABELS + ("black", "white")
    assert len(HUE_DEGREES) == 6
