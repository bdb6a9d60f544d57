"""Color edits on coordinate blocks and full latent tensors."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from latentcolor import (
    PatchMask,
    SubspaceModel,
    apply_intervention,
    decode,
    decode_raw,
    encode,
    interpolated,
    project,
    type1,
    type2,
)
from latentcolor import AnchorSet, intervene
from latentcolor.colorspace import HslColor, circular_mean_hue, signed_hue_delta
from latentcolor.timestats import _chart, normalize
from latentcolor.toyflow import TIMESTEP_PALETTE, _regular_anchors
from test_bicone import scaled_hexagon

TARGET = HslColor(210.0, 0.7, 0.45)


def chroma_weights(s, l):
    """type2's weight for each row's hue: its relative chroma s (1 - |2l - 1|)."""
    return s * (1.0 - np.abs(2.0 * l - 1.0))


def random_block(anchors, n=12, seed=31):
    rng = np.random.default_rng(seed)
    colors = [
        HslColor(rng.uniform(0, 360), rng.uniform(0.1, 0.9), rng.uniform(0.2, 0.8))
        for _ in range(n)
    ]
    return np.array([encode(y, anchors) for y in colors])


# ---------------------------------------------------------------------------
# blend weight
# ---------------------------------------------------------------------------

def test_gamma_is_linear_in_t(anchors):
    # interp weighs the mean shift by gamma = 1 - t/T: 1 at t = 0, falling linearly to 0 at t = T
    coords = random_block(anchors)
    one, two = type1(coords, TARGET, anchors), type2(coords, TARGET, anchors)
    assert interpolated(coords, TARGET, anchors, 0, 50).tobytes() == one.tobytes()
    assert interpolated(coords, TARGET, anchors, 50, 50).tobytes() == two.tobytes()
    for t in (1, 25, 49):
        g = 1.0 - t / 50
        assert interpolated(coords, TARGET, anchors, t, 50).tobytes() == (g * one + (1.0 - g) * two).tobytes()
    for t in (51, -1):
        with pytest.raises(ValueError, match=f"timestep {t} outside blend range 0..50"):
            interpolated(coords, TARGET, anchors, t, 50)


def test_schedule_validation(anchors):
    with pytest.raises(ValueError, match="T >= 1"):
        interpolated(random_block(anchors), TARGET, anchors, 0, 0)


# ---------------------------------------------------------------------------
# masks
# ---------------------------------------------------------------------------

def test_mask_basics():
    m = PatchMask(L=6, selected=frozenset({4, 1}))
    assert list(m.indices) == [1, 4]
    assert PatchMask.full(3).selected == frozenset({0, 1, 2})
    with pytest.raises(ValueError):
        PatchMask(L=4, selected=frozenset({4}))
    with pytest.raises(ValueError):
        PatchMask(L=0)


@pytest.mark.parametrize("L, selected, says", [
    (0, frozenset(), "^mask needs L >= 1$"),
    (-2, frozenset(), "^mask needs L >= 1$"),
    (4, frozenset({4}), "^mask indices out of range for L = 4$"),
    (4, frozenset({-1, 2}), "^mask indices out of range for L = 4$"),
    (4, frozenset({2**70}), "^mask indices out of range for L = 4$"),
], ids=["L-0", "L-negative", "at-L", "negative", "beyond-int64"])
def test_mask_refusals_say_what_is_wrong(L, selected, says):
    with pytest.raises(ValueError, match=says):
        PatchMask(L=L, selected=selected)


def test_mask_indices_are_sorted_and_read_only():
    m = PatchMask(L=70, selected=frozenset({65, 3, 64, 0}))
    assert m.indices.tolist() == [0, 3, 64, 65] and m.indices.dtype == np.intp
    assert m.indices is m.indices and not m.indices.flags.writeable
    assert PatchMask(L=5).indices.tolist() == []


@pytest.mark.parametrize(
    "L, selected", [(4, [2.7]), (4, [True]), (4, [1, np.float64(2.0)]), (4, [np.bool_(True)]), (4.0, [1]), (True, [0])]
)
def test_mask_refuses_non_integers(L, selected):
    # int() would have read 2.7 as 2 and True as 1
    with pytest.raises(ValueError, match="integers"):
        PatchMask(L=L, selected=selected)


def test_mask_takes_numpy_integers(tmp_path):
    m = PatchMask(L=np.int64(4), selected=[np.int32(1), np.intp(3), 2])
    assert m.selected == frozenset({1, 2, 3})
    assert all(type(i) is int for i in (m.L, *m.selected))
    m.save(tmp_path / "mask.json")
    assert PatchMask.load(tmp_path / "mask.json") == m


@pytest.mark.parametrize("make", [lambda v: (i for i in v), iter, list], ids=["generator", "iterator", "list"])
def test_mask_reads_any_iterable_of_indices_once(make):
    m = PatchMask(5, make([4, 1, 4]))
    assert m == PatchMask(5, frozenset({1, 4})) and m.indices.tolist() == [1, 4]
    with pytest.raises(ValueError, match="integers"):
        PatchMask(5, make([1, 2.5]))
    with pytest.raises(ValueError, match="^mask indices out of range for L = 5$"):
        PatchMask(5, make([1, 5]))


def test_mask_json_roundtrip(tmp_path):
    m = PatchMask(L=9, selected=frozenset({0, 8, 3}))
    path = tmp_path / "mask.json"
    m.save(path)
    back = PatchMask.load(path)
    assert back == m


@pytest.mark.parametrize("obj, says", [
    ({"L": 4, "selected": [2, 1, 1, 2, 2, 0]}, r"^mask lists patch indices more than once: \[1, 2\]$"),
    ({"L": 4, "selected": [3, 4, 3]}, "^mask indices out of range for L = 4$"),  # the range is checked before repeats
    ({"L": 4, "selected": [1, 1, 2.0]}, "^mask L and selected indices must be integers$"),
    ({"L": 4.0, "selected": [1, 1]}, "^mask L and selected indices must be integers$"),
], ids=["repeats", "repeat-and-out-of-range", "repeat-and-float", "float-L-and-repeat"])
def test_a_json_mask_refusal_says_what_is_wrong(obj, says):
    with pytest.raises(ValueError, match=says):
        PatchMask.from_json_dict(obj)


# PGM headers accepted, each with its raster, L and the selected cells
PGM_HEADERS = [
    (b"P5\n# comment line\n3 2\n255\n", bytes([0, 7, 0, 255, 0, 1]), 6, {1, 3, 5}),
    (b"P5# comment right after the magic\n3 2 255\n", bytes([0, 7, 0, 255, 0, 1]), 6, {1, 3, 5}),
    (b"P5\r3\v2\f255\r", bytes([0, 0, 1, 0, 0, 0]), 6, {2}),
    (b"P5#a\n3#b\n2#c\n255\n", bytes([1, 1, 0, 0, 0, 0]), 6, {0, 1}),  # a comment between each pair of tokens
    (b"P5\n2 2\n256\n", bytes([0, 0, 1, 0, 0, 0, 0, 1]), 4, {1, 3}),  # the least 16-bit maxval
]


def test_mask_from_pgm(tmp_path):
    path = tmp_path / "mask.pgm"
    for header, raster, L, selected in PGM_HEADERS:
        path.write_bytes(header + raster)
        assert PatchMask.load(path) == PatchMask(L, frozenset(selected)), header


def test_mask_from_16bit_pgm(tmp_path):
    import struct

    raster = struct.pack(">4H", 0, 300, 0, 65535)
    path = tmp_path / "mask.pgm"
    path.write_bytes(b"P5 2 2 65535\n" + raster)
    assert PatchMask.load(path) == PatchMask(4, frozenset({1, 3}))


@pytest.mark.parametrize("maxval", [1, 255, 256, 65535])
def test_a_mask_loads_equal_from_json_and_from_8_and_16_bit_pgm(tmp_path, maxval):
    # one reader for mask files: PatchMask.load sniffs the PGM magic, and reads anything else as JSON
    m = PatchMask(L=12, selected=frozenset({0, 5, 6, 11}))
    m.save(tmp_path / "mask.json")
    px = np.zeros(12, dtype=">u2" if maxval > 255 else "u1")
    px[m.indices] = maxval
    (tmp_path / "mask.pgm").write_bytes(f"P5\n4 3\n{maxval}\n".encode() + px.tobytes())
    assert PatchMask.load(tmp_path / "mask.json") == m
    assert PatchMask.load(tmp_path / "mask.pgm") == m


@pytest.mark.parametrize(
    "raw",
    [
        b"P5\n3 2\n255\n" + bytes(5),  # short raster
        b"P5\n3 2\n0\n" + bytes(6),  # maxval 0
        b"P5\n2 2\n65536\n" + bytes(8),  # maxval beyond 16 bits
        b"P5\n3 2\nxyz\n" + bytes(6),  # non-numeric token
        b"P5\n3 2",  # truncated header
        b"P5\n3 2\n# a comment that runs to end of file",
        b"P5\n3 2\n255",  # the header ends at maxval
        b"P5\n32 255\n" + bytes(6),  # two tokens: no maxval, though "3" "2" would split as width and height
        b"P53 2 255\n" + bytes(6),  # digits straight after the magic: netpbm needs whitespace there
        b"P5 3 2 255#" + bytes(6),  # one whitespace byte ends the header, never a "#"
    ],
)
def test_malformed_pgm_rejected(tmp_path, raw):
    path = tmp_path / "mask.pgm"
    path.write_bytes(raw)
    with pytest.raises(ValueError) as info:
        PatchMask.load(path)
    assert str(info.value).startswith(f"{path}: ")


def test_non_mask_file_rejected(tmp_path):
    path = tmp_path / "mask.bin"
    path.write_bytes(b"\x00\x01garbage")
    with pytest.raises(ValueError):
        PatchMask.load(path)


# ---------------------------------------------------------------------------
# block edits
# ---------------------------------------------------------------------------

def test_type1_moves_mean_exactly(anchors):
    coords = random_block(anchors)
    out = type1(coords, TARGET, anchors)
    assert np.allclose(out.mean(axis=0), encode(TARGET, anchors), atol=1e-12)


def test_type1_preserves_pairwise_differences(anchors):
    coords = random_block(anchors)
    out = type1(coords, TARGET, anchors)
    diffs_before = coords[:, None, :] - coords[None, :, :]
    diffs_after = out[:, None, :] - out[None, :, :]
    assert np.allclose(diffs_after, diffs_before, atol=1e-12)


def test_type1_is_idempotent(anchors):
    coords = random_block(anchors)
    once = type1(coords, TARGET, anchors)
    twice = type1(once, TARGET, anchors)
    assert np.allclose(once, twice, atol=1e-12)


def test_type2_lands_zero_dispersion_blocks_on_target(anchors):
    point = encode(HslColor(15.0, 0.3, 0.6), anchors)
    coords = np.tile(point, (7, 1))
    out = type2(coords, TARGET, anchors)
    assert np.allclose(out, encode(TARGET, anchors), atol=1e-9)


def test_type2_shifts_hue_circularly(anchors):
    coords = np.array(
        [encode(HslColor(350.0, 0.5, 0.5), anchors), encode(HslColor(10.0, 0.5, 0.5), anchors)]
    )
    out = type2(coords, HslColor(20.0, 0.5, 0.5), anchors)
    hues = sorted(decode(c, anchors).h for c in out)
    assert abs(signed_hue_delta(hues[0], 10.0)) < 1e-6
    assert abs(signed_hue_delta(hues[1], 30.0)) < 1e-6


def test_type2_clamps_saturation_overflow(anchors):
    coords = np.array(
        [encode(HslColor(100.0, 0.9, 0.5), anchors), encode(HslColor(100.0, 0.5, 0.5), anchors)]
    )
    out = type2(coords, HslColor(100.0, 0.9, 0.5), anchors)
    decoded = sorted(decode(c, anchors).s for c in out)
    # mean 0.7 shifted by +0.2: the 0.9 patch would hit 1.1 and clamps
    assert decoded[0] == pytest.approx(0.7, abs=1e-9)
    assert decoded[1] == pytest.approx(1.0, abs=1e-9)


def test_type2_preserves_relative_lightness(anchors):
    coords = np.array(
        [encode(HslColor(40.0, 0.5, 0.3), anchors), encode(HslColor(40.0, 0.5, 0.5), anchors)]
    )
    out = type2(coords, HslColor(40.0, 0.5, 0.6), anchors)
    ls = sorted(decode(c, anchors).l for c in out)
    assert ls[0] == pytest.approx(0.5, abs=1e-9)
    assert ls[1] == pytest.approx(0.7, abs=1e-9)


def test_a_no_op_type2_is_the_identity_at_every_t(palette_runs, model, anchors, toy_stats):
    # each palette trajectory's charted patches at every t, the target their chroma-weighted circular mean hue and
    # mean raw s and l; early rows are amplified out of the bicone (a type2 that clamped moved them by up to 25 units)
    checked = 0
    for frames in palette_runs.values():
        for t in range(1, len(frames)):
            hat, _ = _chart(frames[t], model, t, toy_stats)
            h, s, l = decode_raw(hat, anchors).T
            mean_s, mean_l = float(np.mean(s)), float(np.mean(l))
            if not (0.0 <= mean_s <= 1.0 and 0.0 <= mean_l <= 1.0):
                continue  # HslColor cannot hold the no-op target
            out = type2(hat, HslColor(circular_mean_hue(h, chroma_weights(s, l)), mean_s, mean_l), anchors)
            kept = 1.0 - np.abs(2.0 * l - 1.0) >= 1e-6
            np.testing.assert_allclose(out[kept], hat[kept], rtol=0.0, atol=1e-9)
            checked += 1
    assert checked >= 1100  # 1132 of the 26 x 50: only early steps leave their means outside [0, 1]


# (h, s, l) rows inside the bicone, beside it (s > 1), beyond its apexes (l outside [0, 1]), at the apexes and greys
raw_rows = st.lists(
    st.tuples(
        st.floats(0.0, 360.0),
        st.one_of(st.floats(0.0, 1.3), st.just(0.0)),
        st.one_of(st.floats(-0.2, 1.2), st.sampled_from([0.0, 1.0])),
    ),
    min_size=1,
    max_size=16,
)


@settings(deadline=None)
@given(raw_rows)
def test_a_no_op_type2_returns_every_row_off_the_apexes(anchors, rows):
    # type2 edits the raw coordinates, so a zero shift moves no row whose bicone factor is at least 1e-6;
    # at and beyond the apexes decode_raw reads s as 0, and only those rows may move
    coords = encode(np.array(rows), anchors)
    h, s, l = decode_raw(coords, anchors).T
    mean_s, mean_l = float(np.mean(s)), float(np.mean(l))
    assume(0.0 <= mean_s <= 1.0 and 0.0 <= mean_l <= 1.0)  # so HslColor holds the no-op target exactly
    out = type2(coords, HslColor(circular_mean_hue(h, chroma_weights(s, l)), mean_s, mean_l), anchors)
    kept = 1.0 - np.abs(2.0 * l - 1.0) >= 1e-6
    np.testing.assert_allclose(out[kept], coords[kept], rtol=0.0, atol=1e-9)


coloured_rows = st.lists(
    st.tuples(st.floats(0.0, 360.0, exclude_max=True), st.floats(0.05, 1.0), st.floats(0.05, 0.95)),
    min_size=1,
    max_size=8,
)
# rows that weigh 0: greys from black to white (s = 0), and rows at and beyond the apexes, where decode_raw reads s as 0
apex_or_beyond = st.sampled_from([0.0, 1.0]) | st.floats(1.0, 1.1) | st.floats(-0.1, 0.0)
achromatic_rows = st.lists(
    st.tuples(st.just(0.0), st.just(0.0), st.floats(0.0, 1.0))
    | st.tuples(st.floats(0.0, 360.0), st.floats(0.0, 1.0), apex_or_beyond),
    max_size=40,
)


@settings(deadline=None)
@given(coloured_rows, achromatic_rows, st.floats(0.0, 360.0, exclude_max=True))
def test_achromatic_rows_leave_the_hue_type2_gives_the_coloured_rows(anchors, coloured, achromatic, target_h):
    def coloured_hues(rows):
        coords = encode(np.array(rows, dtype=np.float64), anchors)
        h, s, l = decode_raw(coords, anchors).T
        mean_s, mean_l = float(np.mean(s)), float(np.mean(l))
        assume(0.0 <= mean_s <= 1.0 and 0.0 <= mean_l <= 1.0)
        # s and l shift by 0, so each coloured row keeps its place in the bicone and only the hue rotation moves it
        out = type2(coords, HslColor(target_h, mean_s, mean_l), anchors)
        n = len(coloured)
        return decode_raw(out[:n], anchors)[:, 0], h[:n], chroma_weights(s, l)[:n]

    alone, h, w = coloured_hues(coloured)
    resultant = np.hypot(np.sum(w * np.cos(np.radians(h))), np.sum(w * np.sin(np.radians(h))))
    assume(resultant >= 1e-3 * np.sum(w))  # near a cancellation the mean hue is ill-conditioned
    with_achromatic, _, _ = coloured_hues(coloured + achromatic)
    assert max(abs(signed_hue_delta(a, b)) for a, b in zip(alone.tolist(), with_achromatic.tolist())) <= 1e-9


def test_grey_rows_do_not_pull_the_coloured_rows_toward_red():
    # a green object on a light grey background: the object lands on the target hue whatever share the grey has
    anchors = _regular_anchors(60.0, 30.0)
    target = HslColor(200.0, 0.8, 0.5)
    for greys in range(4):
        rows = [(120.0, 0.8, 0.5)] * (4 - greys) + [(0.0, 0.0, 0.9)] * greys
        out = decode_raw(type2(encode(np.array(rows), anchors), target, anchors), anchors)
        np.testing.assert_allclose(out[: 4 - greys, 0], 200.0, rtol=0.0, atol=1e-9)
    # an all-grey mask has no weighted mean hue: it rotates from hue 0, the hue decode_raw gives a grey
    out = decode_raw(type2(encode(np.array([(0.0, 0.0, 0.9)] * 4), anchors), target, anchors), anchors)
    np.testing.assert_allclose(out, [(200.0, 0.8, 0.5)] * 4, rtol=0.0, atol=1e-9)


def test_interpolated_endpoints_are_bitwise(anchors):
    coords = random_block(anchors)
    assert np.array_equal(interpolated(coords, TARGET, anchors, 0, 40), type1(coords, TARGET, anchors))
    assert np.array_equal(interpolated(coords, TARGET, anchors, 40, 40), type2(coords, TARGET, anchors))


def test_interpolated_midpoint_blends(anchors):
    coords = random_block(anchors)
    blend = interpolated(coords, TARGET, anchors, 20, 40)
    expected = 0.5 * type1(coords, TARGET, anchors) + 0.5 * type2(coords, TARGET, anchors)
    assert np.allclose(blend, expected, atol=0)


def test_block_edits_reject_bad_shapes(anchors):
    with pytest.raises(ValueError):
        type1(np.zeros((0, 3)), TARGET, anchors)
    with pytest.raises(ValueError):
        type2(np.zeros((4, 2)), TARGET, anchors)


# ---------------------------------------------------------------------------
# full-tensor pipeline
# ---------------------------------------------------------------------------

@pytest.fixture()
def scene(embedder, model, anchors, toy_stats):
    rng = np.random.default_rng(41)
    z = rng.standard_normal((16, embedder.dim)) * 0.6
    return z, model, anchors, toy_stats


def test_apply_intervention_touches_only_masked_rows(scene):
    z, model, anchors, stats = scene
    mask = PatchMask(L=16, selected=frozenset({2, 3, 11}))
    out = apply_intervention(z, 30, TARGET, mask, model, anchors, stats)
    untouched = sorted(set(range(16)) - mask.selected)
    assert np.array_equal(out[untouched], z[untouched])
    assert not np.allclose(out[sorted(mask.selected)], z[sorted(mask.selected)])


def test_apply_intervention_preserves_complement(scene):
    z, model, anchors, stats = scene
    out = apply_intervention(z, 30, TARGET, None, model, anchors, stats)
    q, _ = np.linalg.qr(model.basis, mode="complete")
    comp = q[:, 3:]
    assert np.allclose((out - z) @ comp, 0.0, atol=1e-9)


def test_apply_intervention_type1_hits_target_mean(scene):
    z, model, anchors, stats = scene
    out = apply_intervention(z, 30, TARGET, None, model, anchors, stats, mode="type1")
    hat = normalize(project(out, model), 30, stats)
    assert np.allclose(hat.mean(axis=0), encode(TARGET, anchors), atol=1e-9)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(sorted(TIMESTEP_PALETTE)) | st.floats(-3.0, 3.0),  # a palette frame, or noise of 10 ** spread
    st.integers(1, 50),
    st.integers(0, 2**32 - 1),
    st.floats(-3.0, 6.0),
    st.lists(st.floats(-12.0, 0.0), min_size=6, max_size=6),
    st.floats(-12.0, 0.0),
    st.floats(-12.0, 0.0),
    st.none() | st.floats(0.0, 1.0),  # no mask, or each patch selected with this chance
    st.tuples(st.floats(0.0, 360.0, exclude_max=True), st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
)
def test_type1_lands_the_masked_mean_on_target_for_any_anchor_set_t_and_mask(
    palette_runs, model, toy_stats, block, t, seed, log_scale, log_radii, log_axis, log_offset, share, target
):
    try:
        anchors = AnchorSet(*scaled_hexagon(seed, log_scale, log_radii, log_axis, log_offset))
    except ValueError:
        assume(False)
    rng = np.random.default_rng(seed)
    if isinstance(block, str):
        z = palette_runs[block][t]
    else:
        z = model.mean + rng.standard_normal((64, model.dim)) * 10.0**block
    rows = np.arange(64) if share is None else np.flatnonzero(rng.random(64) < share)
    assume(rows.size)
    mask = None if share is None else PatchMask(64, frozenset(rows.tolist()))
    out = apply_intervention(z, t, HslColor(*target), mask, model, anchors, toy_stats, mode="type1")
    before, _ = _chart(z[rows], model, t, toy_stats)
    after, _ = _chart(out[rows], model, t, toy_stats)
    # the scale of the numbers in play: the anchor set's largest coordinate, or the charted block's if larger
    scale = max(float(np.abs(v).max()) for v in (anchors.hue_anchors, anchors.black, anchors.white, before))
    assert float(np.abs(after.mean(axis=0) - encode(HslColor(*target), anchors)).max()) <= 1e-12 * scale


@pytest.mark.parametrize("mode, edit", [("type1", "type1"), ("type2", "type2"), ("interp", "interpolated")])
@settings(max_examples=60, deadline=None)
@given(t=st.integers(1, 50), selected=st.none() | st.sets(st.integers(0, 15), min_size=1))
def test_apply_intervention_write_back_roundtrip(embedder, model, anchors, toy_stats, mode, edit, t, selected):
    # the core's blocks are the chart of the masked rows and the named edit of it, bit for bit ...
    z = np.random.default_rng(41).standard_normal((16, embedder.dim)) * 0.6
    mask = None if selected is None else PatchMask(L=16, selected=frozenset(selected))
    rows = np.arange(16) if mask is None else mask.indices
    out, hat, edited = intervene._intervene(z, t, TARGET, mask, model, anchors, toy_stats, mode)
    assert np.array_equal(out, apply_intervention(z, t, TARGET, mask, model, anchors, toy_stats, mode=mode))
    want_hat, gain = _chart(z[rows], model, t, toy_stats)
    assert hat.tobytes() == want_hat.tobytes()
    horizon = (t, toy_stats.T) if mode == "interp" else ()
    assert edited.tobytes() == getattr(intervene, edit)(hat, TARGET, anchors, *horizon).tobytes()
    # ... the write-back leaves the other rows as they were and moves the masked ones within the span ...
    keep = np.ones(16, dtype=bool)
    keep[rows] = False
    assert out[keep].tobytes() == z[keep].tobytes()
    delta = out - z
    np.testing.assert_allclose(delta - (delta @ model.basis) @ model.basis.T, 0.0, rtol=0.0, atol=1e-12)
    # ... so that charting the output gives back the edited coordinates ...
    np.testing.assert_allclose(_chart(out[rows], model, t, toy_stats)[0], edited, rtol=0.0, atol=1e-12 * gain.max())
    # ... and an edit that moves nothing writes back nothing, bit for bit
    with mock.patch.object(intervene, edit, lambda coords, *args: coords):
        assert np.array_equal(apply_intervention(z, t, TARGET, mask, model, anchors, toy_stats, mode=mode), z)


@pytest.mark.parametrize("mode", intervene.MODES)
@settings(max_examples=20, deadline=None)
@given(t=st.integers(1, 50), seed=st.integers(0, 2**32 - 1), order=st.sampled_from("CF"))
def test_no_mask_is_the_full_mask_bitwise(embedder, model, anchors, toy_stats, mode, t, seed, order):
    check_no_mask_is_the_full_mask_bitwise(embedder, model, anchors, toy_stats, mode, t, seed, order)


@pytest.mark.parametrize("mode", intervene.MODES)
@pytest.mark.parametrize("t, seed, order", [(1, 0, "F"), (25, 1, "C"), (49, 2, "F")])
def test_no_mask_is_the_full_mask_bitwise_on_seeded_cases(embedder, model, anchors, toy_stats, mode, t, seed, order):
    check_no_mask_is_the_full_mask_bitwise(embedder, model, anchors, toy_stats, mode, t, seed, order)


def check_no_mask_is_the_full_mask_bitwise(embedder, model, anchors, toy_stats, mode, t, seed, order):
    # with no mask or a full one, z is charted and written back whole, with no gather and no scatter: the same
    # bits as gathering those rows, which a mask leaving out one extra row does
    z = np.asarray(np.random.default_rng(seed).standard_normal((16, embedder.dim)) * 0.6, order=order)
    full = intervene._intervene(z, t, TARGET, PatchMask.full(16), model, anchors, toy_stats, mode)
    whole = intervene._intervene(z, t, TARGET, None, model, anchors, toy_stats, mode)
    first16 = PatchMask(L=17, selected=frozenset(range(16)))
    out, hat, edited = intervene._intervene(np.vstack([z, z[:1]]), t, TARGET, first16, model, anchors, toy_stats, mode)
    gathered = [out[:16].tobytes(), hat.tobytes(), edited.tobytes()]
    assert [a.tobytes() for a in whole] == [a.tobytes() for a in full] == gathered
    assert z.tobytes() == (np.random.default_rng(seed).standard_normal((16, embedder.dim)) * 0.6).tobytes()


def test_a_full_mask_writes_back_without_gathering_rows(embedder, model, anchors, toy_stats):
    z = np.random.default_rng(5).standard_normal((16384, embedder.dim))  # 2 MB
    mask = PatchMask.full(16384)
    apply_intervention(z, 30, TARGET, mask, model, anchors, toy_stats, mode="type1")  # lazy set-up is not the peak
    tracemalloc.start()
    try:
        apply_intervention(z, 30, TARGET, mask, model, anchors, toy_stats, mode="type1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * z.nbytes  # the output and the chart's blocks; a gather, a copy and a scatter make it 3.6


def test_apply_intervention_refuses_an_empty_tensor(scene):
    z, model, anchors, stats = scene
    with pytest.raises(ValueError, match="empty mask"):
        apply_intervention(z[:0], 30, TARGET, None, model, anchors, stats)


@pytest.mark.parametrize("mode", ["type1", "type2", "interp"])
def test_apply_intervention_moves_only_within_span(scene, mode):
    z, model, anchors, stats = scene
    delta = apply_intervention(z, 30, TARGET, None, model, anchors, stats, mode=mode) - z
    # delta must be expressible in the basis: projecting loses nothing
    np.testing.assert_allclose(delta, (delta @ model.basis) @ model.basis.T, rtol=0.0, atol=1e-12)


def test_apply_intervention_none_mask_edits_all(scene):
    z, model, anchors, stats = scene
    out = apply_intervention(z, 30, TARGET, None, model, anchors, stats)
    assert not np.any(np.all(out == z, axis=1))


@pytest.mark.parametrize("mode", intervene.MODES)
def test_apply_intervention_refuses_a_model_value_that_overflows(palette_runs, model, anchors, toy_stats, mode):
    # the record checks pass and the chart stays finite; the edit overflows, and must not return non-finite rows
    mean = model.mean.copy()
    mean[0] = 1.7e308
    huge = SubspaceModel(mean, model.basis, model.explained)
    with pytest.raises(FloatingPointError):
        apply_intervention(palette_runs["Bright red"][10], 10, TARGET, None, huge, anchors, toy_stats, mode)


def test_apply_intervention_validation(scene):
    z, model, anchors, stats = scene
    with pytest.raises(ValueError, match="empty mask"):
        apply_intervention(z, 30, TARGET, PatchMask(L=16), model, anchors, stats)
    with pytest.raises(ValueError, match="mask is for"):
        apply_intervention(z, 30, TARGET, PatchMask.full(4), model, anchors, stats)
    with pytest.raises(ValueError, match="mode"):
        apply_intervention(z, 30, TARGET, None, model, anchors, stats, mode="type3")
    with pytest.raises(ValueError):
        apply_intervention(z[0], 30, TARGET, None, model, anchors, stats)
