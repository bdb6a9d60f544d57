"""Seeded toy flow model with fully known color geometry."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import latentcolor
from latentcolor import (
    AttractorField,
    ColorGrid,
    ToyEmbedder,
    decode,
    embed_image,
    generate,
    initial_noise,
    make_probe_set,
    parse_hex,
    sample_path,
    solid_attractor,
    toy_decode,
)
from latentcolor.bicone import ANCHOR_LABELS, HUE_DEGREES, HUE_LABELS
from latentcolor.colorspace import HslColor, signed_hue_delta
from latentcolor.toyflow import (
    AXIS_LENGTH,
    CHROMA_RADIUS,
    TIMESTEP_PALETTE,
    _hidden,
    _nearest,
    embed_hsl,
    probe_colors,
)
from colorref import hsv_to_hsl, rgb_to_hsl

WHITE = HslColor(0.0, 0.0, 1.0)
GREY = HslColor(0.0, 0.0, 0.5)
RED = HslColor(0.0, 1.0, 0.5)
CYAN = HslColor(180.0, 1.0, 0.5)


# ---------------------------------------------------------------------------
# embedder
# ---------------------------------------------------------------------------

def test_create_is_deterministic():
    a = ToyEmbedder.create(seed=7, d=16)
    b = ToyEmbedder.create(seed=7, d=16)
    c = ToyEmbedder.create(seed=8, d=16)
    assert np.array_equal(a.lift, b.lift)
    assert np.array_equal(a.offset, b.offset)
    assert not np.array_equal(a.lift, c.lift)


def test_lift_is_orthonormal(embedder):
    assert np.allclose(embedder.lift.T @ embedder.lift, np.eye(3), atol=1e-12)


def test_embedding_of_known_colors(embedder):
    q, mu = embedder.lift, embedder.offset
    assert np.allclose(embed_hsl(HslColor(0, 0, 0), embedder), mu, atol=1e-12)
    assert np.allclose(embed_hsl(WHITE, embedder), mu + q @ [AXIS_LENGTH, 0, 0], atol=1e-12)
    assert np.allclose(embed_hsl(GREY, embedder), mu + q @ [AXIS_LENGTH / 2, 0, 0], atol=1e-12)
    assert np.allclose(
        embed_hsl(RED, embedder), mu + q @ [AXIS_LENGTH / 2, CHROMA_RADIUS, 0], atol=1e-12
    )
    assert np.allclose(
        embed_hsl(CYAN, embedder), mu + q @ [AXIS_LENGTH / 2, -CHROMA_RADIUS, 0], atol=1e-12
    )


@pytest.mark.parametrize("h,s,l", [(12.0, 0.8, 0.33), (200.0, 0.1, 0.9), (359.0, 1.0, 0.5)])
def test_toy_decode_inverts_embedding(embedder, h, s, l):
    y = HslColor(h, s, l)
    back = toy_decode(embed_hsl(y, embedder), embedder)
    assert abs(signed_hue_delta(back.h, y.h)) < 1e-9
    assert back.s == pytest.approx(y.s, abs=1e-9)
    assert back.l == pytest.approx(y.l, abs=1e-9)


def test_decode_ignores_complement_directions(embedder):
    q, _ = np.linalg.qr(embedder.lift, mode="complete")
    comp = q[:, 3:]
    z = embedder.offset + comp @ np.random.default_rng(61).standard_normal(embedder.dim - 3) * 50.0
    y = toy_decode(z, embedder)
    assert (y.h, y.s) == (0.0, 0.0)
    assert y.l == pytest.approx(0.0, abs=1e-12)


def test_embed_image_is_row_major(embedder):
    grid = ColorGrid(1, 2, (RED, WHITE))
    z = embed_image(grid, embedder)
    assert z.shape == (2, embedder.dim)
    assert np.array_equal(z[0], embed_hsl(RED, embedder))
    assert np.array_equal(z[1], embed_hsl(WHITE, embedder))


def test_create_rejects_tiny_dim():
    with pytest.raises(ValueError):
        ToyEmbedder.create(seed=0, d=2)


# ---------------------------------------------------------------------------
# probes
# ---------------------------------------------------------------------------

def test_probe_colors_cover_anchor_labels():
    colors = probe_colors()
    assert set(colors) == set(ANCHOR_LABELS)
    for label, theta in zip(HUE_LABELS, HUE_DEGREES):
        assert colors[label] == HslColor(theta, 1.0, 0.5)
    assert colors["black"].l == 0.0
    assert colors["white"].l == 1.0


def test_make_probe_set_is_deterministic(embedder):
    a = make_probe_set(embedder)
    b = make_probe_set(embedder)
    assert a.lattice.shape == (512, embedder.dim)
    assert np.array_equal(a.lattice, b.lattice)
    assert set(a.labeled) == set(ANCHOR_LABELS)


def test_probe_lattice_is_hsv_reference_bitwise(embedder):
    # one array pass gives the per-color loop's latents, so no fitted toy model moves
    n = 8
    want = [hsv_to_hsl(360.0 * i / n, (j + 0.5) / n, (k + 0.5) / n) for i in range(n) for j in range(n) for k in range(n)]
    probes = make_probe_set(embedder)
    assert probes.lattice.tobytes() == embed_hsl(np.array([(c.h, c.s, c.l) for c in want]), embedder).tobytes()


def test_lattice_spans_the_full_gamut(probe_set, embedder):
    _, s, l = decode((probe_set.lattice - embedder.offset) @ embedder.lift, embedder.anchors).T
    assert min(l) < 0.1 and max(l) > 0.9
    assert max(s) > 0.85


# ---------------------------------------------------------------------------
# paths and fields
# ---------------------------------------------------------------------------

def test_sample_path_endpoints_and_midpoint():
    rng = np.random.default_rng(62)
    z0, z1 = rng.standard_normal((2, 4, 5))
    assert np.array_equal(sample_path(z1, z0, 0, 10), z0)
    assert np.array_equal(sample_path(z1, z0, 10, 10), z1)
    assert np.allclose(sample_path(z1, z0, 5, 10), 0.5 * (z0 + z1), atol=1e-15)
    with pytest.raises(ValueError):
        sample_path(z1, z0[:2], 0, 10)
    with pytest.raises(ValueError):
        sample_path(z1, z0, 11, 10)


def test_field_validation(embedder):
    att = solid_attractor(RED, embedder, (2, 2))
    with pytest.raises(ValueError):
        AttractorField(attractors=(), T=10, embedder=embedder)
    with pytest.raises(ValueError):
        AttractorField(attractors=(att,), T=0, embedder=embedder)
    with pytest.raises(ValueError):
        AttractorField(attractors=(att, att[:, :4]), T=10, embedder=embedder)


def test_field_refusals_say_what_is_wrong(embedder):
    att = solid_attractor(RED, embedder, (2, 2))
    with pytest.raises(ValueError, match="^need T >= 1, got 0$"):
        AttractorField(attractors=(att,), T=0, embedder=embedder)
    with pytest.raises(ValueError, match="^field needs at least one attractor$"):
        AttractorField(attractors=(), T=10, embedder=embedder)
    for atts, shapes in (((att, att[:2]), "(2, 16), (4, 16)"), ((att[:, :4],), "(4, 4)"), ((att[0],), "(16,)")):
        with pytest.raises(ValueError, match=rf"^attractors must share one \(L, 16\) shape, got \[{re.escape(shapes)}\]$"):
            AttractorField(attractors=atts, T=10, embedder=embedder)


def nearest_attractor(z, field):
    """generate's choice of attractor for the state z, given the attractors' charts."""
    return _nearest(z, field, [_hidden(a, field) for a in field.attractors])


def test_nearest_attractor_ignores_complement(embedder):
    a = solid_attractor(RED, embedder, (2, 2))
    b = solid_attractor(CYAN, embedder, (2, 2))
    field = AttractorField(attractors=(a, b), T=10, embedder=embedder)
    q, _ = np.linalg.qr(embedder.lift, mode="complete")
    comp = q[:, 3:]
    noise = np.random.default_rng(63).standard_normal((4, embedder.dim - 3)) * 100.0
    assert nearest_attractor(a + noise @ comp.T, field) == 0
    assert nearest_attractor(b + noise @ comp.T, field) == 1


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

def test_generate_shape_and_start(embedder):
    att = solid_attractor(RED, embedder, (2, 2))
    field = AttractorField(attractors=(att,), T=12, embedder=embedder)
    z0 = initial_noise(4, embedder.dim, seed=64)
    traj = generate(z0, field)
    assert traj.shape == (13, 4, embedder.dim)
    assert np.array_equal(traj[0], z0)


def test_generate_lands_on_attractor(embedder):
    att = solid_attractor(RED, embedder, (2, 2))
    field = AttractorField(attractors=(att,), T=12, embedder=embedder)
    traj = generate(initial_noise(4, embedder.dim, seed=65), field)
    assert np.allclose(traj[-1], att, atol=1e-9)


def test_single_step_jumps_to_attractor(embedder):
    att = solid_attractor(CYAN, embedder, (2, 2))
    field = AttractorField(attractors=(att,), T=1, embedder=embedder)
    traj = generate(initial_noise(4, embedder.dim, seed=66), field)
    assert traj.shape[0] == 2
    assert np.allclose(traj[1], att, atol=1e-6)


def test_generate_is_constant_at_attractor(embedder):
    att = solid_attractor(RED, embedder, (2, 2))
    field = AttractorField(attractors=(att,), T=5, embedder=embedder)
    traj = generate(att, field)
    for frame in traj:
        assert np.array_equal(frame, att)


def test_generate_follows_interpolation_path(embedder):
    # single attractor: every Euler step stays on the straight noise->target line
    att = solid_attractor(RED, embedder, (2, 2))
    field = AttractorField(attractors=(att,), T=10, embedder=embedder)
    z0 = initial_noise(4, embedder.dim, seed=67)
    traj = generate(z0, field)
    for t in range(11):
        assert np.allclose(traj[t], sample_path(att, z0, t, 10), atol=1e-9)


def test_generate_converges_to_nearer_attractor(embedder):
    a = solid_attractor(RED, embedder, (2, 2))
    b = solid_attractor(CYAN, embedder, (2, 2))
    field = AttractorField(attractors=(a, b), T=10, embedder=embedder)
    rng = np.random.default_rng(69)
    near_a = sample_path(a, rng.standard_normal(a.shape), 8, 10)
    traj = generate(near_a, field)
    assert np.allclose(traj[-1], a, atol=1e-9)


def test_edit_callback_reroutes_the_flow(embedder):
    a = solid_attractor(RED, embedder, (2, 2))
    b = solid_attractor(CYAN, embedder, (2, 2))
    field = AttractorField(attractors=(a, b), T=10, embedder=embedder)
    z0 = sample_path(a, initial_noise(4, embedder.dim, seed=70), 8, 10)

    seen = []

    def edit(z, t):
        seen.append(t)
        return b if t == 3 else z

    traj = generate(z0, field, edit=edit)
    assert seen == list(range(11))
    assert np.array_equal(traj[3], b)
    assert np.allclose(traj[-1], b, atol=1e-9)


def test_final_frame_decodes_to_attractor_color(embedder):
    color = HslColor(260.0, 0.75, 0.4)
    att = solid_attractor(color, embedder, (3, 3))
    field = AttractorField(attractors=(att,), T=20, embedder=embedder)
    traj = generate(initial_noise(9, embedder.dim, seed=71), field)
    for row in traj[-1]:
        got = toy_decode(row, embedder)
        assert abs(signed_hue_delta(got.h, color.h)) < 1e-6
        assert got.s == pytest.approx(color.s, abs=1e-6)
        assert got.l == pytest.approx(color.l, abs=1e-6)


# ---------------------------------------------------------------------------
# palette
# ---------------------------------------------------------------------------

def test_palette_has_26_named_colors():
    assert len(TIMESTEP_PALETTE) == 26
    for hexcode in TIMESTEP_PALETTE.values():
        assert latentcolor.rgb_to_hsl(parse_hex(hexcode)) == rgb_to_hsl(parse_hex(hexcode))


# ---------------------------------------------------------------------------
# generation against the step-by-step reference
# ---------------------------------------------------------------------------

def _reference_nearest(z, field):
    q, mu = field.embedder.lift, field.embedder.offset
    coords = (z - mu) @ q
    return int(np.argmin([float(np.sum(((a - mu) @ q - coords) ** 2)) for a in field.attractors]))


def _reference_generate(z0, field, edit=None):
    # one fresh state per step, recorded after the edit
    T = field.T
    z = np.asarray(z0, dtype=np.float64).copy()
    frames = np.empty((T + 1,) + z.shape)
    for k in range(T + 1):
        if edit is not None:
            z = np.asarray(edit(z, k), dtype=np.float64)
        frames[k] = z
        if k < T:
            z = z + (field.attractors[_reference_nearest(z, field)] - z) / (T - k)
    return frames


@st.composite
def flow_cases(draw):
    T = draw(st.integers(1, 60))
    L = draw(st.integers(1, 5))
    d = draw(st.integers(3, 16))
    n = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    e = ToyEmbedder.create(seed=seed % 1000, d=d)
    rng = np.random.default_rng(seed)
    atts = [e.offset + rng.standard_normal((L, d)) * 30.0 for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        atts[1] = atts[0].copy()  # equal attractors: the first index must win
    z0 = rng.standard_normal((L, d)) * draw(st.sampled_from([1.0, 30.0]))
    if draw(st.booleans()):
        z0 = atts[draw(st.integers(0, n - 1))].copy()
    return AttractorField(attractors=tuple(atts), T=T, embedder=e), z0


def _mutating_edit(field):
    shift = field.attractors[-1] - field.attractors[0]
    handed = []

    def edit(z, t):
        for old in handed:  # arrays handed out at earlier steps: mutating them must not reach the trajectory
            old *= -0.5
        handed.append(z)
        z[t % len(z)] *= -0.5
        return z if t % 3 else z + shift

    return edit


@settings(max_examples=80, deadline=None)
@given(case=flow_cases(), edited=st.booleans())
def test_generate_is_the_reference_loop_bitwise(case, edited):
    check_generate_is_the_reference_loop_bitwise(*case, edited)


@pytest.mark.parametrize("T, L, n, seed", [(1, 1, 1, 0), (7, 3, 2, 1), (40, 5, 3, 2)])
def test_generate_is_the_reference_loop_bitwise_on_seeded_fields(T, L, n, seed):
    e = ToyEmbedder.create(seed=seed, d=8)
    rng = np.random.default_rng(seed)
    atts = tuple(e.offset + rng.standard_normal((L, 8)) * 30.0 for _ in range(n))
    for edited in (False, True):
        check_generate_is_the_reference_loop_bitwise(AttractorField(atts, T, e), rng.standard_normal((L, 8)), edited)


def check_generate_is_the_reference_loop_bitwise(field, z0, edited):
    for z in (z0, *field.attractors):
        assert nearest_attractor(z, field) == _reference_nearest(z, field)
    want = _reference_generate(z0, field, _mutating_edit(field) if edited else None)
    got = generate(z0, field, _mutating_edit(field) if edited else None)
    assert got.tobytes() == want.tobytes()


def test_equal_attractors_pick_the_first(embedder):
    a = solid_attractor(RED, embedder, (2, 2))
    field = AttractorField(attractors=(a, a.copy(), a.copy()), T=4, embedder=embedder)
    assert nearest_attractor(a, field) == 0
    assert nearest_attractor(initial_noise(4, embedder.dim, seed=72), field) == 0


@pytest.mark.parametrize("result", ["row", "one-row-block", "short-block"])
def test_generate_refuses_a_wrong_shaped_edit(embedder, result):
    att = solid_attractor(RED, embedder, (2, 2))
    field = AttractorField(attractors=(att,), T=5, embedder=embedder)
    cut = {"row": lambda z: z[0], "one-row-block": lambda z: z[:1], "short-block": lambda z: z[:-1]}[result]
    edit = lambda z, t: cut(z) if t == 2 else z
    with pytest.raises(ValueError) as info:
        generate(initial_noise(4, embedder.dim, seed=73), field, edit=edit)
    want_shape = cut(att).shape
    assert str(info.value) == f"edit at t=2 returned shape {want_shape}, expected the state's {att.shape}"


def test_generate_refuses_a_z0_of_another_shape(embedder):
    att = solid_attractor(RED, embedder, (2, 2))
    field = AttractorField(attractors=(att,), T=5, embedder=embedder)
    with pytest.raises(ValueError) as info:
        generate(initial_noise(3, embedder.dim, seed=73), field)
    assert str(info.value) == f"z0 shape (3, {embedder.dim}) does not match attractors (4, {embedder.dim})"


@pytest.mark.parametrize("shape", [(1, 16), (15,), ()], ids=["block", "short", "scalar"])
def test_toy_decode_refuses_anything_but_one_latent_vector(embedder, shape):
    with pytest.raises(ValueError) as info:
        toy_decode(np.zeros(shape), embedder)
    assert str(info.value) == f"expected a ({embedder.dim},) latent vector, got shape {shape}"


def test_generate_refuses_a_trajectory_too_large_to_allocate(embedder):
    # 1e11 + 1 frames of 64 x 16 float64 is 745 TiB: the allocation is refused at once, nothing is touched
    att = solid_attractor(RED, embedder, (8, 8))
    field = AttractorField(attractors=(att,), T=100_000_000_000, embedder=embedder)
    with pytest.raises(ValueError, match=r"\(100000000001, 64, 16\)"):
        generate(att, field)
