"""Binary latent files, trajectory directories, and canonical JSON."""

import json
import os
import stat

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from latentcolor import ColorGrid, PatchMask, SubspaceModel, read_latents, tensorio, write_latents
from latentcolor.colorspace import HslColor
from latentcolor.tensorio import atomic_write_bytes, float_array, save_trajectory, write_json


def read_json(path):
    """A JSON file's value as every record file's JSON is read: the one reader and the one parse."""
    return tensorio._read(path, tensorio._json)


def stacked_steps(manifest):
    """A trajectory's (T+1, L, d) array, stacked from the steps its one reader yields."""
    return np.stack(list(tensorio._steps(manifest)))


def test_latents_roundtrip_is_float32_exact(tmp_path):
    path = tmp_path / "z.lt"
    z = np.random.default_rng(3).standard_normal((5, 7))
    write_latents(path, z)
    back = read_latents(path)
    assert back.shape == (5, 7)
    assert back.dtype == np.float64
    assert np.array_equal(back, z.astype(np.float32).astype(np.float64))


def test_latents_header_is_json_line(tmp_path):
    path = tmp_path / "z.lt"
    write_latents(path, np.zeros((2, 4)))
    raw = path.read_bytes()
    header, payload = raw.split(b"\n", 1)
    obj = json.loads(header)
    assert obj == {"dims": [2, 4], "dtype": "f32le"}
    assert len(payload) == 2 * 4 * 4


def test_latent_file_is_the_header_line_then_the_float32_rows(tmp_path):
    path = tmp_path / "z.lt"
    z = np.random.default_rng(4).standard_normal((4, 3)).T  # a non-contiguous float64 view
    write_latents(path, z)
    header = json.dumps({"dims": [3, 4], "dtype": "f32le"}).encode("ascii")
    assert path.read_bytes() == header + b"\n" + z.astype("<f4").tobytes()


def test_rewrite_is_byte_identical(tmp_path):
    z = np.random.default_rng(9).standard_normal((3, 5))
    a, b = tmp_path / "a.lt", tmp_path / "b.lt"
    write_latents(a, z)
    write_latents(b, z)
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize(
    "mangle",
    [
        lambda h, p: (b"not json", p),
        lambda h, p: (json.dumps({"dims": [2, 4], "dtype": "f64le"}).encode(), p),
        lambda h, p: (json.dumps({"dims": [2], "dtype": "f32le"}).encode(), p),
        lambda h, p: (json.dumps({"dims": [2, 0], "dtype": "f32le"}).encode(), p),
        lambda h, p: (json.dumps({"dims": [True, 8], "dtype": "f32le"}).encode(), p),  # 1 x 8 fits the payload
        lambda h, p: (h, p[:-1]),
        lambda h, p: (h, p + b"\x00"),
    ],
)
def test_malformed_latent_files_are_rejected(tmp_path, mangle):
    path = tmp_path / "z.lt"
    write_latents(path, np.zeros((2, 4)))
    header, payload = path.read_bytes().split(b"\n", 1)
    header, payload = mangle(header, payload)
    path.write_bytes(header + b"\n" + payload)
    with pytest.raises(ValueError):
        read_latents(path)


_HEADER_2x4 = b'{"dims": [2, 4], "dtype": "f32le"}'


@pytest.mark.parametrize("raw, message", [
    (_HEADER_2x4 + bytes(32), "missing header line"),
    (b'{"dims": [2, 4]}\n' + bytes(32), "unsupported header {'dims': [2, 4]}"),
    (b'{"dims": [2, -4], "dtype": "f32le"}\n' + bytes(32), "bad dims [2, -4]"),
    (_HEADER_2x4 + b"\n" + bytes(31), "expected 32 payload bytes, found 31"),
    (b'{"dims": [4, 2], "dtype": "f32le"}\n' + bytes(32), "latent tensor needs L >= 1 patches and d >= 3 dims, got (4, 2)"),
    (_HEADER_2x4 + b"\n" + bytes(28) + np.float32(np.nan).tobytes(), "latent tensor contains non-finite values"),
    (_HEADER_2x4 + b"\n" + np.float32(-np.inf).tobytes() + bytes(28), "latent tensor contains non-finite values"),
], ids=["no-newline", "no-dtype", "negative-dim", "short", "d-below-3", "nan", "-inf"])
def test_read_latents_names_the_file_in_each_refusal(tmp_path, raw, message):
    path = tmp_path / "z.lt"
    path.write_bytes(raw)
    with pytest.raises(ValueError) as info:
        read_latents(path)
    assert str(info.value) == f"{path}: {message}"


@pytest.mark.parametrize("value", [1e39, -1e39, 3.4028236e38, np.finfo(np.float64).max])
def test_write_latents_refuses_a_value_float32_cannot_hold(tmp_path, value):
    path = tmp_path / "z.lt"
    z = np.zeros((2, 3))
    z[1, 2] = value
    with pytest.raises(ValueError) as info:
        write_latents(path, z)
    assert str(info.value) == f"{path}: latent values beyond float32's largest magnitude, 3.4028235e38, cannot be stored"
    assert not path.exists()


def test_write_latents_stores_float32s_largest_magnitude(tmp_path):
    path = tmp_path / "z.lt"
    top = float(np.finfo(np.float32).max)
    z = np.array([[top, -top, np.nextafter(top, np.inf)]])  # the last rounds down to float32's largest, not up to inf
    write_latents(path, z)
    assert read_latents(path).tolist() == [[top, -top, top]]


def test_rejects_nonfinite_and_bad_shapes(tmp_path):
    bad = np.zeros((2, 4))
    bad[0, 0] = np.nan
    path = tmp_path / "z.lt"
    for z, says in [
        (np.zeros((2, 2)), "latent tensor needs L >= 1 patches and d >= 3 dims, got (2, 2)"),
        (np.zeros(8), "latent tensor must be 2-D, got shape (8,)"),
        (bad, "latent tensor contains non-finite values"),
    ]:
        with pytest.raises(ValueError) as info:
            write_latents(path, z)
        assert str(info.value) == f"{path}: {says}"  # each refusal names the file, as the float32 one does
        assert not path.exists()


def test_trajectory_roundtrip(tmp_path):
    traj = np.random.default_rng(4).standard_normal((6, 3, 4))
    manifest = save_trajectory(tmp_path / "run", traj)
    back = stacked_steps(manifest)
    assert back.shape == (6, 3, 4)
    assert np.array_equal(back, traj.astype(np.float32).astype(np.float64))
    obj = read_json(manifest)
    assert obj["T"] == 5
    assert [s["t"] for s in obj["steps"]] == list(range(6))


def test_trajectory_is_the_stacked_step_files_bitwise(tmp_path):
    traj = np.random.default_rng(5).standard_normal((7, 9, 5)) * 40.0
    manifest = save_trajectory(tmp_path / "run", traj)
    stacked = np.stack([read_latents(tmp_path / "run" / f"t{t:03d}.lt") for t in range(7)])
    back = stacked_steps(manifest)
    assert back.dtype == np.float64 and back.flags.c_contiguous
    assert back.tobytes() == stacked.tobytes()


def test_trajectory_rejects_a_non_finite_step(tmp_path):
    manifest = save_trajectory(tmp_path / "run", np.zeros((3, 2, 3)))
    step = tmp_path / "run" / "t002.lt"
    header, payload = step.read_bytes().split(b"\n", 1)
    step.write_bytes(header + b"\n" + np.float32(np.inf).tobytes() + payload[4:])
    with pytest.raises(ValueError) as info:
        stacked_steps(manifest)
    assert str(info.value) == f"{step}: latent tensor contains non-finite values"


def _step_file(manifest, name):
    """manifest with step 1's file named name."""
    steps = manifest["steps"]
    return {**manifest, "steps": [steps[0], {**steps[1], "file": name}, *steps[2:]]}


STRAY = "is not a plain name in the manifest's directory"


@pytest.mark.parametrize("edit, message", [
    (lambda o: {**o, "T": 3}, "bad manifest: 3 steps listed for T=3"),
    (lambda o: {**o, "T": -1}, "bad manifest: 3 steps listed for T=-1"),
    (lambda o: {**o, "dims": [2, "3"]}, "bad manifest: bad dims [2, '3']"),
    (lambda o: {**o, "dims": [2, 3, 1]}, "bad manifest: bad dims [2, 3, 1]"),
    (lambda o: _step_file(o, "/elsewhere/t001.lt"), f"bad manifest: step file '/elsewhere/t001.lt' {STRAY}"),
    (lambda o: _step_file(o, "../other/t001.lt"), f"bad manifest: step file '../other/t001.lt' {STRAY}"),
    (lambda o: _step_file(o, "sub/t001.lt"), f"bad manifest: step file 'sub/t001.lt' {STRAY}"),
    (lambda o: _step_file(o, ""), f"bad manifest: step file '' {STRAY}"),
    (lambda o: _step_file(o, "."), f"bad manifest: step file '.' {STRAY}"),
    (lambda o: _step_file(o, ".."), f"bad manifest: step file '..' {STRAY}"),
    (lambda o: _step_file(o, "t\0.lt"), f"bad manifest: step file 't\\x00.lt' {STRAY}"),
    (lambda o: _step_file(o, 1), f"bad manifest: step file 1 {STRAY}"),
], ids=[
    "T-one-more", "T-negative", "string-dim", "three-dims",
    "absolute-file", "file-in-a-sibling-directory", "file-in-a-subdirectory", "empty-file", "dot-file", "dot-dot-file",
    "nul-byte-file", "number-file",
])
def test_a_bad_manifest_is_refused_naming_it(tmp_path, edit, message):
    manifest = save_trajectory(tmp_path / "run", np.zeros((3, 2, 3)))
    write_json(manifest, edit(read_json(manifest)))
    with pytest.raises(ValueError) as info:
        stacked_steps(manifest)
    assert str(info.value) == f"{manifest}: {message}"


@pytest.mark.parametrize("shape", [(2, 3), (1, 2, 3, 4)])
def test_save_trajectory_refuses_an_array_that_is_not_3d(tmp_path, shape):
    with pytest.raises(ValueError) as info:
        save_trajectory(tmp_path / "run", np.zeros(shape))
    assert str(info.value) == f"trajectory must be (T+1, L, d), got shape {shape}"
    assert not (tmp_path / "run").exists()


def test_trajectory_rejects_gapped_steps(tmp_path):
    manifest = save_trajectory(tmp_path / "run", np.zeros((3, 2, 3)))
    obj = read_json(manifest)
    obj["steps"][1]["t"] = 5
    write_json(manifest, obj)
    with pytest.raises(ValueError) as info:
        stacked_steps(manifest)
    assert str(info.value) == f"{manifest}: bad manifest: timesteps not the integers 0 to 2"


def test_trajectory_rejects_frame_shape_drift(tmp_path):
    manifest = save_trajectory(tmp_path / "run", np.zeros((3, 2, 3)))
    write_latents(tmp_path / "run" / "t001.lt", np.zeros((4, 3)))
    with pytest.raises(ValueError) as info:
        stacked_steps(manifest)
    assert str(info.value) == f"{manifest}: dims [2, 3], but {tmp_path / 'run' / 't001.lt'} holds [4, 3]"


def test_trajectory_steps_are_read_one_at_a_time(tmp_path):
    traj = np.random.default_rng(6).standard_normal((3, 2, 3))
    manifest = save_trajectory(tmp_path / "run", traj)
    (tmp_path / "run" / "t001.lt").write_bytes(b"garbage")
    steps = tensorio._steps(manifest)
    first = next(steps)  # step 0 comes out before step 1 is opened
    assert first.dtype == np.float64 and np.array_equal(first, traj[0].astype(np.float32))
    with pytest.raises(ValueError) as info:
        next(steps)
    assert str(info.value) == f"{tmp_path / 'run' / 't001.lt'}: missing header line"


def test_write_json_is_canonical(tmp_path):
    path = tmp_path / "x.json"
    write_json(path, {"b": 1, "a": [1.5, 2]})
    text = path.read_text()
    assert text == '{"a":[1.5,2],"b":1}\n'
    assert read_json(path) == {"a": [1.5, 2], "b": 1}


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_json_refuses_non_finite_numbers(tmp_path, value):
    path = tmp_path / "x.json"
    with pytest.raises(ValueError, match="x.json"):
        write_json(path, {"a": [1.0, value]})
    assert not path.exists()
    path.write_text(json.dumps({"a": [1.0, value]}))  # bare NaN / Infinity / -Infinity
    with pytest.raises(ValueError, match="non-finite"):
        read_json(path)


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


_EDGE_FLOATS = (-0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308)
_finite = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(_EDGE_FLOATS)
_strings = st.text() | st.sampled_from(['"', "\\", '\\"q"', "\n\t\x00\x1f", "é", "日本", " ", "\U0001f600"])
_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(10**399, 10**400),
    _finite,
    _finite.map(np.float64),
    st.floats(),  # NaN and infinities now and then: the refusal must be the stdlib's
    _strings,
    st.lists(_finite, max_size=5),
    st.lists(st.lists(_finite, max_size=4), max_size=4),  # ragged
    st.integers(0, 4).flatmap(lambda m: st.lists(st.lists(_finite, min_size=m, max_size=m), min_size=1, max_size=5)),
)
_keys = _strings | st.integers() | st.booleans() | st.none() | _finite
_objects = st.recursive(
    _leaves,
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple) | st.dictionaries(_keys, inner, max_size=4),
    max_leaves=25,
)


@pytest.fixture(scope="module")
def json_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("json")


def _grid_cells() -> list:
    """64 random (h, s, l) rows, with -0.0 and the smallest subnormal among them."""
    cells = np.random.default_rng(17).uniform([0.0, 0.0, 0.0], [360.0, 1.0, 1.0], (64, 3)).tolist()
    cells[5][1], cells[40][2] = -0.0, 5e-324
    return cells


@settings(max_examples=300, deadline=None)
@given(_objects)
@example({"cells": _grid_cells(), "height": 8, "width": 8})
@example({"basis_columns": np.random.default_rng(18).standard_normal((3, 16)).tolist(), "explained": [0.5, 0.25, 0.125]})
@example({"b": [[-0.0, 5e-324], [1.7976931348623157e308, 1.5]], "a": (True, 1, 10**399, np.float64(0.1), None), 3: {}})
@example([{"q\"\n\x01é": [1.0, 2], "": [], "k": [[], []]}, [[1.0], [2.0, 3.0]], [[True, 1.0]], " "])
def test_write_json_writes_what_json_dumps_writes(json_dir, obj):
    path = json_dir / "x.json"
    path.unlink(missing_ok=True)
    try:
        expected = (_dumps(obj) + "\n").encode("utf-8")
    except (TypeError, ValueError) as e:  # non-finite floats; unorderable or non-finite keys
        with pytest.raises(type(e)) as info:
            write_json(path, obj)
        assert str(info.value) == (f"{path}: {e}" if isinstance(e, ValueError) else str(e))
        assert not path.exists()
    else:
        write_json(path, obj)
        assert path.read_bytes() == expected


@pytest.mark.parametrize("values, shape, message", [
    ([[1, 2.5], [3, 4]], (None, 2), None),
    ([], (None, 2, 3), None),
    (5, (3,), "expected an array of shape (3,), found int on axis 0"),
    ({"a": 1}, (1,), "expected an array of shape (1,), found dict on axis 0"),
    ([0.5, 1.5], (3,), "expected an array of shape (3,), found 2 entries on axis 0"),
    ([[1.0], [2.0, 3.0]], (None, None), "expected an array of shape (None, None), found 1/2 entries on axis 1"),
    ([[1.0, 2.0], 3.0], (2, 2), "expected an array of shape (2, 2), found float on axis 1"),
    ([[1.0, None, True, "1"]], (1, 4), "expected numbers, found bool, null, str"),
    ([[1.0]], (1,), "expected numbers, found list"),
    ([1.0, float("inf")], (2,), "expected finite numbers, found a non-finite value"),
])
def test_float_array_reads_exactly_the_declared_nesting(values, shape, message):
    if message is not None:
        with pytest.raises(ValueError) as info:
            float_array(values, shape)
        assert str(info.value) == message
    else:
        arr = float_array(values, shape)
        want = np.array(values, dtype=np.float64).reshape([n or 0 for n in shape] if not values else np.shape(values))
        assert arr.dtype == np.float64 and arr.shape == want.shape and arr.tobytes() == want.tobytes()


@settings(max_examples=100, deadline=None)
@given(shape=st.lists(st.integers(0, 4), min_size=1, max_size=3), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_float_array_is_the_numpy_array_of_its_declared_shape(shape, seed, data):
    values = np.random.default_rng(seed).standard_normal(shape)
    declared = tuple(data.draw(st.sampled_from([n, None])) for n in shape)
    assert float_array(values.tolist(), declared).tobytes() == values.tobytes()
    # one axis declared one longer: refused on that axis, unless an empty axis before it leaves no list there
    axis = data.draw(st.integers(0, len(shape) - 1))
    if 0 not in shape[:axis]:
        off = declared[:axis] + (shape[axis] + 1,) + declared[axis + 1:]
        with pytest.raises(ValueError, match=f"entries on axis {axis}$"):
            float_array(values.tolist(), off)


@pytest.mark.parametrize("kind, edit, shape", [
    ("model", lambda o: {**o, "mean": [*o["mean"], 0.0]}, "(3, 17)"),
    ("model", lambda o: {**o, "basis_columns": [*o["basis_columns"], o["basis_columns"][0]]}, "(3, 16)"),
    ("model", lambda o: {**o, "explained": [*o["explained"], 0.0]}, "(3,)"),
    ("stats", lambda o: {"rows": [{**r, "alpha": [*r["alpha"], 0.0], "beta": [*r["beta"], 1.0]} for r in o["rows"]]}, "(None, 2, 3)"),
    ("grid", lambda o: {**o, "cells": o["cells"][:-1]}, "(64, 3)"),
    ("grid", lambda o: {**o, "cells": [c[:2] for c in o["cells"]]}, "(64, 3)"),
], ids=["model-mean", "model-basis", "model-explained", "stats", "grid-cells", "grid-hsl"])
def test_records_refuse_arrays_off_their_declared_shapes(model, toy_stats, kind, edit, shape):
    # uniform edits that numpy reads as a well-formed array of another shape: the declared shape refuses each
    # (test_anchor_file_refuses_points_of_the_wrong_shape covers the anchors)
    grid = ColorGrid.solid(HslColor(0.0, 1.0, 0.5), 8, 8)
    record = {"model": model, "stats": toy_stats, "grid": grid}[kind]
    with pytest.raises(ValueError) as info:
        type(record).from_json_dict(edit(record.to_json_dict()))
    assert str(info.value).startswith(f"expected an array of shape {shape}, found ")


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("place", ["value", "list", "rows", "nested"])
def test_json_refuses_non_finite_numbers_wherever_they_sit(tmp_path, value, place):
    obj = {
        "value": {"a": value},
        "list": [0.5, value, 1.5],
        "rows": [[0.5, 1.5], [value, 2.5]],
        "nested": {"a": [{"b": (1.0, value)}]},
    }[place]
    path = tmp_path / "x.json"
    with pytest.raises(ValueError) as info:
        write_json(path, obj)
    with pytest.raises(ValueError) as stdlib:
        _dumps(obj)
    assert str(info.value) == f"{path}: {stdlib.value}"
    assert not path.exists()


def _indented(obj) -> str:
    """obj in the indented layout that write_json wrote before it wrote compact JSON."""
    return json.dumps(obj, sort_keys=True, separators=(",", ": "), indent=1, allow_nan=False) + "\n"


@pytest.mark.parametrize("kind", ["model", "anchors", "stats", "grid", "mask"])
def test_a_record_file_in_the_indented_layout_loads_to_an_equal_record(model, anchors, toy_stats, tmp_path, kind):
    record = {
        "model": model,
        "anchors": anchors,
        "stats": toy_stats,
        "grid": ColorGrid.from_hsl(np.array(_grid_cells()).reshape(8, 8, 3)),
        "mask": PatchMask(70, frozenset({69, 0, 5})),
    }[kind]
    old, new, again = tmp_path / "old.json", tmp_path / "new.json", tmp_path / "again.json"
    old.write_text(_indented(record.to_json_dict()))
    assert old.read_text().count("\n") > 1
    record.save(new)
    back = type(record).load(old)
    back.save(again)
    assert again.read_bytes() == new.read_bytes()  # the same value, bit for bit
    if kind in ("grid", "mask"):
        assert back == record


def test_a_manifest_in_the_indented_layout_loads_the_same_trajectory(tmp_path):
    traj = np.random.default_rng(19).standard_normal((3, 4, 5))
    manifest = save_trajectory(tmp_path / "run", traj)
    want = stacked_steps(manifest)
    manifest.write_text(_indented(read_json(manifest)))
    assert np.array_equal(stacked_steps(manifest), want)


def _read(path):
    try:
        return read_json(path)
    except ValueError as e:
        return f"refused: {str(e).removeprefix(f'{path}: ')}"


OVERFLOWING = ["1e999", "-1e999", "9" * 210 + "e99"]  # the last: 210 integer digits and a 2-digit exponent


def _number_sites(obj, site=()):
    """(site, number) for each number (not bool) in a parsed JSON value; a site is the keys and indices to it."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _number_sites(value, site + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _number_sites(value, site + (i,))
    elif type(obj) in (int, float):
        yield site, obj


def _text_with_literal_at(obj, site, literal) -> str:
    """obj as JSON text with the number at site written as literal."""
    obj = json.loads(json.dumps(obj))  # a copy to edit
    parent = obj
    for key in site[:-1]:
        parent = parent[key]
    parent[site[-1]] = "@site@"
    return json.dumps(obj).replace('"@site@"', literal)


def _record_of_kind(kind, model, anchors, toy_stats):
    return {
        "model": model,
        "anchors": anchors,
        "stats": toy_stats,
        "grid": ColorGrid.from_hsl(np.array(_grid_cells()).reshape(8, 8, 3)),
        "mask": PatchMask(70, frozenset({69, 0, 5})),
    }[kind]


@pytest.mark.parametrize("literal", OVERFLOWING, ids=["1e999", "-1e999", "210-digits-e99"])
@pytest.mark.parametrize("kind", ["model", "anchors", "stats", "grid"])
def test_each_record_refuses_an_overflowing_literal_at_every_float_site(
    model, anchors, toy_stats, tmp_path, kind, literal
):
    # the parse reads the literal as an infinity; float_array, which reads every float a record holds, refuses it
    record = _record_of_kind(kind, model, anchors, toy_stats)
    obj, path = record.to_json_dict(), tmp_path / f"{kind}.json"
    sites = [site for site, value in _number_sites(obj) if type(value) is float]
    assert len(sites) == {"model": 67, "anchors": 30, "stats": 306, "grid": 192}[kind]
    for site in sites:
        path.write_text(_text_with_literal_at(obj, site, literal))
        with pytest.raises(ValueError) as info:
            type(record).load(path)
        what = type(record).__name__
        assert str(info.value) == f"{path}: bad {what}: expected finite numbers, found a non-finite value"


# count sites: (record kind, site, the refusal with {v} for the literal's value once parsed)
COUNT_SITES = {
    "grid-height": ("grid", ("height",), "bad ColorGrid: grid height and width must be positive integers, got {v} and 8"),
    "grid-width": ("grid", ("width",), "bad ColorGrid: grid height and width must be positive integers, got 8 and {v}"),
    "stats-t": ("stats", ("rows", 3, "t"), "bad StatsTable: stats row t must be an integer"),
    "mask-L": ("mask", ("L",), "bad PatchMask: mask L and selected indices must be integers"),
    "mask-selected": ("mask", ("selected", 1), "bad PatchMask: mask L and selected indices must be integers"),
    "manifest-T": ("manifest", ("T",), "bad manifest: 3 steps listed for T={v}"),
    "manifest-dims": ("manifest", ("dims", 0), "bad manifest: bad dims [{v}, 5]"),
    "manifest-t": ("manifest", ("steps", 1, "t"), "bad manifest: timesteps not the integers 0 to 2"),
}


@pytest.mark.parametrize("literal", OVERFLOWING, ids=["1e999", "-1e999", "210-digits-e99"])
@pytest.mark.parametrize("case", list(COUNT_SITES))
def test_every_count_site_refuses_an_overflowing_literal_as_a_non_integer(
    model, anchors, toy_stats, tmp_path, case, literal
):
    kind, site, message = COUNT_SITES[case]
    if kind == "manifest":
        path = save_trajectory(tmp_path / "run", np.zeros((3, 4, 5)))
        obj, load = read_json(path), stacked_steps
    else:
        record = _record_of_kind(kind, model, anchors, toy_stats)
        path, obj, load = tmp_path / f"{kind}.json", record.to_json_dict(), type(record).load
    path.write_text(_text_with_literal_at(obj, site, literal))
    with pytest.raises(ValueError) as info:
        load(path)
    assert str(info.value) == f"{path}: " + message.format(v=float(literal))


def test_an_underflowing_literal_reads_as_zero(model, tmp_path):
    path = tmp_path / "x.json"
    path.write_text("[1e-400, -1e-400, 0.5]")
    assert [np.float64(v).tobytes() for v in read_json(path)] == [np.float64(v).tobytes() for v in (0.0, -0.0, 0.5)]
    path.write_text(_text_with_literal_at(model.to_json_dict(), ("mean", 0), "1e-400"))
    assert SubspaceModel.load(path).mean[0] == 0.0


def test_an_overflowing_literal_under_a_key_no_record_reads_is_ignored(model, tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({**model.to_json_dict(), "note": "@"}).replace('"@"', "1e999"))
    assert read_json(path)["note"] == float("inf")
    assert SubspaceModel.load(path).mean.tobytes() == model.mean.tobytes()


def test_read_json_refuses_a_file_not_in_utf_8(tmp_path):
    path = tmp_path / "x.json"
    path.write_text('{"a": 1}', encoding="utf-16")  # json.loads would detect UTF-16 in bytes and read it
    with pytest.raises(ValueError, match="x.json: 'utf-8' codec can't decode"):
        read_json(path)


@pytest.mark.parametrize("text", ['{"a": 1}', '{"a": 1e999}'])
def test_read_json_refuses_a_utf_8_bom_naming_it(tmp_path, text):
    path = tmp_path / "x.json"
    path.write_bytes(b"\xef\xbb\xbf" + text.encode())
    assert _read(path) == "refused: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_written_files_get_the_mode_the_umask_gives(tmp_path, umask, mode):
    old = os.umask(umask)
    try:
        write_json(tmp_path / "a.json", {"a": 1})
        write_latents(tmp_path / "z.lt", np.zeros((2, 3)))
        atomic_write_bytes(tmp_path / "a.json", b"{}\n")  # replacing a file gives the new one the mode too
    finally:
        os.umask(old)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json", "z.lt"]
    for name in ("a.json", "z.lt"):
        assert stat.S_IMODE((tmp_path / name).stat().st_mode) == mode


def test_failed_write_leaves_no_temp_file(tmp_path, monkeypatch):
    target = tmp_path / "x.bin"
    with pytest.raises(TypeError):
        atomic_write_bytes(target, "not bytes")  # fails while writing the temp file

    def refuse(src, dst):
        raise PermissionError("rename refused")

    monkeypatch.setattr(tensorio.os, "replace", refuse)
    with pytest.raises(PermissionError):
        atomic_write_bytes(target, b"data")  # fails at the rename
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("case", ["missing directory", "directory in the way"])
def test_failed_write_names_the_requested_path(tmp_path, case):
    # the error must name the file asked for, never the temp file beside it
    target = tmp_path / "missing" / "x.bin" if case == "missing directory" else tmp_path / "x.bin"
    if case == "directory in the way":
        target.mkdir()
    with pytest.raises(OSError) as info:
        atomic_write_bytes(target, b"data")
    e = info.value
    assert type(e) is (FileNotFoundError if case == "missing directory" else IsADirectoryError)
    assert str(e) == f"[Errno {e.errno}] {os.strerror(e.errno)}: '{target}'"
    assert [p.name for p in tmp_path.iterdir()] == ([] if case == "missing directory" else ["x.bin"])
    assert not target.is_file() and (case == "missing directory" or list(target.iterdir()) == [])


def test_a_temp_file_that_cannot_be_removed_is_named(tmp_path, monkeypatch):
    # the rename fails and so does the cleanup: the cleanup's error names the temp file it left behind
    target = tmp_path / "x.bin"

    def refuse(src, dst):
        raise PermissionError(13, "rename refused", str(src))

    def keep(p):
        raise PermissionError(13, "unlink refused", str(p))

    monkeypatch.setattr(tensorio.os, "replace", refuse)
    monkeypatch.setattr(tensorio.os, "unlink", keep)
    with pytest.raises(PermissionError) as info:
        atomic_write_bytes(target, b"data")
    [left] = tmp_path.iterdir()
    assert left.name.startswith("x.bin.") and info.value.filename == str(left)
    assert info.value.strerror == "unlink refused"
    assert info.value.__context__.strerror == "rename refused"  # raised while handling the rename's failure
