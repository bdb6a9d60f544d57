"""Binary latent files, trajectory directories, and canonical JSON."""

import json
import os
import stat

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from latentcolor import ColorGrid, load_trajectory, read_latents, save_trajectory, tensorio, write_latents
from latentcolor.colorspace import HslColor
from latentcolor.tensorio import _finite_float, _refuse_constant, atomic_write_bytes, float_array, read_json, write_json


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


def test_rejects_nonfinite_and_bad_shapes(tmp_path):
    with pytest.raises(ValueError):
        write_latents(tmp_path / "z.lt", np.zeros((2, 2)))  # d must be >= 3
    with pytest.raises(ValueError):
        write_latents(tmp_path / "z.lt", np.zeros(8))
    bad = np.zeros((2, 4))
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        write_latents(tmp_path / "z.lt", bad)


def test_trajectory_roundtrip(tmp_path):
    traj = np.random.default_rng(4).standard_normal((6, 3, 4))
    manifest = save_trajectory(tmp_path / "run", traj)
    back = load_trajectory(manifest)
    assert back.shape == (6, 3, 4)
    assert np.array_equal(back, traj.astype(np.float32).astype(np.float64))
    obj = read_json(manifest)
    assert obj["T"] == 5
    assert [s["t"] for s in obj["steps"]] == list(range(6))


def test_trajectory_is_the_stacked_step_files_bitwise(tmp_path):
    traj = np.random.default_rng(5).standard_normal((7, 9, 5)) * 40.0
    manifest = save_trajectory(tmp_path / "run", traj)
    stacked = np.stack([read_latents(tmp_path / "run" / f"t{t:03d}.lt") for t in range(7)])
    back = load_trajectory(manifest)
    assert back.dtype == np.float64 and back.flags.c_contiguous
    assert back.tobytes() == stacked.tobytes()


def test_trajectory_rejects_a_non_finite_step(tmp_path):
    manifest = save_trajectory(tmp_path / "run", np.zeros((3, 2, 3)))
    step = tmp_path / "run" / "t002.lt"
    header, payload = step.read_bytes().split(b"\n", 1)
    step.write_bytes(header + b"\n" + np.float32(np.inf).tobytes() + payload[4:])
    with pytest.raises(ValueError, match="non-finite"):
        load_trajectory(manifest)


def test_trajectory_rejects_gapped_steps(tmp_path):
    manifest = save_trajectory(tmp_path / "run", np.zeros((3, 2, 3)))
    obj = read_json(manifest)
    obj["steps"][1]["t"] = 5
    write_json(manifest, obj)
    with pytest.raises(ValueError):
        load_trajectory(manifest)


def test_trajectory_rejects_frame_shape_drift(tmp_path):
    manifest = save_trajectory(tmp_path / "run", np.zeros((3, 2, 3)))
    write_latents(tmp_path / "run" / "t001.lt", np.zeros((4, 3)))
    with pytest.raises(ValueError):
        load_trajectory(manifest)


def test_write_json_is_canonical(tmp_path):
    path = tmp_path / "x.json"
    write_json(path, {"b": 1, "a": [1.5, 2]})
    text = path.read_text()
    assert text == '{\n "a": [\n  1.5,\n  2\n ],\n "b": 1\n}\n'
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
    return json.dumps(obj, sort_keys=True, separators=(",", ": "), indent=1, allow_nan=False)


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


def _hooked_parse(text: str):
    """The value, or the error message, of parsing with the per-literal overflow check."""
    try:
        return json.loads(text, parse_constant=_refuse_constant, parse_float=_finite_float)
    except ValueError as e:
        return f"refused: {e}"


def _read(path):
    try:
        return read_json(path)
    except ValueError as e:
        return f"refused: {str(e).removeprefix(f'{path}: ')}"


@pytest.mark.parametrize(
    "literal, refused",
    [
        ("1e309", True),
        ("2e308", True),
        ("-1e999", True),
        ("1" + "0" * 309 + ".0", True),
        ("9" * 210 + "e99", True),  # 210 integer digits: the shortest run a 2-digit exponent can overflow with
        ("1.7976931348623157e308", False),
        ("1e-400", False),
        ("1e+0308", False),
        ("1" + "0" * 208 + "e99", False),  # 209 digits: 1e307
        ("0.25", False),
    ],
)
def test_read_json_refuses_exactly_the_float_literals_that_overflow(tmp_path, literal, refused):
    path = tmp_path / "x.json"
    text = f'{{"a": [0.5, {literal}]}}'
    path.write_text(text)
    got, expected = _read(path), _hooked_parse(text)
    assert got == expected
    assert isinstance(got, str) == refused
    if refused:
        assert got == f"refused: number {literal} overflows a float"
    else:
        assert [np.float64(v).tobytes() for v in got["a"]] == [np.float64(v).tobytes() for v in expected["a"]]


@pytest.mark.parametrize("literal", ["1e999", "9" * 210 + "e99"])
def test_read_json_screens_every_byte_it_read(tmp_path, literal):
    # the overflowing literal sits on the last line of a 100 kB record, past any one read buffer
    path = tmp_path / "x.json"
    path.write_text('{"a": [\n' + "  0.5,\n" * 15000 + f"  {literal}\n]}}\n")
    assert _read(path) == f"refused: number {literal} overflows a float"


@pytest.mark.parametrize("text", ['[1.5e-100, -2E-0100]', f'{{"s": "{"7" * 210}", "a": [0.5]}}', '{"e000": 1.5}'])
def test_read_json_screen_hits_that_cannot_overflow_read_as_the_checked_parse(tmp_path, text):
    path = tmp_path / "x.json"
    path.write_text(text)
    assert read_json(path) == _hooked_parse(text)


_digits = st.text("0123456789", min_size=1, max_size=30)
_number_literals = st.builds(
    lambda sign, whole, frac, exp: sign + whole + frac + exp,
    st.sampled_from(["", "-"]),
    st.just("0") | st.builds(str.__add__, st.sampled_from("123456789"), st.text("0123456789", max_size=250)),
    st.just("") | _digits.map(".".__add__),
    st.just("") | st.builds(lambda e, sign, d: e + sign + d, st.sampled_from("eE"), st.sampled_from(["", "+", "-"]), _digits),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_number_literals, min_size=1, max_size=4))
@example(["0.5", "1e999"])
@example(["9" * 210 + "e99"])
def test_read_json_reads_number_literals_as_the_checked_parse_does(json_dir, literals):
    path = json_dir / "numbers.json"
    text = "[" + ", ".join(literals) + "]"
    path.write_text(text)
    got, expected = _read(path), _hooked_parse(text)
    assert got == expected
    if not isinstance(expected, str):
        assert [type(v) for v in got] == [type(v) for v in expected]
        assert [np.float64(float(v)).tobytes() for v in got] == [np.float64(float(v)).tobytes() for v in expected]


@settings(max_examples=100, deadline=None)
@given(_number_literals)
@example("1e999")  # the overflowing exponent is the file's last three bytes
@example("-1E+0999")
@example("1e308")
def test_read_json_reads_a_bare_number_literal_as_the_checked_parse_does(json_dir, literal):
    path = json_dir / "number.json"
    path.write_text(literal)
    got, expected = _read(path), _hooked_parse(literal)
    assert got == expected
    assert type(got) is type(expected)


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
