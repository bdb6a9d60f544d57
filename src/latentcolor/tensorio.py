"""File formats for latent tensors and trajectories.

A latent tensor file is a single JSON header line
``{"dims": [L, d], "dtype": "f32le"}`` followed by a newline and L*d
little-endian float32 values in row-major order. A trajectory is a
directory of such files plus a ``manifest.json`` listing the timesteps.

Every JSON file is written by write_json and read by read_json; the
records kept one per file (model, anchors, stats, grid, mask) share
JsonRecord's save and load, so a malformed file of any kind raises one
ValueError that names the file. Each record reads every array it holds
through float_array with the array's full declared shape. All writers
go through a temp-file-plus-rename so partially written outputs are
never observed.

write_json's bytes are _dumps(obj) plus a newline. json drops to its
Python encoder whenever indent is set, so _emit lays out plain dicts,
lists, strings, ints and finite floats itself (one pass per float list
or list of equal-length float rows) and hands anything else, refusals
included, to json.dumps.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import re
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

__all__ = [
    "atomic_write_bytes",
    "write_json",
    "read_json",
    "JsonRecord",
    "float_array",
    "write_latents",
    "read_latents",
    "save_trajectory",
    "load_trajectory",
]

_HEADER_DTYPE = "f32le"


def _for_path(e: BaseException, path: Path) -> BaseException:
    """An OS error on a temp file, restated for the file asked for; any other error as it is."""
    if not isinstance(e, OSError) or e.errno is None:  # an OSError not from the OS names no file
        return e
    restated = type(e)(e.errno, e.strerror, str(path))
    restated.__cause__ = e
    return restated


def atomic_write_bytes(path, data: bytes) -> None:
    """Write bytes to path via a temp file and rename; the file's mode is what the umask gives.

    A failure to open, write or rename names path, not the temp file; the temp file is removed.
    """
    tmp = f"{path}.{os.urandom(8).hex()}"  # 64 random bits: a name no other file has
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)  # mkstemp would make it 0600, whatever the umask
    except OSError as e:
        raise _for_path(e, path)
    try:
        try:
            while data:  # a write may store fewer bytes than it was given
                data = data[os.write(fd, data):]
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException as e:
        error = _for_path(e, path)
        if os.path.exists(tmp):
            os.unlink(tmp)  # an error here goes out as it is: it names the temp file left behind
        raise error


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ": "), indent=1, allow_nan=False)


def _float_items(items, indent: str) -> str | None:
    """Items that are exact finite floats, or equal-length nonempty lists of them, joined at indent; else None."""
    width = set(map(type, items)) == {list} and len(set(map(len, items))) == 1 and len(items[0])
    floats = list(itertools.chain.from_iterable(items)) if width else items
    if set(map(type, floats)) != {float} or not all(map(math.isfinite, floats)):
        return None
    reprs, inner = map(float.__repr__, floats), indent + " "
    if not width:
        return (",\n" + indent).join(reprs)
    rows = map((",\n" + inner).join, zip(*[reprs] * width))  # zip deals the reprs out one row at a time
    return f"[\n{inner}" + f"\n{indent}],\n{indent}[\n{inner}".join(rows) + f"\n{indent}]"


def _emit(obj, indent: str = "") -> str:
    """_dumps(obj) nested at indent: plain containers, str keys, exact ints and floats skip the stdlib's Python encoder."""
    kind = type(obj)
    if kind is str:
        return encode_basestring_ascii(obj)
    if kind is int:
        return int.__repr__(obj)
    if kind is float and math.isfinite(obj):
        return float.__repr__(obj)
    inner = indent + " "
    if kind is dict and obj and set(map(type, obj)) == {str}:
        body = (",\n" + inner).join(f"{encode_basestring_ascii(k)}: {_emit(obj[k], inner)}" for k in sorted(obj))
        return f"{{\n{inner}{body}\n{indent}}}"
    if (kind is list or kind is tuple) and obj:
        body = _float_items(obj, inner) or (",\n" + inner).join(_emit(v, inner) for v in obj)
        return f"[\n{inner}{body}\n{indent}]"
    # anything else, a non-finite float included, as the stdlib writes or refuses it; its text has no raw newline
    return _dumps(obj).replace("\n", "\n" + indent)


def write_json(path, obj) -> None:
    """Serialize obj as deterministic JSON (sorted keys, fixed separators); NaN and infinities are refused."""
    try:
        text = _emit(obj)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from e
    atomic_write_bytes(path, (text + "\n").encode("utf-8"))


def _refuse_constant(name: str):
    raise ValueError(f"non-finite number {name} is not valid JSON")


def _finite_float(text: str) -> float:
    value = float(text)
    if math.isinf(value):
        raise ValueError(f"number {text} overflows a float")
    return value


# Digits to 0, E to e, signs deleted: a float literal that overflows leaves e000 (a 3-digit exponent) or a run
# of 210 zeros (209 integer digits and a 2-digit exponent stay below 1e308), so only such a file, or one with
# an N or an I (as a NaN or Infinity literal has; one memchr each), needs the hooks.
_NUMBER_SCREEN = bytes.maketrans(b"123456789E", b"000000000e")
_THREE_DIGIT_EXPONENT = re.compile(rb"e000").search  # `in` cannot skip ahead on bytes that are nearly all 0


def read_json(path):
    """Parse a JSON file, refusing NaN, Infinity, -Infinity and float literals that overflow."""
    try:
        with open(path, "rb") as f:
            raw = f.read()
        screened = raw.translate(_NUMBER_SCREEN, b"+-")
        if _THREE_DIGIT_EXPONENT(screened) or b"0" * 210 in screened or b"N" in raw or b"I" in raw:
            return json.loads(raw.decode("utf-8"), parse_constant=_refuse_constant, parse_float=_finite_float)
        return json.loads(raw.decode("utf-8"))  # text: json.loads would read UTF-16 and UTF-32 bytes too
    except (ValueError, RecursionError) as e:  # ValueError covers JSONDecodeError and UnicodeDecodeError
        raise ValueError(f"{path}: {e}") from e


def _read_record(path, convert, what: str):
    """Parse a JSON file and convert the object; a conversion error becomes a ValueError naming the file and what."""
    obj = read_json(path)
    try:
        return convert(obj)
    except (KeyError, TypeError, IndexError, OverflowError, ValueError) as e:
        detail = e if isinstance(e, ValueError) else f"{type(e).__name__}: {e}"
        raise ValueError(f"{path}: bad {what}: {detail}") from e


def _type_names(types) -> str:
    return ", ".join(sorted("null" if t is type(None) else t.__name__ for t in types))


def float_array(values, shape: tuple) -> np.ndarray:
    """Nested JSON number lists of the declared shape (None: any one length) as float64; all else is refused."""
    leaves, dims = [values], []
    for axis, n in enumerate(shape):
        others = set(map(type, leaves)) - {list}
        lengths = set() if others else set(map(len, leaves))
        if others or len(lengths) > 1 or n is not None and lengths - {n}:
            found = _type_names(others) if others else "/".join(map(str, sorted(lengths))) + " entries"
            raise ValueError(f"expected an array of shape {shape}, found {found} on axis {axis}")
        dims.append(lengths.pop() if lengths else n or 0)  # no lists on this axis: an earlier one is empty
        leaves = list(itertools.chain.from_iterable(leaves))
    others = set(map(type, leaves)) - {int, float}
    if others:  # bool counts as its own type here, not as int
        raise ValueError(f"expected numbers, found {_type_names(others)}")
    arr = np.fromiter(leaves, np.float64, len(leaves)).reshape(dims)  # one C pass; ints too large raise OverflowError
    if not np.isfinite(arr).all():
        raise ValueError("expected finite numbers, found a non-finite value")
    return arr


class JsonRecord:
    """A record kept as one JSON file: subclasses define to_json_dict and the classmethod from_json_dict."""

    __slots__ = ()

    def save(self, path) -> None:
        write_json(path, self.to_json_dict())

    @classmethod
    def load(cls, path):
        return _read_record(path, cls.from_json_dict, cls.__name__)


def _check_latents(arr: np.ndarray) -> np.ndarray:
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"latent tensor must be 2-D, got shape {arr.shape}")
    L, d = arr.shape
    if L < 1 or d < 3:
        raise ValueError(f"latent tensor needs L >= 1 patches and d >= 3 dims, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("latent tensor contains non-finite values")
    return arr


def write_latents(path, arr: np.ndarray) -> None:
    """Write an (L, d) array as a header line plus packed float32 rows."""
    arr = _check_latents(arr)
    header = json.dumps({"dims": [int(arr.shape[0]), int(arr.shape[1])], "dtype": _HEADER_DTYPE})
    # join reads the contiguous float32 buffer directly: one copy of the payload, not two
    payload = b"".join((header.encode("ascii"), b"\n", np.ascontiguousarray(arr, dtype="<f4")))
    atomic_write_bytes(path, payload)


def _read_payload(path) -> np.ndarray:
    """The (L, d) float32 payload of a latent tensor file, its header and payload length validated."""
    with open(path, "rb") as f:
        raw = f.read()
    nl = raw.find(b"\n")
    if nl < 0:
        raise ValueError(f"{path}: missing header line")
    try:
        header = json.loads(raw[:nl].decode("ascii"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ValueError(f"{path}: malformed header: {e}") from e
    if not isinstance(header, dict) or header.get("dtype") != _HEADER_DTYPE:
        raise ValueError(f"{path}: unsupported header {header!r}")
    dims = header.get("dims")
    if (
        not isinstance(dims, list)
        or len(dims) != 2
        or not all(type(v) is int and v > 0 for v in dims)
    ):
        raise ValueError(f"{path}: bad dims {dims!r}")
    L, d = dims
    body = raw[nl + 1:]
    if len(body) != L * d * 4:
        raise ValueError(f"{path}: expected {L * d * 4} payload bytes, found {len(body)}")
    return np.frombuffer(body, dtype="<f4").reshape(L, d)


def read_latents(path) -> np.ndarray:
    """Read a latent tensor file, validating header and payload length."""
    return _check_latents(_read_payload(path).astype(np.float64))


def save_trajectory(dirpath, traj: np.ndarray) -> Path:
    """Write a (T+1, L, d) trajectory as one file per step plus a manifest.

    Returns the manifest path.
    """
    traj = np.asarray(traj, dtype=np.float64)
    if traj.ndim != 3:
        raise ValueError(f"trajectory must be (T+1, L, d), got shape {traj.shape}")
    dirpath = Path(dirpath)
    dirpath.mkdir(parents=True, exist_ok=True)
    steps = []
    for t in range(traj.shape[0]):
        name = f"t{t:03d}.lt"
        write_latents(dirpath / name, traj[t])
        steps.append({"t": t, "file": name})
    manifest = {
        "T": traj.shape[0] - 1,
        "dims": [int(traj.shape[1]), int(traj.shape[2])],
        "steps": steps,
    }
    path = dirpath / "manifest.json"
    write_json(path, manifest)
    return path


def load_trajectory(manifest_path) -> np.ndarray:
    """Read a trajectory manifest back into a (T+1, L, d) array."""
    manifest_path = Path(manifest_path)

    def step_files(manifest) -> tuple[list[Path], tuple[int, int]]:
        T, steps, dims = manifest["T"], manifest["steps"], manifest["dims"]
        if type(T) is not int or T < 0 or len(steps) != T + 1:
            raise ValueError(f"{len(steps)} steps listed for T={T}")
        if type(dims) is not list or [type(v) for v in dims] != [int, int]:
            raise ValueError(f"bad dims {dims!r}")
        by_t = {step["t"]: manifest_path.parent / step["file"] for step in steps}
        if sorted(by_t) != list(range(T + 1)) or {type(t) for t in by_t} != {int}:  # 1.0 and True equal 1
            raise ValueError(f"timesteps not the integers 0 to {T}")
        return [by_t[t] for t in range(T + 1)], tuple(dims)

    files, dims = _read_record(manifest_path, step_files, "manifest")
    for t, path in enumerate(files):
        frame = _read_payload(path)
        if frame.shape != dims:
            raise ValueError(f"{manifest_path}: dims {list(dims)}, but {path} holds {list(frame.shape)}")
        if t == 0:  # sized by a step file that matched dims, so a manifest alone allocates nothing
            traj = np.empty((len(files),) + dims)
        traj[t] = frame  # float32 to float64 in place: one copy of the trajectory, not a list and a stack
        _check_latents(traj[t])
    return traj
