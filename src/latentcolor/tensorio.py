"""File formats for latent tensors and trajectories.

A latent tensor file is a single JSON header line
``{"dims": [L, d], "dtype": "f32le"}`` followed by a newline and L*d
little-endian float32 values in row-major order. A trajectory is a
directory of such files plus a ``manifest.json`` listing the timesteps.

Every input file is opened by _read, which hands its bytes to a parser
that never sees the path and restates any refusal as one ValueError that
names the file. Every JSON file is written by write_json as one line of
compact canonical JSON, and read in any layout, the older indented one
included; the records kept one per file (model, anchors, stats, grid,
mask) share JsonRecord's save and load. Each record reads every array it
holds through float_array with the array's full declared shape, and
float_array refuses the infinity an overflowing literal parses to. All
writers go through a temp-file-plus-rename, so no partial output is seen.
"""

from __future__ import annotations

import itertools
import json
import os
from pathlib import Path

import numpy as np

__all__ = [
    "atomic_write_bytes",
    "write_json",
    "JsonRecord",
    "float_array",
    "write_latents",
    "read_latents",
    "save_trajectory",
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


def write_json(path, obj) -> None:
    """Write obj as compact canonical JSON plus a newline; NaN, infinities and unsortable keys are refused."""
    try:
        text = json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from e
    atomic_write_bytes(path, (text + "\n").encode("utf-8"))


def _refuse_constant(name: str):
    raise ValueError(f"non-finite number {name} is not valid JSON")


def _read(path, parse):
    """parse(the file's bytes); a ValueError or RecursionError it raises is restated naming the file."""
    with open(path, "rb") as f:
        raw = f.read()
    try:
        return parse(raw)
    except (ValueError, RecursionError) as e:  # ValueError covers JSONDecodeError and UnicodeDecodeError
        raise ValueError(f"{path}: {e}") from e


def _json(raw: bytes):
    """raw's JSON value, read as UTF-8 text (json.loads would take UTF-16 bytes too); NaN and infinities are refused."""
    return json.loads(raw.decode("utf-8"), parse_constant=_refuse_constant)


def _record(raw: bytes, convert, what: str):
    """convert(the parsed JSON); a conversion error becomes a ValueError that says what the file should hold."""
    obj = _json(raw)
    try:
        return convert(obj)
    except (KeyError, TypeError, IndexError, OverflowError, ValueError) as e:
        detail = e if isinstance(e, ValueError) else f"{type(e).__name__}: {e}"
        raise ValueError(f"bad {what}: {detail}") from e


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
        return _read(path, lambda raw: _record(raw, cls.from_json_dict, cls.__name__))


def _check_latents(arr: np.ndarray) -> np.ndarray:
    if arr.ndim != 2:
        raise ValueError(f"latent tensor must be 2-D, got shape {arr.shape}")
    L, d = arr.shape
    if L < 1 or d < 3:
        raise ValueError(f"latent tensor needs L >= 1 patches and d >= 3 dims, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("latent tensor contains non-finite values")
    return arr


def write_latents(path, arr: np.ndarray) -> None:
    """Write an (L, d) array as a header line plus packed float32 rows; a value float32 cannot hold is refused."""
    try:
        arr = _check_latents(np.asarray(arr, dtype=np.float64))
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from e
    with np.errstate(over="ignore"):
        rows = np.ascontiguousarray(arr, dtype="<f4")
    if not np.isfinite(rows).all():
        raise ValueError(f"{path}: latent values beyond float32's largest magnitude, 3.4028235e38, cannot be stored")
    header = json.dumps({"dims": [int(arr.shape[0]), int(arr.shape[1])], "dtype": _HEADER_DTYPE})
    # join reads the contiguous float32 buffer directly: one copy of the payload, not two
    atomic_write_bytes(path, b"".join((header.encode("ascii"), b"\n", rows)))


def _latents(raw: bytes) -> np.ndarray:
    """The (L, d) float32 rows of a latent tensor file, its header, payload length and values validated."""
    nl = raw.find(b"\n")
    if nl < 0:
        raise ValueError("missing header line")
    try:
        header = json.loads(raw[:nl].decode("ascii"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ValueError(f"malformed header: {e}") from e
    if not isinstance(header, dict) or header.get("dtype") != _HEADER_DTYPE:
        raise ValueError(f"unsupported header {header!r}")
    dims = header.get("dims")
    if (
        not isinstance(dims, list)
        or len(dims) != 2
        or not all(type(v) is int and v > 0 for v in dims)
    ):
        raise ValueError(f"bad dims {dims!r}")
    L, d = dims
    body = raw[nl + 1:]
    if len(body) != L * d * 4:
        raise ValueError(f"expected {L * d * 4} payload bytes, found {len(body)}")
    return _check_latents(np.frombuffer(body, dtype="<f4").reshape(L, d))


def read_latents(path) -> np.ndarray:
    """Read a latent tensor file, validating header, payload length and values."""
    return _read(path, _latents).astype(np.float64)


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


def _steps(manifest_path):
    """Yield a trajectory manifest's steps in order, each an (L, d) float64 array read when it is reached."""
    manifest_path = Path(manifest_path)

    def step_files(manifest) -> tuple[list[Path], tuple[int, int]]:
        T, steps, dims = manifest["T"], manifest["steps"], manifest["dims"]
        if type(T) is not int or T < 0 or len(steps) != T + 1:
            raise ValueError(f"{len(steps)} steps listed for T={T}")
        if type(dims) is not list or [type(v) for v in dims] != [int, int]:
            raise ValueError(f"bad dims {dims!r}")
        by_t = {step["t"]: step["file"] for step in steps}
        if sorted(by_t) != list(range(T + 1)) or {type(t) for t in by_t} != {int}:  # 1.0 and True equal 1
            raise ValueError(f"timesteps not the integers 0 to {T}")
        # Path(".").name is "", and open() would refuse a NUL byte without naming the manifest
        stray = [f for f in by_t.values() if type(f) is not str or f in ("", "..") or "\0" in f or Path(f).name != f]
        if stray:
            raise ValueError(f"step file {stray[0]!r} is not a plain name in the manifest's directory")
        return [manifest_path.parent / by_t[t] for t in range(T + 1)], tuple(dims)

    files, dims = _read(manifest_path, lambda raw: _record(raw, step_files, "manifest"))
    for path in files:
        frame = _read(path, _latents)
        if frame.shape != dims:
            raise ValueError(f"{manifest_path}: dims {list(dims)}, but {path} holds {list(frame.shape)}")
        yield frame.astype(np.float64)
