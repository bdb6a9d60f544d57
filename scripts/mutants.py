#!/usr/bin/env python3
"""Mutation checks: each named mutant must fail the tests listed for it.

A mutant is one exact text replacement in one source file. For each, the
script copies src/ and tests/ to a temporary directory, applies the edit
there, runs only that mutant's tests with pytest and reports the mutant
killed (a test failed or timed out) or survived (its tests passed).
Known equivalent mutants are listed with the reason no test can kill
them; they are expected to survive. The working tree is never edited.

    python scripts/mutants.py              # every mutant
    python scripts/mutants.py pgm parser   # mutants whose name contains "pgm" or "parser"

Before the mutants, the named tests run once on an unmutated copy, and
must pass. The exit status is 0 when every mutant ends as expected, and
1 when a mutant survives that should die, an equivalent mutant dies, a
mutant's old text is not found exactly once, or pytest cannot run the
named tests. Only the standard library and the test suite's own
dependencies are needed.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str  # must occur exactly once in the file
    new: str
    tests: tuple[str, ...]  # pytest node ids that must fail on the mutant
    equivalent: str = ""  # why no test can kill the mutant; such a mutant is expected to survive


PGM = "tests/test_intervene.py::test_mask_from_pgm"
BAD_PGM = "tests/test_intervene.py::test_malformed_pgm_rejected"
PPM_TOO_LARGE = "tests/test_observe.py::test_render_ppm_refuses_a_raster_too_large_to_allocate"
CLI_PPM_TOO_LARGE = "tests/test_cli.py::test_observe_refuses_a_raster_too_large_to_allocate_before_writing"
REFERENCE_LOOP = "tests/test_toyflow.py::test_generate_is_the_reference_loop_bitwise"
OVERFLOW = "tests/test_tensorio.py::test_read_json_refuses_exactly_the_float_literals_that_overflow"
LITERALS = "tests/test_tensorio.py::test_read_json_reads_number_literals_as_the_checked_parse_does"
AS_DUMPS = "tests/test_tensorio.py::test_write_json_writes_what_json_dumps_writes"
NON_FINITE = "tests/test_tensorio.py::test_json_refuses_non_finite_numbers_wherever_they_sit"
READ_NON_FINITE = "tests/test_tensorio.py::test_json_refuses_non_finite_numbers"
ASSEMBLE = "tests/test_bicone.py::test_assemble_is_the_per_anchor_reference_bitwise"
MALFORMED = "tests/test_cli.py::test_malformed_record_file_exits_2_naming_it"
MASK_INTEGERS = "tests/test_intervene.py::test_mask_refuses_non_integers"
WRITE_BACK = "tests/test_intervene.py::test_apply_intervention_write_back_roundtrip"
REPORT = "tests/test_cli.py::test_intervene_report_is_the_per_block_computation_bitwise"
REPORT_AS_OBSERVED = "tests/test_cli.py::test_intervene_report_matches_full_grid_observation"
ANCHOR_SHAPES = "tests/test_bicone.py::test_anchor_file_refuses_points_of_the_wrong_shape"
DECLARED = "tests/test_tensorio.py::test_records_refuse_arrays_off_their_declared_shapes"
FLOAT_ARRAY = "tests/test_tensorio.py::test_float_array_reads_exactly_the_declared_nesting"
SCREEN_ALL = "tests/test_tensorio.py::test_read_json_screens_every_byte_it_read"
NO_MASK = "tests/test_intervene.py::test_no_mask_is_the_full_mask_bitwise"
FULL_MASK = "tests/test_intervene.py::test_a_full_mask_writes_back_without_gathering_rows"

MUTANTS = (
    # the PGM header pattern
    Mutant(
        "pgm-width-height-separator-optional", "src/latentcolor/intervene.py",
        '_SEP + rb"+(\\d+)" + _SEP + rb"+(\\d+)[\\s\\S]"', '_SEP + rb"*(\\d+)" + _SEP + rb"+(\\d+)[\\s\\S]"',
        (BAD_PGM,),
    ),
    Mutant(
        "pgm-whitespace-after-maxval", "src/latentcolor/intervene.py",
        'rb"+(\\d+)[\\s\\S]"', 'rb"+(\\d+)\\s"',
        (PGM,),
    ),
    Mutant(
        "pgm-no-comments", "src/latentcolor/intervene.py",
        '_SEP = rb"(?:\\s|#[^\\n]*\\n)"', '_SEP = rb"\\s"',
        (PGM,),
    ),
    Mutant(
        "pgm-separator-needed-after-magic", "src/latentcolor/intervene.py",
        'rb"P5" + _SEP + rb"*(\\d+)"', 'rb"P5" + _SEP + rb"+(\\d+)"',
        (PGM,),
    ),
    # the PPM raster
    Mutant(
        "ppm-allocation-error-unmapped", "src/latentcolor/observe.py",
        "except (MemoryError, ValueError) as e:", "except () as e:",
        (PPM_TOO_LARGE, CLI_PPM_TOO_LARGE),
    ),
    Mutant(
        "ppm-overflow-unmapped", "src/latentcolor/observe.py",
        "except (MemoryError, ValueError) as e:", "except MemoryError as e:",
        (PPM_TOO_LARGE,),
    ),
    Mutant(
        "observe-writes-json-before-rendering", "src/latentcolor/cli.py",
        "    ppm = render_ppm(grid, args.cell_px) if args.out_ppm else None  # before any write: it may refuse the size\n"
        "    if args.out_json:\n"
        "        grid.save(args.out_json)\n",
        "    if args.out_json:\n"
        "        grid.save(args.out_json)\n"
        "    ppm = render_ppm(grid, args.cell_px) if args.out_ppm else None\n",
        (CLI_PPM_TOO_LARGE,),
    ),
    # the CLI parser
    Mutant(
        "parser-not-cached", "src/latentcolor/cli.py",
        "@functools.cache\ndef _parser()", "def _parser()",
        ("tests/test_cli.py::test_main_keeps_one_parser_that_acts_as_a_fresh_one",),
    ),
    # the latent file format
    Mutant(
        "latents-big-endian", "src/latentcolor/tensorio.py",
        'b"\\n", np.ascontiguousarray(arr, dtype="<f4")', 'b"\\n", np.ascontiguousarray(arr, dtype=">f4")',
        ("tests/test_tensorio.py::test_latent_file_is_the_header_line_then_the_float32_rows",),
    ),
    # the toy flow and trajectory reads
    Mutant(
        "generate-no-nearest-search", "src/latentcolor/toyflow.py",
        "charts = [_hidden(a, field) for a in field.attractors] if len(field.attractors) > 1 else None",
        "charts = None",
        (REFERENCE_LOOP, "tests/test_toyflow.py::test_generate_converges_to_nearer_attractor"),
    ),
    Mutant(
        "generate-edit-gets-the-state", "src/latentcolor/toyflow.py",
        "edit(z.copy(), k)", "edit(z, k)",
        (REFERENCE_LOOP,),
    ),
    Mutant(
        "generate-multiplies-by-the-reciprocal", "src/latentcolor/toyflow.py",
        "step /= T - k", "step *= 1.0 / (T - k)",
        (REFERENCE_LOOP,),
    ),
    Mutant(
        "generate-no-edit-shape-check", "src/latentcolor/toyflow.py",
        "if edited.shape != shape:", "if False:",
        ("tests/test_toyflow.py::test_generate_refuses_a_wrong_shaped_edit",),
    ),
    Mutant(
        "nearest-last-of-equal-distances", "src/latentcolor/toyflow.py",
        "return int(np.argmin([float(np.sum((c - coords) ** 2)) for c in charts]))",
        "d = [float(np.sum((c - coords) ** 2)) for c in charts]\n    return len(d) - 1 - int(np.argmin(d[::-1]))",
        ("tests/test_toyflow.py::test_equal_attractors_pick_the_first",),
    ),
    Mutant(
        "generate-allocation-error-unmapped", "src/latentcolor/toyflow.py",
        "except MemoryError as e:", "except () as e:",
        (
            "tests/test_toyflow.py::test_generate_refuses_a_trajectory_too_large_to_allocate",
            "tests/test_cli.py::test_simulate_refuses_a_trajectory_too_large_to_allocate",
        ),
    ),
    Mutant(
        "trajectory-no-dims-check", "src/latentcolor/tensorio.py",
        "if frame.shape != dims:", "if False:",
        (MALFORMED,),
    ),
    Mutant(
        "trajectory-no-finiteness-check", "src/latentcolor/tensorio.py",
        "        _check_latents(traj[t])\n", "",
        ("tests/test_tensorio.py::test_trajectory_rejects_a_non_finite_step",),
    ),
    # the JSON read screen and the emitter
    Mutant(
        "screen-needs-a-4-digit-exponent", "src/latentcolor/tensorio.py",
        're.compile(rb"e000")', 're.compile(rb"e0000")',
        (OVERFLOW,),
    ),
    Mutant(
        "screen-needs-211-digits", "src/latentcolor/tensorio.py",
        'b"0" * 210 in screened', 'b"0" * 211 in screened',
        (OVERFLOW,),
    ),
    Mutant(
        "read-json-never-checks-overflow", "src/latentcolor/tensorio.py",
        'if _THREE_DIGIT_EXPONENT(screened) or b"0" * 210 in screened or b"N" in', 'if b"N" in',
        (OVERFLOW, LITERALS),
    ),
    Mutant(
        "read-json-reads-nan", "src/latentcolor/tensorio.py",
        ' or b"N" in raw', "",
        (f"{READ_NON_FINITE}[nan]",),
    ),
    Mutant(
        "read-json-reads-infinity", "src/latentcolor/tensorio.py",
        ' or b"I" in raw', "",
        (f"{READ_NON_FINITE}[inf]", f"{READ_NON_FINITE}[-inf]"),
    ),
    Mutant(
        "screen-reads-one-buffer", "src/latentcolor/tensorio.py",
        'screened = raw.translate(', 'screened = raw[:65536].translate(',
        (SCREEN_ALL,),
    ),
    Mutant(
        "emitter-float-list-unchecked", "src/latentcolor/tensorio.py",
        "set(map(type, floats)) != {float} or not all(map(math.isfinite, floats))", "set(map(type, floats)) != {float}",
        (NON_FINITE, READ_NON_FINITE),
    ),
    Mutant(
        "emitter-float-unchecked", "src/latentcolor/tensorio.py",
        "if kind is float and math.isfinite(obj):", "if kind is float:",
        (NON_FINITE,),
    ),
    Mutant(
        "emitter-dict-unsorted", "src/latentcolor/tensorio.py",
        "for k in sorted(obj))", "for k in obj)",
        (AS_DUMPS, "tests/test_tensorio.py::test_write_json_is_canonical"),
    ),
    Mutant(
        "emitter-rows-of-any-length", "src/latentcolor/tensorio.py",
        "== {list} and len(set(map(len, items))) == 1 and", "== {list} and",
        (AS_DUMPS,),
    ),
    Mutant(
        "emitter-row-bracket-at-item-indent", "src/latentcolor/tensorio.py",
        'f"\\n{indent}],\\n{indent}[\\n{inner}"', 'f"\\n{indent}],\\n{inner}[\\n{inner}"',
        (AS_DUMPS,),
    ),
    # record checks
    Mutant(
        "basis-check-relative-tolerance", "src/latentcolor/subspace.py",
        "np.eye(3)) <= 1e-9)", "np.eye(3)) <= 1e-9 + 1e-5 * np.eye(3))",
        (
            "tests/test_subspace.py::test_model_basis_is_orthonormal_within_1e_9_elementwise",
            MALFORMED,
        ),
    ),
    Mutant(
        "anchor-turn-checked-two-ahead", "src/latentcolor/bicone.py",
        "nxt = pts[_NEXT_ANCHOR]", "nxt = pts[(_NEXT_ANCHOR + 1) % 6]",
        (ASSEMBLE, "tests/test_bicone.py::test_anchor_polygon_winding_twice_rejected"),
    ),
    Mutant(
        "anchor-chroma-by-explicit-sums", "src/latentcolor/bicone.py",
        "chroma = rel - _rowdots(rel, unit_axis)[:, None] * unit_axis",
        "chroma = rel - _dot3(rel.T, unit_axis)[:, None] * unit_axis",
        (ASSEMBLE,),
    ),
    Mutant(
        "anchor-label-repeat-unchecked", "src/latentcolor/bicone.py",
        "        if repeated:\n            raise", "        if False:\n            raise",
        (f"{MALFORMED}[anchors-red-twice]",),
    ),
    Mutant(
        "anchor-unknown-label-unchecked", "src/latentcolor/bicone.py",
        "        if unknown:\n", "        if False:\n",
        (f"{MALFORMED}[anchors-orange]",),
    ),
    Mutant(
        "anchor-theta-unchecked", "src/latentcolor/bicone.py",
        "if thetas != list(HUE_DEGREES):", "if False:",
        (f"{MALFORMED}[anchors-yellow-at-90]",),
    ),
    Mutant(
        "anchor-theta-read-as-is", "src/latentcolor/bicone.py",
        'thetas = tensorio.float_array([e["theta"] for e in entries], (6,)).tolist()', 'thetas = [e["theta"] for e in entries]',
        (f"{MALFORMED}[anchors-bool-theta]",),
    ),
    Mutant(
        "mask-non-integer-unchecked", "src/latentcolor/intervene.py",
        "if not all(k is int or issubclass(k, np.integer)", "if False and all(k is int or issubclass(k, np.integer)",
        (MASK_INTEGERS,),
    ),
    Mutant(
        "mask-bool-as-integer", "src/latentcolor/intervene.py",
        "k is int or issubclass(k, np.integer)", "issubclass(k, (int, np.integer))",
        (MASK_INTEGERS,),
    ),
    Mutant(
        "ppm-raster-copied-twice", "src/latentcolor/observe.py",
        'return b"".join((header, raster))', "return header + raster.tobytes()",
        ("tests/test_observe.py::test_render_ppm_holds_the_raster_about_twice_at_its_peak",),
    ),
    # one chart per intervene call
    Mutant(
        "write-back-without-the-gain", "src/latentcolor/intervene.py",
        "z[rows] + ((edited - hat) / gain) @ model.basis.T", "z[rows] + (edited - hat) @ model.basis.T",
        (WRITE_BACK,),
    ),
    Mutant(
        "no-mask-write-back-without-the-gain", "src/latentcolor/intervene.py",
        "return z + ((edited - hat) / gain) @ model.basis.T", "return z + (edited - hat) @ model.basis.T",
        (NO_MASK,),
    ),
    Mutant(
        "report-decodes-hat-twice", "src/latentcolor/cli.py",
        "np.concatenate([hat, edited])", "np.concatenate([hat, hat])",
        (REPORT_AS_OBSERVED, REPORT),
    ),
    Mutant(
        "cli-mask-not-fitted", "src/latentcolor/cli.py",
        "if mask and (mask.L != L or not mask.selected):", "if False:",
        ("tests/test_cli.py::test_a_mask_that_does_not_fit_exits_2_naming_its_file",),
    ),
    Mutant(
        "no-mask-charts-z-as-laid-out", "src/latentcolor/intervene.py",
        "_chart(np.ascontiguousarray(z) if rows is None", "_chart(z if rows is None",
        (NO_MASK,),
    ),
    Mutant(
        "full-mask-gathered", "src/latentcolor/intervene.py",
        "rows = None if mask is None or len(mask.selected) == mask.L else", "rows = None if mask is None else",
        (FULL_MASK,),
    ),
    # declared array shapes
    Mutant(
        "float-array-any-length", "src/latentcolor/tensorio.py",
        "or len(lengths) > 1 or n is not None and lengths - {n}:", "or len(lengths) > 1:",
        (FLOAT_ARRAY, DECLARED),
    ),
    Mutant(
        "model-basis-columns-any-length", "src/latentcolor/subspace.py",
        '(obj["basis_columns"], (3, mean.size))', '(obj["basis_columns"], (3, None))',
        (f"{DECLARED}[model-mean]",),
    ),
    Mutant(
        "model-any-number-of-basis-columns", "src/latentcolor/subspace.py",
        '(obj["basis_columns"], (3, mean.size))', '(obj["basis_columns"], (None, mean.size))',
        (f"{DECLARED}[model-basis]",),
    ),
    Mutant(
        "model-explained-any-length", "src/latentcolor/subspace.py",
        '(obj["explained"], (3,))', '(obj["explained"], (None,))',
        (f"{DECLARED}[model-explained]",),
    ),
    Mutant(
        "anchor-hue-coords-any-length", "src/latentcolor/bicone.py",
        'for e in entries], (6, 3))', 'for e in entries], (6, None))',
        (f"{ANCHOR_SHAPES}[hue-1]", f"{MALFORMED}[anchors-one-entry-hue-coords]"),
    ),
    Mutant(
        "anchor-black-any-length", "src/latentcolor/bicone.py",
        '(obj["black"], (3,))', '(obj["black"], (None,))',
        (f"{ANCHOR_SHAPES}[black-1]", f"{MALFORMED}[anchors-one-entry-black]"),
    ),
    Mutant(
        "anchor-white-any-length", "src/latentcolor/bicone.py",
        '(obj["white"], (3,))', '(obj["white"], (None,))',
        (f"{ANCHOR_SHAPES}[white-1]", f"{ANCHOR_SHAPES}[white-4]", f"{MALFORMED}[anchors-one-entry-white]"),
    ),
    Mutant(
        "stats-rows-any-width", "src/latentcolor/timestats.py",
        "for r in rows], (None, 2, 3))", "for r in rows], (None, 2, None))",
        (f"{DECLARED}[stats]",),
    ),
    Mutant(
        "grid-any-cell-count", "src/latentcolor/observe.py",
        '(obj["cells"], (height * width, 3))', '(obj["cells"], (None, 3))',
        (f"{DECLARED}[grid-cells]",),
    ),
    Mutant(
        "grid-cells-any-width", "src/latentcolor/observe.py",
        '(obj["cells"], (height * width, 3))', '(obj["cells"], (height * width, None))',
        (f"{DECLARED}[grid-hsl]",),
    ),
    # known equivalent mutants
    Mutant(
        "anchor-thetas-any-count", "src/latentcolor/bicone.py",
        'for e in entries], (6,))', 'for e in entries], (None,))',
        (f"{MALFORMED}[anchors-yellow-at-90]", f"{MALFORMED}[anchors-orange]"),
        equivalent="the entries are taken one per hue label, so there are always six thetas",
    ),
    Mutant(
        "screen-at-209-digits", "src/latentcolor/tensorio.py",
        'b"0" * 210 in screened', 'b"0" * 209 in screened',
        (OVERFLOW, LITERALS),
        equivalent="a shorter run only sends more files to the checked parse, which reads them the same",
    ),
    Mutant(
        "generate-step-added-the-other-way", "src/latentcolor/toyflow.py",
        "step += z", "np.add(z, step, out=step)",
        (REFERENCE_LOOP,),
        equivalent="IEEE addition commutes exactly; the in-place step rests on it",
    ),
    Mutant(
        "hue-wrap-keeps-360", "src/latentcolor/colorspace.py",
        "where=~((h > 0.0) & (h < 360.0))", "where=~((h > 0.0) & (h <= 360.0))",
        (
            "tests/test_kernels.py::test_canonical_hsl_is_hslcolor_bitwise",
            "tests/test_kernels.py::test_canonical_hsl_is_modulo_formula_bitwise",
        ),
        equivalent="a hue of exactly 360 skips the remainder but is set to 0 on the next line",
    ),
    Mutant(
        "lab-toe-boundary-on-the-cube-root", "src/latentcolor/colorspace.py",
        "t > 216.0 / 24389.0", "t >= 216.0 / 24389.0",
        (
            "tests/test_kernels.py::test_lab_array_matches_scalar_at_the_cube_root_toe",
            "tests/test_kernels.py::test_srgb_to_lab_kernels_match_scalar",
        ),
        equivalent="the cube root and the linear toe meet at (6/29)^3: both give 6/29 there, up to rounding",
    ),
    Mutant(
        "sextant-from-ceil", "src/latentcolor/colorspace.py",
        "hp = np.fmin(hp, 5.0, out=_over(hp))", "hp = np.fmin(np.ceil(hp) - 1.0, 5.0, out=_over(hp))",
        (
            "tests/test_kernels.py::test_hsl_to_rgb_array_is_scalar_bitwise",
            "tests/test_kernels.py::test_hsl_to_rgb_array_is_modulo_formula_bitwise",
        ),
        equivalent="it differs only at integer hp, where the two adjacent sextants give the same RGB",
    ),
    Mutant(
        "decode-writes-over-its-input", "src/latentcolor/bicone.py",
        'rel = np.subtract(c, a.black[:, None], order="C")', "rel = np.subtract(c, a.black[:, None], out=c)",
        ("tests/test_kernels.py::test_read_path_kernels_leave_their_inputs_alone",),
    ),
    Mutant(
        "ciede-sl-regrouped", "src/latentcolor/colorspace.py",
        "sL = 1.0 + 0.015 * l50 / np.sqrt(20.0 + l50)", "sL = 1.0 + l50 / np.sqrt(20.0 + l50) * 0.015",
        (
            "tests/test_kernels.py::test_ciede2000_kernel_is_the_formula_bitwise",
            "tests/test_kernels.py::test_ciede2000_kernel_is_the_formula_bitwise_on_a_seeded_batch",
        ),
    ),
    Mutant(
        "compared-grid-by-value", "src/latentcolor/observe.py",
        "pred._compared[0] is not ref", "pred._compared[0] != ref",
        ("tests/test_observe.py", "tests/test_kernels.py::test_grid_metrics_match_per_cell_reference"),
        equivalent="a grid equal in value to the kept one has the same Lab, so the kept CIEDE2000 is its own",
    ),
)


def _copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part, ignore=ignore)


def _pytest(tree: Path, tests) -> str:
    """'passed', 'failed' or 'timeout', or 'error: ...' when pytest could not run the tests."""
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    try:
        proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout"
    if proc.returncode in (0, 1):
        return ("passed", "failed")[proc.returncode]
    return f"error: pytest exit {proc.returncode}: {proc.stdout.strip().splitlines()[-1:]}"


def _run(mutant: Mutant, tree: Path) -> str:
    path = tree / mutant.file
    text = path.read_text()
    if text.count(mutant.old) != 1:
        return f"error: old text found {text.count(mutant.old)} times in {mutant.file}"
    path.write_text(text.replace(mutant.old, mutant.new))
    outcome = _pytest(tree, mutant.tests)
    return {"passed": "survived", "failed": "killed", "timeout": "killed (timeout)"}.get(outcome, outcome)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("names", nargs="*", help="run only the mutants whose name contains one of these")
    args = ap.parse_args()
    mutants = [m for m in MUTANTS if not args.names or any(n in m.name for n in args.names)]
    if not mutants:
        print("no mutant matches", file=sys.stderr)
        return 1

    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        clean = Path(tmp) / "clean"
        _copy_tree(clean)
        baseline = _pytest(clean, sorted({t for m in mutants for t in m.tests}))
        if baseline != "passed":
            print(f"the unmutated tree does not pass the named tests: {baseline}", file=sys.stderr)
            return 1
        unexpected = 0
        for i, mutant in enumerate(mutants):
            tree = Path(tmp) / f"m{i}"
            shutil.copytree(clean, tree)
            t0 = time.perf_counter()
            outcome = _run(mutant, tree)
            shutil.rmtree(tree)
            expected = "survived" if mutant.equivalent else "killed"
            ok = outcome.startswith(expected)
            unexpected += not ok
            note = f"  (equivalent: {mutant.equivalent})" if mutant.equivalent else ""
            flag = "" if ok else "  UNEXPECTED"
            print(f"{outcome:<17} {mutant.name:<40} {time.perf_counter() - t0:5.1f} s{flag}{note}", flush=True)

    equivalent = sum(bool(m.equivalent) for m in mutants)
    print(
        f"{len(mutants)} mutants ({len(mutants) - equivalent} to kill, {equivalent} equivalent), "
        f"{unexpected} unexpected, {time.perf_counter() - start:.1f} s wall"
    )
    return 1 if unexpected else 0


if __name__ == "__main__":
    raise SystemExit(main())
