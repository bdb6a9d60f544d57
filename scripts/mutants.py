#!/usr/bin/env python3
"""Mutation checks: each named mutant must fail the tests listed for it.

A mutant is one exact text replacement in one source file. For each, the
script copies src/ and tests/ to a temporary directory, applies the edit
there, runs only that mutant's tests with pytest and reports the mutant
killed (a test failed or timed out) or survived (its tests passed). Two
mutants run at a time, each in its own copy.
Known equivalent mutants are listed with the reason no test can kill
them; they are expected to survive. The working tree is never edited.

    python scripts/mutants.py              # every mutant
    python scripts/mutants.py pgm parser   # mutants whose name contains "pgm" or "parser"

Before the mutants, the named tests run once on an unmutated copy, and
must pass. The exit status is 0 when every mutant ends as expected, and
1 when a mutant survives that should die, an equivalent mutant dies, a
mutant's old text is not found exactly once, or pytest cannot run the
named tests. Pytest runs under the hypothesis profile "mutants" from
tests/conftest.py, which leaves out shrinking. Only the standard
library and the test suite's own dependencies are needed.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300
JOBS = 2  # pytest runs at a time: one per core of a 2-vCPU host


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
SEEDED_LOOP = "tests/test_toyflow.py::test_generate_is_the_reference_loop_bitwise_on_seeded_fields"
PGM_FUZZ = "tests/test_cli.py::test_a_generated_pgm_mask_exits_0_or_2_naming_it"
PER_PIXEL = "tests/test_kernels.py::test_render_ppm_is_the_per_pixel_reference"
FLOAT_SITES = "tests/test_tensorio.py::test_each_record_refuses_an_overflowing_literal_at_every_float_site"
AS_DUMPS = "tests/test_tensorio.py::test_write_json_writes_what_json_dumps_writes"
NON_FINITE = "tests/test_tensorio.py::test_json_refuses_non_finite_numbers_wherever_they_sit"
READ_NON_FINITE = "tests/test_tensorio.py::test_json_refuses_non_finite_numbers"
ASSEMBLE = "tests/test_bicone.py::test_assemble_is_the_per_anchor_reference_bitwise"
WHOLE_ARRAY_FRAME = "tests/test_bicone.py::test_anchor_set_is_the_whole_array_derivation_bitwise"
MALFORMED = "tests/test_cli.py::test_malformed_record_file_exits_2_naming_it"
MASK_INTEGERS = "tests/test_intervene.py::test_mask_refuses_non_integers"
WRITE_BACK = "tests/test_intervene.py::test_apply_intervention_write_back_roundtrip"
REPORT = "tests/test_cli.py::test_intervene_report_is_the_per_block_computation_bitwise"
REPORT_AS_OBSERVED = "tests/test_cli.py::test_intervene_report_matches_full_grid_observation"
ANCHOR_SHAPES = "tests/test_bicone.py::test_anchor_file_refuses_points_of_the_wrong_shape"
DECLARED = "tests/test_tensorio.py::test_records_refuse_arrays_off_their_declared_shapes"
FLOAT_ARRAY = "tests/test_tensorio.py::test_float_array_reads_exactly_the_declared_nesting"
NO_MASK = "tests/test_intervene.py::test_no_mask_is_the_full_mask_bitwise_on_seeded_cases"
FULL_MASK = "tests/test_intervene.py::test_a_full_mask_writes_back_without_gathering_rows"
READ_NAMES = "tests/test_tensorio.py::test_read_latents_names_the_file_in_each_refusal"
BAD_TRAJECTORY = "tests/test_cli.py::test_stats_over_a_bad_trajectory_exits_2_naming_the_file"
MASK_REFUSALS = "tests/test_intervene.py::test_mask_refusals_say_what_is_wrong"
MASK_INDICES = "tests/test_intervene.py::test_mask_indices_are_sorted_and_read_only"
OVERFLOWS = "tests/test_cli.py::test_a_model_value_that_overflows_the_decode_exits_2_naming_the_files"
VALUE_FUZZ = "tests/test_cli.py::test_a_record_with_an_edited_value_exits_0_or_2_naming_it"
STATS_REFUSALS = "tests/test_timestats.py::test_table_refusals_say_what_is_wrong"
ONE_COLOR = "tests/test_kernels.py::test_one_color_has_the_bits_shape_and_type_of_its_row_in_a_block"

MUTANTS = (
    # the PGM header pattern
    Mutant(
        "pgm-width-height-separator-optional", "src/latentcolor/intervene.py",
        '_SEP + rb"+(\\d+)" + _SEP + rb"+(\\d+)\\s"', '_SEP + rb"*(\\d+)" + _SEP + rb"+(\\d+)\\s"',
        (BAD_PGM,),
    ),
    Mutant(
        "pgm-any-byte-after-maxval", "src/latentcolor/intervene.py",
        'rb"+(\\d+)\\s"', 'rb"+(\\d+)[\\s\\S]"',
        (BAD_PGM,),
    ),
    Mutant(
        "pgm-no-comments", "src/latentcolor/intervene.py",
        '_SEP = rb"(?:\\s|#[^\\n]*\\n)"', '_SEP = rb"\\s"',
        (PGM,),
    ),
    Mutant(
        "pgm-separator-optional-after-magic", "src/latentcolor/intervene.py",
        'rb"P5" + _SEP + rb"+(\\d+)"', 'rb"P5" + _SEP + rb"*(\\d+)"',
        (BAD_PGM,),
    ),
    Mutant(
        "pgm-maxval-unbounded", "src/latentcolor/intervene.py",
        "not 0 < maxval < 65536", "not 0 < maxval",
        (BAD_PGM,),
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
    # the CLI's exit codes
    Mutant(
        "main-key-error-is-input-error", "src/latentcolor/cli.py",
        "except (ValueError, OSError) as e:", "except (ValueError, OSError, KeyError) as e:",
        ("tests/test_cli.py::test_main_exits_1_on_a_key_error",),
    ),
    Mutant(
        "simulate-allocation-error-unmapped", "src/latentcolor/cli.py",
        "except MemoryError as err:", "except () as err:",
        ("tests/test_cli.py::test_simulate_refuses_a_grid_or_dim_too_large_to_allocate",),
    ),
    # the CLI parser
    Mutant(
        "parser-not-cached", "src/latentcolor/cli.py",
        "@functools.cache\ndef _parser()", "def _parser()",
        ("tests/test_cli.py::test_main_keeps_one_parser_that_acts_as_a_fresh_one",),
    ),
    Mutant(
        "targets-not-exclusive", "src/latentcolor/cli.py",
        "target = i.add_mutually_exclusive_group()", "target = i",
        ("tests/test_cli.py::test_intervene_takes_exactly_one_target",),
    ),
    # the latent file format
    Mutant(
        "latents-big-endian", "src/latentcolor/tensorio.py",
        'rows = np.ascontiguousarray(arr, dtype="<f4")', 'rows = np.ascontiguousarray(arr, dtype=">f4")',
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
        (SEEDED_LOOP,),
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
        "manifest-step-file-any-path", "src/latentcolor/tensorio.py",
        "        if stray:\n", "        if False:\n",
        ("tests/test_tensorio.py::test_a_bad_manifest_is_refused_naming_it",),
    ),
    Mutant(
        "steps-yield-float32", "src/latentcolor/tensorio.py",
        "yield frame.astype(np.float64)", "yield frame",
        (
            "tests/test_tensorio.py::test_trajectory_is_the_stacked_step_files_bitwise",
            "tests/test_cli.py::test_stats_of_the_workspace_is_the_whole_trajectory_fit_bytewise",
        ),
    ),
    Mutant(
        "stats-reads-whole-trajectory-first", "src/latentcolor/cli.py",
        "tensorio._steps(m)", "list(tensorio._steps(m))",
        ("tests/test_cli.py::test_stats_refuses_a_wrong_width_at_step_0_before_reading_step_1",),
    ),
    Mutant(
        "latent-values-unchecked", "src/latentcolor/tensorio.py",
        'return _check_latents(np.frombuffer(body, dtype="<f4").reshape(L, d))', 'return np.frombuffer(body, dtype="<f4").reshape(L, d)',
        (
            "tests/test_tensorio.py::test_trajectory_rejects_a_non_finite_step",
            f"{READ_NAMES}[nan]",
            f"{READ_NAMES}[d-below-3]",
            f"{BAD_TRAJECTORY}[nan-frame]",
        ),
    ),
    Mutant(
        "latent-float32-overflow-unchecked", "src/latentcolor/tensorio.py",
        "if not np.isfinite(rows).all():", "if False:",
        ("tests/test_tensorio.py::test_write_latents_refuses_a_value_float32_cannot_hold",),
    ),
    # the one reader
    Mutant(
        "reader-names-no-file", "src/latentcolor/tensorio.py",
        'UnicodeDecodeError\n        raise ValueError(f"{path}: {e}") from e',
        'UnicodeDecodeError\n        raise ValueError(str(e)) from e',
        (READ_NAMES, BAD_PGM, MALFORMED, "tests/test_tensorio.py::test_a_bad_manifest_is_refused_naming_it"),
    ),
    Mutant(
        "cli-latent-width-unchecked", "src/latentcolor/cli.py",
        "if z.shape[-1] != model.dim:", "if False:",
        (
            "tests/test_cli.py::test_a_latent_of_another_width_than_the_model_exits_2_naming_both",
            f"{BAD_TRAJECTORY}[wider-than-the-model]",
        ),
    ),
    # the JSON parse, float_array's finite check (the one refusal of an overflowing literal) and write_json
    Mutant(
        "read-json-reads-non-finite-constants", "src/latentcolor/tensorio.py",
        ', parse_constant=_refuse_constant)', ')',
        (READ_NON_FINITE,),
    ),
    Mutant(
        "float-array-accepts-non-finite", "src/latentcolor/tensorio.py",
        'if not np.isfinite(arr).all():\n        raise ValueError("expected finite',
        'if False:\n        raise ValueError("expected finite',
        (
            FLOAT_SITES,
            f"{MALFORMED}[grid-overflowing-float]",
            f"{MALFORMED}[model-overflowing-float]",
            f"{MALFORMED}[anchors-overflowing-float]",
            f"{MALFORMED}[stats-overflowing-float]",
        ),
    ),
    Mutant(
        "write-json-unsorted", "src/latentcolor/tensorio.py",
        "json.dumps(obj, sort_keys=True,", "json.dumps(obj, sort_keys=False,",
        (AS_DUMPS, "tests/test_tensorio.py::test_write_json_is_canonical"),
    ),
    Mutant(
        "write-json-allows-nan", "src/latentcolor/tensorio.py",
        "allow_nan=False)", "allow_nan=True)",
        (NON_FINITE, READ_NON_FINITE),
    ),
    # record constructors
    Mutant(
        "basis-check-relative-tolerance", "src/latentcolor/subspace.py",
        "np.eye(3)) <= 1e-9)", "np.eye(3)) <= 1e-9 + 1e-5 * np.eye(3))",
        (
            "tests/test_subspace.py::test_model_basis_is_orthonormal_within_1e_9_elementwise",
            MALFORMED,
        ),
    ),
    Mutant(
        "model-basis-orthonormality-unchecked", "src/latentcolor/subspace.py",
        "if not (np.abs(basis.T @ basis - np.eye(3)) <= 1e-9).all():", "if False:",
        (
            "tests/test_subspace.py::test_model_rejects_nonorthonormal_basis",
            "tests/test_subspace.py::test_model_rejects_a_nan_basis",
        ),
    ),
    Mutant(
        "stats-negative-scale-unchecked", "src/latentcolor/timestats.py",
        "if (beta < 0).any():", "if False:",
        (f"{STATS_REFUSALS}[negative-at-t0]",),
    ),
    Mutant(
        "stats-tables-may-differ-in-shape", "src/latentcolor/timestats.py",
        "alpha.shape[1] != 3 or alpha.shape != beta.shape:", "alpha.shape[1] != 3:",
        (STATS_REFUSALS,),
    ),
    Mutant(
        "attractor-shapes-unchecked", "src/latentcolor/toyflow.py",
        "if len(shapes) != 1 or atts[0].ndim != 2 or atts[0].shape[1] != embedder.dim:", "if False:",
        ("tests/test_toyflow.py::test_field_validation", "tests/test_toyflow.py::test_field_refusals_say_what_is_wrong"),
    ),
    Mutant(
        "mask-range-unchecked", "src/latentcolor/intervene.py",
        "if order and (order[0] < 0 or order[-1] >= L):", "if False:",
        (MASK_REFUSALS, "tests/test_intervene.py::test_mask_basics"),
    ),
    Mutant(
        "mask-range-checked-above-only", "src/latentcolor/intervene.py",
        "(order[0] < 0 or order[-1] >= L)", "(order[-1] >= L)",
        (MASK_REFUSALS,),
    ),
    Mutant(
        "mask-order-unsorted", "src/latentcolor/intervene.py",
        "order = sorted(sel)", "order = list(sel)",
        (MASK_INDICES, MASK_REFUSALS),
    ),
    Mutant(
        "mask-reads-selected-twice", "src/latentcolor/intervene.py",
        "        selected = selected if type(selected) is frozenset else tuple(selected)", "        pass",
        ("tests/test_intervene.py::test_mask_reads_any_iterable_of_indices_once",),
    ),
    Mutant(
        "mask-indices-writable", "src/latentcolor/intervene.py",
        "        self._indices.flags.writeable = False\n", "",
        (MASK_INDICES,),
    ),
    Mutant(
        "mask-keeps-numpy-integers", "src/latentcolor/intervene.py",
        "frozenset(selected if types == {int} else map(int, selected))", "frozenset(selected)",
        ("tests/test_intervene.py::test_mask_takes_numpy_integers",),
    ),
    # AnchorSet's constructor
    Mutant(
        "anchor-degeneracy-absolute", "src/latentcolor/bicone.py",
        "least = max(_MIN_CHROMA, _MIN_ANCHOR_CHROMA * float(np.abs(points).max()))", "least = _MIN_CHROMA",
        (
            "tests/test_bicone.py::test_an_anchor_with_chroma_lost_to_rounding_is_refused",
            "tests/test_bicone.py::test_decode_takes_the_anchors_and_edge_midpoints_of_every_set_the_constructor_accepts",
            "tests/test_cli.py::test_observe_refuses_anchors_whose_chroma_is_lost_to_rounding_naming_the_file",
        ),
    ),
    Mutant(
        "anchor-e2-never-flipped", "src/latentcolor/bicone.py",
        "np.negative(frame[1], out=frame[1])", "frame[1]",
        ("tests/test_bicone.py::test_a_mirrored_anchor_set_decodes_its_own_encode",),
    ),
    Mutant(
        "anchor-turn-checked-two-ahead", "src/latentcolor/bicone.py",
        "zip(xy, xy[1:] + xy[:1])", "zip(xy, xy[2:] + xy[:2])",
        (ASSEMBLE, "tests/test_bicone.py::test_anchor_polygon_winding_twice_rejected"),
    ),
    Mutant(
        "anchor-chroma-by-explicit-sums", "src/latentcolor/bicone.py",
        "chroma = rel - _rowdots(rel, unit_axis)[:, None] * unit_axis",
        "chroma = rel - _dot3(rel.T, unit_axis)[:, None] * unit_axis",
        (ASSEMBLE,),
    ),
    Mutant(
        "anchor-winding-not-strict", "src/latentcolor/bicone.py",
        "x0 * y1 - y0 * x1 <= 0", "x0 * y1 - y0 * x1 < 0",
        (WHOLE_ARRAY_FRAME,),
    ),
    Mutant(
        "anchor-label-count-unchecked", "src/latentcolor/bicone.py",
        "if len(labels) != len(HUE_LABELS) or any(", "if any(",
        (f"{MALFORMED}[anchors-orange]",),
    ),
    Mutant(
        "anchor-label-repeat-unchecked", "src/latentcolor/bicone.py",
        " or any(labels.count(l) != 1 for l in HUE_LABELS):", ":",
        ("tests/test_bicone.py::test_anchor_file_lists_the_six_hue_labels_once_each[repeat-among-six]",),
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
        "ppm-rows-not-copied", "src/latentcolor/observe.py",
        "    raster[:, 1:] = raster[:, :1]\n", "",
        (f"{PER_PIXEL}[2]", f"{PER_PIXEL}[16]"),
    ),
    Mutant(
        "ppm-raster-copied-twice", "src/latentcolor/observe.py",
        'return b"".join((header, raster))', "return header + raster.tobytes()",
        ("tests/test_observe.py::test_render_ppm_holds_the_raster_about_twice_at_its_peak",),
    ),
    # one color is a one-column block
    Mutant(
        "one-colour-as-scalar-planes", "src/latentcolor/colorspace.py",
        "np.atleast_2d(np.asarray(colors, dtype=np.float64))", "np.asarray(colors, dtype=np.float64)",
        (ONE_COLOR, "tests/test_kernels.py::test_plane_adapters_are_moveaxis_bitwise"),
    ),
    Mutant(
        "decode-leaves-l-unclamped", "src/latentcolor/bicone.py",
        "np.clip(hsl[..., 1:], 0.0, 1.0, out=hsl[..., 1:])", "np.clip(hsl[..., 1:2], 0.0, 1.0, out=hsl[..., 1:2])",
        ("tests/test_kernels.py::test_decode_is_canonical_hsl_of_decode_raw_bitwise",),
    ),
    # the round trip on extreme anchor sets
    Mutant(
        "decode-chroma-floor-raised", "src/latentcolor/bicone.py",
        "chromatic = ~(radius < _MIN_CHROMA)", "chromatic = ~(radius < 1e-3)",
        ("tests/test_bicone.py::test_encode_decode_round_trip_holds_on_extreme_anchor_sets",),
    ),
    # type1 lands the mean; type2 edits raw coordinates and weighs hues by chroma; the entry points refuse an
    # overflow; one mask reader that checks repeats; no mean of nothing
    Mutant(
        "type2-clamps-before-encode", "src/latentcolor/intervene.py",
        "return encode(raw + np.array([dh, ds, dl]), anchors)",
        "return encode(np.clip(raw + np.array([dh, ds, dl]), [-np.inf, 0.0, 0.0], [np.inf, 1.0, 1.0]), anchors)",
        (
            "tests/test_intervene.py::test_a_no_op_type2_returns_every_row_off_the_apexes",
            "tests/test_intervene.py::test_a_no_op_type2_is_the_identity_at_every_t",
            "tests/test_kernels.py::test_type2_matches_per_patch_reference",
        ),
    ),
    Mutant(
        "type1-shifts-by-the-first-row", "src/latentcolor/intervene.py",
        "(encode(target, anchors) - coords.mean(axis=0))", "(encode(target, anchors) - coords[0])",
        ("tests/test_intervene.py::test_type1_lands_the_masked_mean_on_target_for_any_anchor_set_t_and_mask",),
    ),
    Mutant(
        "circular-mean-absolute-cut", "src/latentcolor/colorspace.py",
        "<= 1e-12 * float(np.sum(np.abs(w))):", "<= 1e-12:",
        (
            "tests/test_colorspace.py::test_circular_mean_hue_cut_is_relative_to_the_weights",
            "tests/test_colorspace.py::test_circular_mean_hue_does_not_move_when_every_weight_is_scaled",
        ),
    ),
    Mutant(
        "type2-weights-every-row-equally", "src/latentcolor/intervene.py",
        "circular_mean_hue(h, s * (1.0 - np.abs(2.0 * l - 1.0)))", "circular_mean_hue(h, np.ones_like(h))",
        (
            "tests/test_intervene.py::test_achromatic_rows_leave_the_hue_type2_gives_the_coloured_rows",
            "tests/test_intervene.py::test_grey_rows_do_not_pull_the_coloured_rows_toward_red",
            "tests/test_kernels.py::test_type2_matches_per_patch_reference",
        ),
    ),
    Mutant(
        "observe-overflow-unraised", "src/latentcolor/observe.py",
        'with np.errstate(over="raise", invalid="raise"):\n        hat, _', 'with np.errstate():\n        hat, _',
        ("tests/test_observe.py::test_observe_refuses_a_model_value_that_overflows",),
    ),
    Mutant(
        "intervene-overflow-unraised", "src/latentcolor/intervene.py",
        'with np.errstate(over="raise", invalid="raise"):\n        return _intervene',
        'with np.errstate():\n        return _intervene',
        ("tests/test_intervene.py::test_apply_intervention_refuses_a_model_value_that_overflows",),
    ),
    Mutant(
        "mask-load-reads-json-only", "src/latentcolor/intervene.py",
        'raw[:2] == b"P5"', "False",
        ("tests/test_intervene.py::test_a_mask_loads_equal_from_json_and_from_8_and_16_bit_pgm",),
    ),
    Mutant(
        "mask-repeats-unchecked", "src/latentcolor/intervene.py",
        "if len(mask.selected) != len(selected):", "if False:",
        (
            "tests/test_intervene.py::test_a_json_mask_refusal_says_what_is_wrong",
            "tests/test_cli.py::test_eval_rejects_json_mask_repeating_an_index",
            "tests/test_cli.py::test_a_record_edited_off_its_shape_exits_2_naming_it",
        ),
    ),
    Mutant(
        "mean-color-of-nothing", "src/latentcolor/observe.py",
        "if planes.shape[-1] == 0:", "if False:",
        ("tests/test_observe.py::test_mean_color_refuses_an_empty_block",),
    ),
    # the interp blend's horizon
    Mutant(
        "interp-horizon-unchecked", "src/latentcolor/intervene.py",
        "if T < 1:", "if False:",
        ("tests/test_intervene.py::test_schedule_validation",),
    ),
    Mutant(
        "interp-timestep-range-unchecked", "src/latentcolor/intervene.py",
        "if not 0 <= t <= T:", "if False:",
        ("tests/test_intervene.py::test_gamma_is_linear_in_t",),
    ),
    Mutant(
        "interp-refuses-t-at-the-horizon", "src/latentcolor/intervene.py",
        "if not 0 <= t <= T:", "if not 0 <= t < T:",
        ("tests/test_intervene.py::test_gamma_is_linear_in_t",),
    ),
    # the three modes are positions on one blend
    Mutant(
        "type2-at-position-0", "src/latentcolor/intervene.py",
        '"type2": stats.T', '"type2": 0',
        (WRITE_BACK,),
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
    # a value out of float's range in the files observe and intervene read
    Mutant(
        "cli-overflow-warns", "src/latentcolor/cli.py",
        'np.errstate(over="raise", invalid="raise")', 'np.errstate(over="warn", invalid="warn")',
        (OVERFLOWS, VALUE_FUZZ),
    ),
    Mutant(
        "cli-world-loaded-unchecked", "src/latentcolor/cli.py",
        "_checked(args, _load_world, args)\n    dims", "_load_world(args)\n    dims",
        (VALUE_FUZZ,),
    ),
    Mutant(
        "cli-report-decode-unchecked", "src/latentcolor/cli.py",
        "hsl = _checked(args, decode, ", "hsl = decode(",
        (f"{OVERFLOWS}[type1-one-patch]",),
    ),
    # files that must agree with each other
    Mutant(
        "fit-probe-widths-unchecked", "src/latentcolor/cli.py",
        "if means[f.stem].size != d:", "if False:",
        ("tests/test_cli.py::test_fit_names_the_probe_whose_width_differs_and_writes_nothing",),
    ),
    Mutant(
        "stats-horizons-unchecked", "src/latentcolor/cli.py",
        "if len(track) != len(tracks[0]):", "if False:",
        ("tests/test_cli.py::test_stats_names_the_manifests_whose_horizons_differ_and_writes_nothing",),
    ),
    Mutant(
        "cli-mask-not-fitted", "src/latentcolor/cli.py",
        "if mask and (mask.L != L or not mask.selected):", "if False:",
        ("tests/test_cli.py::test_a_mask_that_does_not_fit_exits_2_naming_its_file",),
    ),
    Mutant(
        "eval-unmasked-wrong-column", "src/latentcolor/cli.py",
        "grid._blocks[0][:, -1]", "grid._blocks[0][:, 0]",
        ("tests/test_cli.py::test_eval_without_mask_writes_what_an_all_patches_mask_gives",),
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
        "hp = np.fmin(hp, 5.0, out=hp)", "hp = np.fmin(np.ceil(hp) - 1.0, 5.0, out=hp)",
        (
            "tests/test_kernels.py::test_hsl_to_rgb_array_is_scalar_bitwise",
            "tests/test_kernels.py::test_hsl_to_rgb_array_is_modulo_formula_bitwise",
        ),
        equivalent="it differs only at integer hp, where the two adjacent sextants give the same RGB",
    ),
    Mutant(
        "ciede-squares-by-scalar-pow", "src/latentcolor/colorspace.py",
        "l50 = np.square(Lbp - 50.0)", "l50 = (Lbp - 50.0) ** 2",
        (
            "tests/test_kernels.py::test_ciede2000_of_one_pair_has_the_bits_of_its_row_in_a_block",
            "tests/test_kernels.py::test_ciede2000_kernel_is_the_formula_bitwise",
        ),
        equivalent="the planes are arrays, also for one pair, and numpy computes an array's ** 2 as np.square",
    ),
    Mutant(
        "decode-writes-over-its-input", "src/latentcolor/bicone.py",
        'rel = np.subtract(c, a.black[:, None], order="C")', "rel = np.subtract(c, a.black[:, None], out=c)",
        ("tests/test_kernels.py::test_read_path_kernels_leave_their_inputs_alone_on_seeded_cases",),
    ),
    Mutant(
        "ciede-sl-regrouped", "src/latentcolor/colorspace.py",
        "sL = 1.0 + 0.015 * l50 / np.sqrt(20.0 + l50)", "sL = 1.0 + l50 / np.sqrt(20.0 + l50) * 0.015",
        ("tests/test_kernels.py::test_ciede2000_kernel_is_the_formula_bitwise_on_a_seeded_batch",),
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
    # the mutants profile skips hypothesis's shrinking: a kill needs only the first failing example
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--hypothesis-profile=mutants", *tests]
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    try:
        proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout"
    if proc.returncode in (0, 1):
        return ("passed", "failed")[proc.returncode]
    return f"error: pytest exit {proc.returncode}: {proc.stdout.strip().splitlines()[-1:]}"


def _run(mutant: Mutant, clean: Path, tree: Path) -> tuple[str, float]:
    """The mutant's outcome in a fresh copy of the clean tree, and the seconds it took."""
    t0 = time.perf_counter()
    shutil.copytree(clean, tree)
    try:
        path = tree / mutant.file
        text = path.read_text()
        if text.count(mutant.old) != 1:
            return f"error: old text found {text.count(mutant.old)} times in {mutant.file}", time.perf_counter() - t0
        path.write_text(text.replace(mutant.old, mutant.new))
        outcome = _pytest(tree, mutant.tests)
    finally:
        shutil.rmtree(tree)
    killed = {"passed": "survived", "failed": "killed", "timeout": "killed (timeout)"}.get(outcome, outcome)
    return killed, time.perf_counter() - t0


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
        with ThreadPoolExecutor(JOBS) as pool:
            trees = [Path(tmp) / f"m{i}" for i in range(len(mutants))]
            for mutant, (outcome, seconds) in zip(mutants, pool.map(_run, mutants, [clean] * len(mutants), trees)):
                expected = "survived" if mutant.equivalent else "killed"
                ok = outcome.startswith(expected)
                unexpected += not ok
                note = f"  (equivalent: {mutant.equivalent})" if mutant.equivalent else ""
                flag = "" if ok else "  UNEXPECTED"
                print(f"{outcome:<17} {mutant.name:<40} {seconds:5.1f} s{flag}{note}", flush=True)

    equivalent = sum(bool(m.equivalent) for m in mutants)
    print(
        f"{len(mutants)} mutants ({len(mutants) - equivalent} to kill, {equivalent} equivalent), "
        f"{unexpected} unexpected, {time.perf_counter() - start:.1f} s wall"
    )
    return 1 if unexpected else 0


if __name__ == "__main__":
    raise SystemExit(main())
