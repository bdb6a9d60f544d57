"""scripts/mutants.py's table still fits the tree: each edit applies, and each test it names exists.

A full mutation run takes minutes; this check takes a fraction of a second, so a refactor that moves
a mutant's text or renames one of its tests shows up in the suite rather than at the next full run.
"""

import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load_mutants():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS


MUTANTS = _load_mutants()


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_applies_once_and_names_existing_tests(mutant):
    text = (ROOT / mutant.file).read_text()
    assert text.count(mutant.old) == 1, f"{mutant.name}: old text found {text.count(mutant.old)} times in {mutant.file}"
    assert mutant.new != mutant.old
    assert mutant.tests
    for test in mutant.tests:
        path, _, node = test.partition("::")
        source = (ROOT / path).read_text()  # a missing test file raises here
        if node:
            function = node.split("[")[0]
            assert re.search(rf"^def {re.escape(function)}\(", source, re.M), f"{mutant.name}: no {test}"
