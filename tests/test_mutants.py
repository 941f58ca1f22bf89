"""The mutation catalogue stays applicable: each old text occurs once."""

import pytest

from mutants import MUTANTS, ROOT, mutate


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_old_text_occurs_once(mutant):
    text = (ROOT / "src" / "toroid" / mutant.path).read_text(encoding="utf-8")
    assert mutate(text, mutant) != text
    for test in mutant.tests:
        assert (ROOT / test.split("::")[0]).is_file()


def test_names_are_unique():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
