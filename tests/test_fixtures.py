"""The fixture files, which the README's CLI examples run on, match the corpus."""

from pathlib import Path

import pytest

from equivcurv import fixtures

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"
CORPUS = {
    **{f"{name}.edges": text for name, text in fixtures.GRAPHS.items()},
    **{f"{name}.hyper": text for name, text in fixtures.HYPERGRAPHS.items()},
}


def test_files_and_entries_pair_up():
    files = sorted(p.name for p in FIXTURE_DIR.iterdir() if p.suffix in (".edges", ".hyper"))
    assert files == sorted(CORPUS)


@pytest.mark.parametrize("filename", sorted(CORPUS))
def test_file_equals_entry(filename):
    assert (FIXTURE_DIR / filename).read_text(encoding="utf-8") == CORPUS[filename]
