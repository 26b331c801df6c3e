"""The README's library quick tour runs as a doctest: every value it shows
is the one the code prints.  A blank line ends the last example's output
before the closing fence of its code block."""

import doctest
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_tour():
    failed, attempted = doctest.testfile(str(README), module_relative=False,
                                         optionflags=doctest.NORMALIZE_WHITESPACE)
    assert attempted and not failed
