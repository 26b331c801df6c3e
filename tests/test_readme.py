"""The README's library quick tour and the worked example in ``boundary``'s
module docstring run as doctests: every value they show is the one the code
prints.  A blank line ends the last example's output before the closing
fence of its code block."""

import doctest
from pathlib import Path

import sdmstab.boundary

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_tour():
    failed, attempted = doctest.testfile(str(README), module_relative=False,
                                         optionflags=doctest.NORMALIZE_WHITESPACE)
    assert attempted and not failed


def test_boundary_worked_example():
    failed, attempted = doctest.testmod(sdmstab.boundary)
    assert attempted and not failed
