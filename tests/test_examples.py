"""Every script under ``examples/`` loads against the current package.

Each example guards ``main()`` behind ``if __name__ == "__main__"``, so
loading it under another module name runs only its imports and
definitions: a removed or renamed public name fails here instead of in
a reader's first command.
"""

import pathlib
import runpy

import pytest

EXAMPLES = sorted(
    (pathlib.Path(__file__).resolve().parent.parent / "examples").glob("*.py")
)


def test_examples_present():
    assert EXAMPLES


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.name)
def test_example_loads(path):
    namespace = runpy.run_path(str(path), run_name="__smoke__")
    assert callable(namespace["main"])
