"""The README's library example runs as written against the current API."""

import pathlib
import re

_README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", _README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(_README), "exec"), namespace)
    features = namespace["features"]
    assert (features.m, features.c) == (8, 1)
    assert features.spatial_shape == (28, 28)
