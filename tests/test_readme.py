"""README's examples run as written."""

import re
from pathlib import Path

import pytest

from statebody import inscribed_radius

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quickstart_runs():
    """The one Python block under "Library quickstart" runs, and the support
    height it prints is the insphere radius it claims."""
    section = README.read_text().split("## Library quickstart", 1)[1]
    code = re.findall(r"```python\n(.*?)```", section.split("\n## ", 1)[0], re.S)
    assert len(code) == 1
    namespace = {}
    exec(compile(code[0], "README.md (Library quickstart)", "exec"), namespace)
    assert namespace["h"] == pytest.approx(inscribed_radius(4), abs=1e-12)
