"""The README names the package's functions as ``sl.<name>``; a name that
no longer resolves would leave the documentation pointing at nothing."""

import re
from pathlib import Path

import swarmlimit

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_sl_name_in_the_readme_resolves():
    names = set(re.findall(r"\bsl\.(\w+)", README.read_text()))
    assert len(names) >= 10
    assert sorted(names - set(swarmlimit.__all__)) == []
    assert all(hasattr(swarmlimit, name) for name in names)
