"""The README names the package's functions as ``sl.<name>``; a name that
no longer resolves would leave the documentation pointing at nothing.  Its
config example is what a user copies, so it must parse as written."""

import re
from pathlib import Path

import swarmlimit
from swarmlimit.config import parse_config

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_sl_name_in_the_readme_resolves():
    names = set(re.findall(r"\bsl\.(\w+)", README.read_text()))
    assert len(names) >= 10
    assert sorted(names - set(swarmlimit.__all__)) == []
    assert all(hasattr(swarmlimit, name) for name in names)


def test_the_readme_config_block_parses():
    # a user copies the CLI section's config block as written
    block = re.search(r"^```ini\n(.*?)^```$", README.read_text(), re.S | re.M)
    cfg = parse_config(block.group(1))
    assert cfg["scheme"] == "pso" and cfg["shift"] == (0.0,)
    assert cfg["init"] == ("gaussian", 0.0, 1.0)
