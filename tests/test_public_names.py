"""The README's list of library names is what ``import msmbounds`` exports."""

import re
import types
from pathlib import Path

import msmbounds

README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_names():
    """{name: module} from the README's "Library names" list."""
    text = README.read_text().split("**Library names.**", 1)[1]
    items = text.split("\n\n", 2)[1]
    names = {}
    for item in re.split(r"\n- ", "\n" + items)[1:]:
        module, _, listed = item.partition(":")
        for name in re.findall(r"`(\w+)`", listed):
            names[name] = module.strip("` ")
    return names


def test_readme_library_names_are_the_package_exports():
    exported = {
        name: getattr(msmbounds, name).__module__.removeprefix("msmbounds.")
        for name in msmbounds.__all__
        if not isinstance(getattr(msmbounds, name), types.ModuleType)
    }
    assert _readme_names() == exported
