"""Every name that README.md cites as `module.name[.attr]` resolves in wakesim.

A cited name is a backticked module of the wakesim package (optionally
written `wakesim.module`), then one or more attributes, optionally followed
by a call's parentheses: `receiver.ReceiverStream`,
`wakesim.receiver.ReceiverStream`, `receiver._comb_noise(...)`. A name
that a change renames or removes fails here until the README follows.
"""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import wakesim

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = {info.name for info in pkgutil.iter_modules(wakesim.__path__)}
CITED = re.compile(
    r"`(?:wakesim\.)?(\w+)((?:\.[A-Za-z_]\w*)+)(?:\([^`\n]*\))?`")


def _cited():
    found = {m.group(1) + m.group(2) for m in CITED.finditer(README.read_text())
             if m.group(1) in MODULES}
    return sorted(found)


def test_readme_cites_module_names():
    # guards the pattern: the README cites a dozen names this way
    assert len(_cited()) >= 10


@pytest.mark.parametrize("name", _cited())
def test_readme_name_resolves(name):
    module, *attrs = name.split(".")
    obj = importlib.import_module(f"wakesim.{module}")
    for depth, attr in enumerate(attrs):
        assert hasattr(obj, attr), (
            f"README.md cites `{name}`, but "
            f"{'.'.join([module, *attrs[:depth]])} has no {attr}")
        obj = getattr(obj, attr)
