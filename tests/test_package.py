"""The package root exports, and the config defaults are, exactly what the
README documents."""

import inspect
import json
import re
from pathlib import Path

import yaml

import fedanom
from fedanom.config import build_config

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_import_names():
    """Names in the README's `from fedanom import (...)` block, in order."""
    block = re.search(r"from fedanom import \(([^)]*)\)", README.read_text())
    assert block, "README has no `from fedanom import (...)` block"
    return [name.strip() for name in block.group(1).split(",")]


def test_all_matches_readme_library_use():
    assert fedanom.__all__ == readme_import_names()
    assert all(hasattr(fedanom, name) for name in fedanom.__all__)


def test_root_binds_no_other_public_name():
    # submodules are bound as attributes once imported; they are not exports
    public = {name for name, value in vars(fedanom).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public == set(fedanom.__all__)


def test_configuration_yaml_block_is_the_defaults():
    section = README.read_text().split("\n## Configuration\n", 1)[1]
    block = re.search(r"```yaml\n(.*?)```", section, re.DOTALL)
    documented = yaml.safe_load(block.group(1))
    defaults = build_config(None).data
    assert documented == defaults
    # JSON tells 1 from 1.0 and 1 from true, which == does not
    assert (json.dumps(documented, sort_keys=True)
            == json.dumps(defaults, sort_keys=True))
