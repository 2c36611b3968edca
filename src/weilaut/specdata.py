"""Locations of the data files shipped with the package."""

import os

SPEC_DIR = os.path.join(os.path.dirname(__file__), "specs")


def spec_path(name):
    """Absolute path of a shipped spec or bindings file."""
    if "." not in os.path.basename(name):
        name = name + ".alg"
    return os.path.join(SPEC_DIR, name)
