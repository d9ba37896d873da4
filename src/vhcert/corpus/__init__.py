"""Bundled example complexes: lambda.vh, delta.vh, sigma.vh."""

import os

from vhcert.complexes import SquareComplex, parse_complex

NAMES = ("lambda", "delta", "sigma")


def text(name: str) -> str:
    """Raw file contents of a bundled complex."""
    if name not in NAMES:
        raise KeyError(f"no bundled complex named {name!r}")
    with open(os.path.join(os.path.dirname(__file__), f"{name}.vh"), encoding="utf-8") as f:
        return f.read()


def load(name: str) -> SquareComplex:
    return parse_complex(text(name))
