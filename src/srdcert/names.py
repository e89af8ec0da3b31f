"""How the package spells a number in the names and labels it prints."""

from __future__ import annotations


def number(v: float) -> str:
    """v as ``:g`` writes it where that reads back as v, else its repr, so
    two distinct values never print alike."""
    text = f"{v:g}"
    return text if float(text) == v else repr(float(v))
