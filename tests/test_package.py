"""The package's public surface."""

import importlib

import mpmath

import startrace


def test_every_public_name_resolves():
    missing = [name for name in startrace.__all__ if not hasattr(startrace, name)]
    assert missing == []


def test_exact_layers_bind_no_mpmath():
    for name in ("poly", "formal", "diffop", "star", "trace", "equiv"):
        module = importlib.import_module(f"startrace.{name}")
        bound = [
            key
            for key, value in vars(module).items()
            if value is mpmath or getattr(value, "__module__", "").startswith("mpmath")
        ]
        assert bound == [], name
