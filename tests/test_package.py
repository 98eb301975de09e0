"""The package's public surface."""

import startrace


def test_every_public_name_resolves():
    missing = [name for name in startrace.__all__ if not hasattr(startrace, name)]
    assert missing == []
