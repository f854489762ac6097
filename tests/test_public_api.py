"""The package's public names."""
from __future__ import annotations

import vinevalue


def test_every_exported_name_resolves():
    missing = [name for name in vinevalue.__all__ if not hasattr(vinevalue, name)]
    assert missing == []
