"""Every file in tests/data/ is the text its builder in tests/frozen.py returns."""
from __future__ import annotations

import frozen
import pytest


@pytest.mark.exact
@pytest.mark.parametrize("name", list(frozen.FILES))
def test_frozen_file_matches_its_builder(name):
    assert frozen.FILES[name]() == (frozen.DATA / name).read_bytes().decode()
