"""The package's public names."""

import gbsim


def test_every_exported_name_resolves_once():
    assert len(gbsim.__all__) == len(set(gbsim.__all__))
    assert [name for name in gbsim.__all__ if not hasattr(gbsim, name)] == []
