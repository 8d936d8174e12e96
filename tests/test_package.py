"""The package's public surface, `ietsaf.__all__`."""

import ietsaf


def test_all_is_sorted_unique_and_every_name_resolves():
    names = ietsaf.__all__
    assert names == sorted(set(names))
    assert [name for name in names if not hasattr(ietsaf, name)] == []
