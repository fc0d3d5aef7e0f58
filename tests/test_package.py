"""The package's public name list."""

import collections

import knnmi


def test_every_exported_name_resolves_once():
    repeated = [n for n, c in collections.Counter(knnmi.__all__).items() if c > 1]
    assert repeated == []
    missing = [n for n in knnmi.__all__ if not hasattr(knnmi, n)]
    assert missing == []
