"""The package's public API is the list in cryptolex.__all__."""

from __future__ import annotations

import cryptolex
from cryptolex import corpus, lexicon, morpho


def test_every_public_name_resolves_once():
    names = cryptolex.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(cryptolex, name)] == []
    namespace: dict = {}
    exec("from cryptolex import *", namespace)
    assert set(names) <= set(namespace)


def test_removed_names_are_gone():
    # test-only or one-caller names, folded into their callers or the tests
    assert "reconstruct" not in cryptolex.__all__
    for module, name in [
        (cryptolex, "reconstruct"),
        (morpho, "reconstruct"),
        (morpho, "match_counts"),
        (corpus, "match_counts"),
        (lexicon, "parse_lexicon_lines"),
        (lexicon, "EXACT_KINDS"),
        (lexicon, "parse_entry"),
    ]:
        assert not hasattr(module, name), (module.__name__, name)
