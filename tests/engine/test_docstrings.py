"""Execute the doctests embedded in the invariant-bearing module docstrings.

``docs/caching.md`` references the key-derivation invariants documented in
:mod:`repro.engine.fingerprint`; this test keeps the examples in that
docstring executable so the documentation cannot silently rot.
"""

import doctest

from repro.engine import fingerprint


def test_fingerprint_canonicalisation_doctest():
    results = doctest.testmod(fingerprint, verbose=False)
    assert results.attempted > 0, "fingerprint docstring lost its examples"
    assert results.failed == 0
