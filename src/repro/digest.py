"""Content digests: process-independent identities for cache keys.

Every resource the mapper is keyed on — a
:class:`~repro.symalg.polynomial.Polynomial`, a
:class:`~repro.library.element.LibraryElement`, a
:class:`~repro.library.catalog.Library`, a
:class:`~repro.frontend.extract.TargetBlock`, a
:class:`~repro.platform.processor.ProcessorSpec` — carries a ``digest``
computed once from its content and cached on the object.  Digests
compose Merkle-style: a library's digest hashes its element digests,
an element's hashes its polynomials' digests, so a cache key is a
short tuple of hex strings and scalars no matter how large the
resources behind it are.

Python ``hash`` is randomized per process (``PYTHONHASHSEED``), so
digests hash a canonical JSON text instead, and stay equal across
processes, hosts and Python sessions.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

__all__ = ["content_digest"]


def _canonical(obj):
    """A JSON-able canonical form of one digest part.

    Floats travel as ``repr`` (which round-trips exactly, and keeps
    ``1.0`` distinct from ``1``); an object with a string ``digest``
    travels as that digest.  Anything else is a bug in the caller's
    key, surfaced loudly.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return ["f", repr(obj)]
    if isinstance(obj, Fraction):
        return ["q", obj.numerator, obj.denominator]
    if isinstance(obj, (tuple, list)):
        return ["t", [_canonical(x) for x in obj]]
    digest = getattr(obj, "digest", None)
    if isinstance(digest, str):
        return ["d", digest]
    raise TypeError(f"cannot build a content digest from {type(obj).__name__}")


def content_digest(*parts) -> str:
    """Hex sha256 of the canonical encoding of ``parts``.

    >>> content_digest("x", 1) == content_digest("x", 1)
    True
    >>> content_digest(1.0) == content_digest(1)
    False
    """
    text = json.dumps([_canonical(p) for p in parts],
                      separators=(",", ":"), ensure_ascii=True)
    return hashlib.sha256(text.encode("ascii")).hexdigest()
