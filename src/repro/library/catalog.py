"""The library catalog: a searchable set of characterized elements."""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

from repro.digest import content_digest
from repro.errors import LibraryError
from repro.library.element import LibraryElement

__all__ = ["Library"]


class Library:
    """A collection of :class:`LibraryElement` with lookup helpers.

    Libraries combine: ``Library.union(lm, ih, ipp)`` models the paper's
    successive mapping passes (first LM+IH, then LM+IH+IPP).
    """

    def __init__(self, name: str, elements: Iterable[LibraryElement] = ()):
        self.name = name
        self._elements: dict[str, LibraryElement] = {}
        self._digest: str | None = None
        for element in elements:
            self.add(element)

    def add(self, element: LibraryElement) -> None:
        if element.name in self._elements:
            raise LibraryError(f"duplicate element name {element.name!r}")
        self._elements[element.name] = element
        self._digest = None

    @property
    def digest(self) -> str:
        """Order-independent content digest of the elements, computed once.

        The hash of the sorted element digests (the library's name is
        not part of it), so libraries assembled from equal elements by
        different :meth:`union` calls share every cache line.
        """
        if self._digest is None:
            self._digest = content_digest(
                "Library", sorted(e.digest for e in self))
        return self._digest

    def __iter__(self) -> Iterator[LibraryElement]:
        return iter(self._elements.values())

    def __len__(self) -> int:
        return len(self._elements)

    def __contains__(self, name: str) -> bool:
        return name in self._elements

    def get(self, name: str) -> LibraryElement:
        if name not in self._elements:
            raise LibraryError(f"no element named {name!r} in library {self.name}")
        return self._elements[name]

    def from_library(self, tag: str) -> list[LibraryElement]:
        """All elements belonging to a library tag (LM/IH/IPP/REF)."""
        return [e for e in self if e.library == tag]

    def select(self, predicate: Callable[[LibraryElement], bool]) -> list[LibraryElement]:
        """Filtered elements."""
        return [e for e in self if predicate(e)]

    def with_signature(self, arity: int | None = None,
                       n_outputs: int | None = None,
                       max_degree: int | None = None) -> list[LibraryElement]:
        """Signature search used by the mapper to shortlist candidates."""
        out = []
        for element in self:
            if arity is not None and element.arity != arity:
                continue
            if n_outputs is not None and element.n_outputs != n_outputs:
                continue
            if max_degree is not None:
                degree = max(p.total_degree() for p in element.polynomials)
                if degree > max_degree:
                    continue
            out.append(element)
        return out

    def implementations_of(self, function: str) -> list[LibraryElement]:
        """Elements whose name advertises ``function`` (e.g. all four logs)."""
        return [e for e in self if function.lower() in e.name.lower()]

    @classmethod
    def union(cls, *libraries: "Library") -> "Library":
        """Combine libraries (later ones must not collide by name)."""
        name = "+".join(lib.name for lib in libraries)
        combined = cls(name)
        for lib in libraries:
            for element in lib:
                combined.add(element)
        return combined

    def __repr__(self) -> str:
        return f"Library({self.name!r}, {len(self)} elements)"
