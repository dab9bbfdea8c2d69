"""A read-only sequence whose items are made when they are read."""
from __future__ import annotations

import operator
from collections.abc import Callable, Iterator, Sequence
from typing import TypeVar

T = TypeVar("T")


class LazySequence(Sequence[T]):
    """``length`` items, item t being ``make(t)``, made anew on every read
    and never kept, so the sequence holds only what ``make`` refers to.

    Indices follow list rules: a negative one counts from the end, one out
    of range raises IndexError, and a slice returns a list of the items it
    makes. An error raised by ``make`` propagates unchanged, also while
    iterating.
    """

    __slots__ = ("_length", "_make")

    def __init__(self, length: int, make: Callable[[int], T]):
        if length < 0:
            raise ValueError(f"length must be >= 0, got {length}")
        self._length = length
        self._make = make

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._make(t) for t in range(*index.indices(self._length))]
        t = operator.index(index)
        if t < 0:
            t += self._length
        if not 0 <= t < self._length:
            raise IndexError(f"index {index} is outside a sequence of {self._length}")
        return self._make(t)

    def __iter__(self) -> Iterator[T]:
        # Not Sequence's default, which stops at the first IndexError and so
        # would take one raised by ``make`` for the end of the sequence.
        for t in range(self._length):
            yield self._make(t)
