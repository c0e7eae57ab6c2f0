"""Run-length view of binary strings over the alphabet {a, b}.

The encoding is kept in padded form: a string is read as
``a^{u_1} b^{v_1} a^{u_2} b^{v_2} ... a^{u_r} b^{v_r}`` where every run length
is positive except that ``u_1`` may be zero (string starts with b) and ``v_r``
may be zero (string ends with a). The padding keeps a-runs and b-runs aligned
in pairs, which is what the index construction iterates over.
"""

from __future__ import annotations

import re
from typing import Iterable

__all__ = [
    "InputFormatError",
    "MalformedEncodingError",
    "RunLengthEncoding",
    "encode",
    "decode",
    "rho",
]

# Run lengths are persisted, and swept, as 64-bit unsigned words; reject
# anything that could not round-trip through that representation.
MAX_TEXT_LENGTH = (1 << 64) - 1

_RUN = re.compile(r"a+|b+")


class InputFormatError(ValueError):
    """Raised when input text is not a binary string over the alphabet."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


def _check_letters(s: str, letters: str, offset: int = 0) -> None:
    """Raise InputFormatError at the first character of s that is not one
    of the two ASCII letters, naming it and its index plus offset."""
    # Deleting the two letters leaves nothing from valid text; bytes.translate
    # does that at C speed, so only a rejected text pays for the search.
    if s.isascii() and not s.encode("ascii").translate(None, letters.encode()):
        return
    bad = re.search(f"[^{letters}]", s)
    pos = offset + bad.start()
    raise InputFormatError(
        f"invalid character {bad.group()!r} at index {pos}; "
        f"expected {letters[0]!r} or {letters[1]!r}",
        position=pos,
    )


class MalformedEncodingError(ValueError):
    """Raised when run lengths violate the padded-encoding invariants."""


def _integral(v) -> int | None:
    """A count given as another numeric type (numpy integer, 3.0,
    Fraction(3), True) as the int it equals, or None when it is not
    integral. Text is refused: ``"%d" % 1`` would format, not test."""
    if isinstance(v, (str, bytes, bytearray)):
        raise TypeError(f"a count must be a number, not {type(v).__name__}")
    return None if v % 1 else int(v)


def _count(v, name: str, error: type[ValueError] = ValueError) -> int:
    """The count v as an int: an int as it is, an integral value of another
    numeric type as the int it equals. A value that is not integral raises
    ``error``, naming v as a ``name``; text raises TypeError."""
    if type(v) is int:
        return v
    count = _integral(v)
    if count is None:
        raise error(f"{name} {v} is not an integer")
    return count


class _Record:
    """Base of the package's value classes, written out by hand because
    importing ``dataclasses`` would cost every command-line start about
    10 ms. ``_fields`` names the attributes a repr shows, in order; the
    first ``_compared`` of them (all, when None) decide equality and the
    hash. Instances are frozen: their constructors fill ``__dict__``
    directly, and assigning or deleting an attribute raises
    AttributeError."""

    _fields: tuple[str, ...] = ()
    _compared: int | None = None

    def _key(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields[: self._compared])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class RunLengthEncoding(_Record):
    """Padded run lengths of a binary string.

    ``a_runs`` and ``b_runs`` have equal length r; entry i of each gives the
    i-th a-run and b-run. All entries are positive except possibly
    ``a_runs[0]`` and ``b_runs[-1]``.
    """

    _fields = ("a_runs", "b_runs")

    def __init__(self, a_runs: Iterable[int], b_runs: Iterable[int]):
        a = tuple(_count(u, "a-run", MalformedEncodingError) for u in a_runs)
        b = tuple(_count(v, "b-run", MalformedEncodingError) for v in b_runs)
        if len(a) != len(b):
            raise MalformedEncodingError(
                f"a_runs and b_runs must pair up ({len(a)} vs {len(b)} entries)"
            )
        if any(u < 0 for u in a) or any(v < 0 for v in b):
            raise MalformedEncodingError("run lengths must be non-negative")
        if any(u == 0 for u in a[1:]):
            raise MalformedEncodingError("interior a-run of length zero")
        if any(v == 0 for v in b[:-1]):
            raise MalformedEncodingError("interior b-run of length zero")
        if sum(a) + sum(b) > MAX_TEXT_LENGTH:
            raise MalformedEncodingError("run lengths exceed the 64-bit length limit")
        self.__dict__.update(a_runs=a, b_runs=b)

    @classmethod
    def _of(cls, a_runs: tuple[int, ...], b_runs: tuple[int, ...]) -> RunLengthEncoding:
        """The encoding with these run tuples, unchecked: two equally long
        tuples of ints that the constructor would accept."""
        self = cls.__new__(cls)
        self.__dict__.update(a_runs=a_runs, b_runs=b_runs)
        return self

    @property
    def pairs(self) -> int:
        """Number of (a-run, b-run) pairs, r."""
        return len(self.a_runs)

    @property
    def total_a(self) -> int:
        return sum(self.a_runs)

    @property
    def total_b(self) -> int:
        return sum(self.b_runs)


def encode(s: str) -> RunLengthEncoding:
    """Encode a binary string into padded run lengths.

    Raises InputFormatError for any character outside {a, b}, naming the
    first offending position.
    """
    _check_letters(s, "ab")
    # Runs alternate letters, so after padding the a-runs and b-runs take
    # turns starting with an a-run.
    lengths = list(map(len, _RUN.findall(s)))
    if s.startswith("b"):
        lengths.insert(0, 0)
    if len(lengths) % 2:
        lengths.append(0)  # string ends with a
    # Valid by construction, so the constructor's checks are skipped.
    return RunLengthEncoding._of(tuple(lengths[0::2]), tuple(lengths[1::2]))


def decode(rle: RunLengthEncoding) -> str:
    """Expand run lengths back into the string they encode."""
    parts: list[str] = []
    for u, v in zip(rle.a_runs, rle.b_runs):
        if u:
            parts.append("a" * u)
        if v:
            parts.append("b" * v)
    return "".join(parts)


def rho(rle: RunLengthEncoding) -> int:
    """Number of non-zero run entries (the compressed size of the string)."""
    count = sum(1 for u in rle.a_runs if u)
    count += sum(1 for v in rle.b_runs if v)
    return count
