"""Core value types: words, bounded-length colored functions, and predicates.

A colored function f: [b]^n -> [c] assigns one of c colors to every word of
length exactly n over the alphabet [b] = {0, .., b-1}.  Color 0 means
"reject"; the binary case c=2 identifies f with the language {w : f(w)=1}.
Tables are indexed by word rank (most-significant-digit-first base-b value),
so fixing a prefix is a contiguous slice of the table.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from itertools import compress, product
from typing import Iterable, Iterator, Sequence, Union

Word = tuple[int, ...]
WordLike = Union[str, Sequence[int]]

# Tables are bytes, one cell per word; big instances must stay desk-sized.
MAX_TABLE_CELLS = 1 << 22
MAX_COLORS = 256
# The most decimal digits of a bound (`bounds._profile`) or a count (`counting.o_i`).
DIGIT_LIMIT = 10**6
# The default node budget of every embedding search, and of `lattice search`.
SEARCH_BUDGET = 10**8
# The built-in embedding catalog of `lattice.named_embedding`, listed here so
# that the CLI can offer the names without importing `lattice`.
EMBEDDING_NAMES = ("post_alh", "fig39", "both_restricted", "alh", "small", "friday")
# Binary tables <-> digit strings, character r being cell r.
_FROM_DIGITS, _TO_DIGITS = bytes.maketrans(b"01", b"\0\1"), bytes.maketrans(b"\0\1", b"01")


class Value:
    """Base of the immutable value classes.  A subclass lists its fields in
    `__slots__`, checks its arguments in its own `__init__`, then sets the
    fields and `_key`, the tuple of the fields in slot order, through `_set`.
    Equality is same type and same `_key`, the hash is that of `_key`, and
    fields can be neither assigned nor deleted.  Why the classes are written
    out: notes/decisions.md, "Value classes are written out".

    `_memo` is no field: a module may keep there, with `object.__setattr__`,
    what it derived from the fields (`minauto` keeps a function's depth
    counts).  `_key`, equality, hash, `repr`, copies and pickles leave it
    out, so it lives and dies with the one object."""

    __slots__ = ("_key", "_memo")

    def _set(self, *values):
        """Set the fields, given in slot order, and `_key`.  The two hot
        constructors below write this out with the same calls."""
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_key", values)

    def __eq__(self, other):
        if type(other) is type(self):
            return self._key == other._key
        return NotImplemented

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._key))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._key

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class MaxcomplexError(Exception):
    """Base of the library's errors: the CLI exits with `exit_code` and
    writes the message to stderr after `prefix`."""

    exit_code, prefix = 1, "error"


class InputError(MaxcomplexError, ValueError):
    """An argument violates a structural precondition."""


class MismatchError(MaxcomplexError, RuntimeError):
    """A verification cross-check failed."""

    exit_code, prefix = 2, "verification mismatch"


class CapacityError(MaxcomplexError, RuntimeError):
    """The request would exceed the configured in-memory limits."""

    exit_code, prefix = 3, "capacity"


class ExhaustedError(MaxcomplexError, RuntimeError):
    """A search ran out of budget."""

    exit_code, prefix = 4, "exhausted"


def as_word(word: WordLike) -> Word:
    """Coerce a digit string like "101" or an int sequence to a Word tuple.
    A string may hold only the ASCII digits 0-9, a sequence only integers."""
    if isinstance(word, str):
        if word and not (word.isascii() and word.isdigit()):
            bad = next(ch for ch in word if ch not in "0123456789")
            raise InputError(f"character {bad!r} in word {word!r} is not a digit 0-9")
        return tuple(int(ch) for ch in word)
    try:
        return tuple(map(operator.index, word))
    except TypeError:
        bad = next(d for d in word if not hasattr(type(d), "__index__"))
        raise InputError(f"digit {bad!r} in word {word!r} is not an integer") from None


def rank(word: WordLike, b: int) -> int:
    """Rank of a word among all words of its length, MSD-first base b.

    Bijective between [b]^len and [b^len]; preserves lexicographic order.
    """
    if b < 1:
        raise InputError(f"alphabet size must be >= 1, got {b}")
    value = 0
    for d in as_word(word):
        if not 0 <= d < b:
            raise InputError(f"digit {d} out of range for alphabet size {b}")
        value = value * b + d
    return value


def unrank(index: int, length: int, b: int) -> Word:
    """Inverse of rank for words of the given length.  For b >= 2, an index shorter
    than length bits is in range, so b**length is formed only for a shorter length."""
    if b < 1 or length < 0 or index < 0 or (
            (b == 1 or length < index.bit_length()) and index >= b**length):
        raise InputError(f"index {index} out of range for length {length}, b={b}")
    digits = [0] * length
    for pos in range(length - 1, -1, -1):
        index, digits[pos] = divmod(index, b)
    return tuple(digits)


def code_tables(b: int, c: int, length: int) -> Iterator[bytes]:
    """Every table [b]^length -> [c] in code order: table k is bytes(unrank(k,
    b**length, c)), as `product` varies its last cell fastest."""
    return map(bytes, product(range(c), repeat=b**length))


@lru_cache(maxsize=None)
def var_mask(n: int, position: int) -> int:
    """Bitmask over [2]^n ranks: bit r set iff digit `position` of word r is 1.

    Position 0 is the first (leftmost, most significant) symbol.  The mask is
    blocks of `place` zeros then `place` ones, repeated: one block pair, doubled.
    """
    cells = table_cells(2, n, 2)
    place = 1 << (n - 1 - position)
    mask, width = ((1 << place) - 1) << place, 2 * place
    while width < cells:
        mask |= mask << width
        width *= 2
    return mask


def table_cells(b: int, n: int, c: int) -> int:
    """Cell count b^n of a [b]^n -> [c] table, checked before any allocation
    (and, when n alone is too large, before b**n is computed)."""
    if b < 1 or c < 1 or n < 0:
        raise InputError(f"bad signature b={b}, n={n}, c={c}")
    if c > MAX_COLORS:
        raise CapacityError(f"at most {MAX_COLORS} colors supported")
    if n > MAX_TABLE_CELLS:  # one cell still means n-digit words and n + 1 residual levels
        raise CapacityError(f"arity {n} exceeds capacity {MAX_TABLE_CELLS}")
    if (b > 1 and n > MAX_TABLE_CELLS.bit_length()) or b**n > MAX_TABLE_CELLS:
        raise CapacityError(f"table of {b}^{n} cells exceeds capacity")
    return b**n


class ColoredFunction(Value):
    """Total map [b]^n -> [c], stored as a dense rank-indexed `bytes` table, one
    cell per word; b, n and c are ints."""

    __slots__ = ("b", "n", "c", "table")

    def __init__(self, b: int, n: int, c: int, table: bytes):
        if not (isinstance(b, int) and isinstance(n, int) and isinstance(c, int)):
            raise InputError(f"b, n and c must be ints, got b={b!r}, n={n!r}, c={c!r}")
        if not isinstance(table, bytes):
            raise InputError(f"table must be bytes, not {type(table).__name__}")
        cells = table_cells(b, n, c)
        if len(table) != cells:
            raise InputError(f"table length {len(table)} != b^n = {cells}")
        # empty, and no copy, iff every cell is below c; every byte is a color at c = 256
        if c < MAX_COLORS and table.strip(bytes(range(c))):
            raise InputError(f"table entry out of color range [{c}]")
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "_key", (b, n, c, table))

    @classmethod
    def from_values(cls, b: int, n: int, c: int, values: Iterable[int]) -> "ColoredFunction":
        return cls(b, n, c, bytes(values))

    @classmethod
    def from_words(cls, b: int, n: int, c: int, colored: dict[Word, int]) -> "ColoredFunction":
        """Build from a word -> color mapping; unlisted words get color 0."""
        table = bytearray(table_cells(b, n, c))
        for word, color in colored.items():
            if len(word) != n:
                raise InputError(f"word {word} does not have length {n}")
            if not 0 <= color < c:
                raise InputError(f"color {color} out of range [{c}]")
            table[rank(word, b)] = color
        return cls(b, n, c, bytes(table))

    @classmethod
    def from_language(cls, n: int, words: Iterable[WordLike]) -> "ColoredFunction":
        """Binary language over {0,1}^n."""
        return cls.from_words(2, n, 2, {as_word(w): 1 for w in words})

    @classmethod
    def from_mask(cls, n: int, mask: int) -> "ColoredFunction":
        """Binary language from a 2^n-bit mask, bit r = membership of rank r."""
        cells = table_cells(2, n, 2)
        if mask < 0 or mask.bit_length() > cells:
            raise InputError(f"mask out of range for n = {n}")
        return cls(2, n, 2, format(mask, f"0{cells}b")[::-1].encode().translate(_FROM_DIGITS))

    @property
    def mask(self) -> int:
        """2^n-bit membership mask; only defined for b=2, c=2."""
        if self.b != 2 or self.c != 2:
            raise InputError("mask view requires b=2, c=2")
        return int(self.table[::-1].translate(_TO_DIGITS), 2)

    def value(self, word: WordLike) -> int:
        w = as_word(word)
        if len(w) != self.n:
            raise InputError(f"word length {len(w)} != n = {self.n}")
        return self.table[rank(w, self.b)]

    def support(self) -> list[Word]:
        """All words with nonzero color, in rank order."""
        return [unrank(r, self.n, self.b) for r in compress(range(len(self.table)), self.table)]


def is_zero(f: ColoredFunction) -> bool:
    """True iff f is the constant-0 function (the empty language)."""
    return f.table == bytes(len(f.table))


def residual(f: ColoredFunction, prefix: WordLike) -> ColoredFunction:
    """The function x -> f(prefix . x) on [b]^(n-k) for a length-k prefix."""
    p = as_word(prefix)
    k = len(p)
    if k > f.n:
        raise InputError(f"prefix length {k} exceeds n = {f.n}")
    span = f.b ** (f.n - k)
    offset = rank(p, f.b) * span
    return ColoredFunction(f.b, f.n - k, f.c, f.table[offset : offset + span])


def is_monotone(f: ColoredFunction) -> bool:
    """True iff flipping any input bit from 0 to 1 never decreases f (b=c=2)."""
    if f.b != 2 or f.c != 2:
        raise InputError("is_monotone requires b=2, c=2")
    return _mask_is_monotone(f.n, f.mask)


def is_early(f: ColoredFunction) -> bool:
    """True iff moving a lone 1 to an earlier free position preserves acceptance.

    Formally: for all positions i < j and words y with y(i)=y(j)=0,
    f(y+e_j)=1 implies f(y+e_i)=1.  Position 0 is the first input symbol.
    """
    if f.b != 2 or f.c != 2:
        raise InputError("is_early requires b=2, c=2")
    return _mask_is_early(f.n, f.mask)


def _full_mask(n: int, mask: int) -> int:
    """The 2^n-bit all-ones mask, once n passes `table_cells` and mask lies inside it."""
    full = (1 << table_cells(2, n, 2)) - 1
    if not 0 <= mask <= full:
        raise InputError("mask out of range")
    return full


def _mask_is_monotone(n: int, mask: int) -> bool:
    _full_mask(n, mask)
    return upward_closure_mask(n, mask) == mask


def _mask_is_early(n: int, mask: int) -> bool:
    full = _full_mask(n, mask)
    for i in range(n):
        for j in range(i + 1, n):
            sel = var_mask(n, j) & ~var_mask(n, i)  # digit i = 0, digit j = 1
            delta = (1 << (n - 1 - i)) - (1 << (n - 1 - j))
            if ((mask & sel) << delta) & ~mask & full:
                return False
    return True


def upward_closure_mask(n: int, mask: int) -> int:
    """Mask of all words pointwise above some member of the given language."""
    closed = mask
    for pos in range(n):
        ones = var_mask(n, pos)
        place = 1 << (n - 1 - pos)
        closed |= (closed & ~ones) << place
    return closed


class MonotoneFunction(Value):
    """Upward-closed subset of the Boolean cube {0,1}^n as a 2^n-bit mask."""

    __slots__ = ("n", "mask")

    def __init__(self, n: int, mask: int):
        if not _mask_is_monotone(n, mask):
            raise InputError("mask is not upward closed")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "_key", (n, mask))

    def as_colored(self) -> ColoredFunction:
        return ColoredFunction.from_mask(self.n, self.mask)

    def leq(self, other: "MonotoneFunction") -> bool:
        if self.n != other.n:
            raise InputError("arity mismatch")
        return self.mask & ~other.mask == 0
