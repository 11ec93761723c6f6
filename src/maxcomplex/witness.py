"""Explicit construction of functions attaining the general bound.

The construction works down from the crossover depth: below it every prefix
gets its own residual, at it the prefixes map onto all nonzero functions of
the remaining arity, and deeper levels inherit fullness automatically.
"""

from __future__ import annotations

from itertools import islice

from .core import (CapacityError, ColoredFunction, InputError, MAX_TABLE_CELLS, code_tables,
                   table_cells)
from .bounds import _tower_profile, power_capped


class NoWitnessError(InputError):
    """No maximal witness exists for these parameters."""


def crossover(b: int, c: int, n: int) -> int:
    """The unique depth where min(b^i, c^(b^(n-i)) - 1) switches sides.

    Returns the least i with b^i >= c^(b^(n-i)) - 1, or n + 1 when there is none:
    then the colors outnumber the words (b^n < c - 1).  It is found with the whole
    bound, so a bound of more than DIGIT_LIMIT decimal digits raises CapacityError.
    """
    if c == 1:
        raise NoWitnessError("c=1 admits only the zero function")
    if b < 1 or n < 0:
        raise InputError(f"bad parameters b={b}, n={n}")
    return _tower_profile(b, c, n)[0]


def nonzero_functions(b: int, c: int, arity: int) -> list[ColoredFunction]:
    """All nonzero functions [b]^arity -> [c] in canonical ascending order.  The
    signature is checked before b**arity is formed, and more than MAX_TABLE_CELLS
    cells over all the functions are refused before any is built."""
    cells = table_cells(b, arity, c)
    total = power_capped(c, cells, MAX_TABLE_CELLS + 2)
    if (total - 1) * cells > MAX_TABLE_CELLS:
        raise CapacityError(f"{total - 1} functions of {cells} cells exceed capacity")
    return [ColoredFunction(b, arity, c, t) for t in islice(code_tables(b, c, arity), 1, None)]


def construct_maximal(b: int, c: int, n: int) -> ColoredFunction:
    """A function whose state complexity equals general_bound(b, c, n).  The result
    is a table of b^n cells, so its size is checked before anything else is built."""
    if c == 1:
        raise NoWitnessError("c=1 admits only the zero function")
    table_cells(b, n, c)
    if b == 1:
        # single word; any nonzero color yields the full chain of n+1 states
        return ColoredFunction(1, n, c, bytes([c - 1]))
    i = crossover(b, c, n)
    if i > n:
        # colors outnumber words: all-distinct nonzero colors is maximal
        return ColoredFunction(b, n, c, bytes(r + 1 for r in range(b**n)))
    if i == 0:
        # only happens for c=2, n=0: accept the empty word
        return ColoredFunction(b, 0, c, bytes([1]))
    k = n - i
    s = c ** (b**k) - 1  # number of nonzero k-ary functions
    blocks = b ** (i - 1)
    parts = list(islice(code_tables(b, c, k), 1, None))
    q, r = divmod(s, b)
    glued = [b"".join(parts[j * b : (j + 1) * b]) for j in range(q)]
    if r:
        # pad the leftover block with copies of the first function
        glued.append(b"".join(parts[q * b : q * b + r] + [parts[0]] * (b - r)))
    used = set(glued)
    assert len(used) == len(glued) <= blocks
    # extend with the canonically earliest unused nonzero (k+1)-ary functions
    unused = (t for t in islice(code_tables(b, c, k + 1), 1, None) if t not in used)
    glued += islice(unused, blocks - len(glued))
    return ColoredFunction(b, n, c, b"".join(glued))
