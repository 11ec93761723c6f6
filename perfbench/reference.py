"""Reference values and small independent re-implementations for output checks.

Nothing here imports maxcomplex: the benchmark checks the program against
the paper's published constants and against these direct (slow but simple)
computations, never against the code under test.
"""

from __future__ import annotations

from itertools import product
from math import comb

# Monotone-bound table of the paper, n = 0..10.
MONOTONE_BOUNDS = (1, 2, 4, 6, 10, 15, 23, 39, 58, 90, 154)
# Monotone Boolean functions of k variables (Dedekind numbers), k = 0..6.
DEDEKIND = (2, 3, 6, 20, 168, 7581, 7828354)
# Complete simple games of k players, zero included, k = 0..6.
CSG_COUNTS = (2, 3, 5, 10, 27, 119, 1173)
# Early functions of k variables, k = 0..5.  The arity-4 value is the one
# the earliness definition gives (an exhaustive scan of all 65,536
# functions); the reference list of the paper prints 700 there.
EARLY_COUNTS = (2, 4, 12, 64, 800, 36864)
# Maximal-complexity binary languages: 60 at n = 3 (paper table); 27,720 at
# n = 4 (exhaustive scan of all 65,536 languages with residual_profile).
BRUTE_MAX_COUNTS = {(2, 2, 3): 60, (2, 2, 4): 27720}
# The arity-8 game chain attains 47.
CSG_WITNESS_8 = 47
# Shapes (i, j) of the built-in catalog embeddings 2^i -> F_j^-.
CATALOG_SHAPES = {
    "post_alh": (2, 3), "fig39": (4, 3), "both_restricted": (3, 3),
    "alh": (4, 4), "small": (5, 4), "friday": (6, 4),
}


def general_bound(b: int, c: int, n: int) -> int:
    """Sum over depths i of min(b^i, c^(b^(n-i)) - 1)."""
    total = 0
    for i in range(n + 1):
        words = b ** (n - i)
        prefixes = b**i
        # c^words - 1 >= 2^words - 1 exceeds every prefix count once words is large
        if c >= 2 and words > prefixes.bit_length() + 1:
            total += prefixes
        else:
            total += min(prefixes, c**words - 1)
    return total


def complete_dfa_bound(k: int, n: int) -> tuple[int, int]:
    """(r, bound) of the tight bound for complete automata over k letters."""
    r = next(m for m in range(n + 1)
             if k**m >= 2 ** (k ** (n - m)) - 1)
    bound = (k**r - 1) // (k - 1) + sum(2 ** (k**j) - 1 for j in range(n - r + 1)) + 1
    return r, bound


def _table_bound(n: int, counts: tuple) -> int:
    total = 0
    for i in range(n + 1):
        k = n - i
        if k < len(counts):
            total += min(2**i, counts[k] - 1)
        elif 2**i <= counts[-1] - 1:
            total += 2**i  # counts grow with arity
        else:
            raise ValueError(f"no reference count for arity {k}")
    return total


def monotone_bound(n: int) -> int:
    return _table_bound(n, DEDEKIND)


def csg_bound(n: int) -> int:
    return _table_bound(n, CSG_COUNTS)


def residual_profile(b: int, n: int, table: bytes) -> list[int]:
    """Distinct nonzero residuals at each prefix length 0..n ([] for zero)."""
    if not any(table):
        return []
    out = []
    for depth in range(n + 1):
        span = b ** (n - depth)
        pieces = {table[r * span:(r + 1) * span] for r in range(b**depth)}
        pieces.discard(bytes(span))
        out.append(len(pieces))
    return out


def count_max(b: int, c: int, n: int) -> tuple[int, int]:
    """(crossover i, number of maximal functions) by inclusion-exclusion."""
    i = next(i for i in range(n + 1) if b**i >= c ** (b ** (n - i)) - 1)
    if i == 0:
        return 0, 1
    codomain = c ** (b ** (n - i))
    blocks = b ** (i - 1)
    total = 0
    for j in range(codomain):
        injective = 1
        choices = (codomain - j) ** b - 1
        for t in range(blocks):
            injective *= choices - t
        total += (-1) ** j * comb(codomain - 1, j) * injective
    return i, total


def brute_max_count(b: int, c: int, n: int) -> int:
    """Maximal-complexity functions by scanning every table (tiny spaces only)."""
    bound = general_bound(b, c, n)
    return sum(1 for cells in product(range(c), repeat=b**n)
               if sum(residual_profile(b, n, bytes(cells))) == bound)


def rank(word, b: int) -> int:
    value = 0
    for d in word:
        value = value * b + d
    return value


def word(r: int, n: int, b: int) -> tuple:
    digits = []
    for _ in range(n):
        r, d = divmod(r, b)
        digits.append(d)
    return tuple(reversed(digits))


def format_language(b: int, c: int, n: int, table: bytes) -> str:
    """Language-file text written without the program's formatter."""
    lines = [f"b={b} c={c} n={n}"]
    for r, color in enumerate(table):
        if color:
            token = "".join(map(str, word(r, n, b))) or "-"
            lines.append(token if color == 1 else f"{token} {color}")
    return "\n".join(lines) + "\n"


def parse_language(text: str) -> tuple[int, int, int, bytes]:
    """(b, c, n, table) of a language file that carries a header line."""
    header = None
    table = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if header is None:
            header = dict(part.split("=") for part in line.split())
            b, c, n = (int(header[k]) for k in "bcn")
            table = bytearray(b**n)
            continue
        fields = line.split()
        token = () if fields[0] == "-" else tuple(int(ch) for ch in fields[0])
        table[rank(token, b)] = int(fields[1]) if len(fields) > 1 else 1
    return b, c, n, bytes(table)


def cube_leq(x: int, y: int) -> bool:
    return x & ~y == 0


def majorization_leq(n: int, x: int, y: int) -> bool:
    """Prefix-sum domination of rank-encoded binary words (first symbol high)."""
    sx = sy = 0
    for pos in range(n - 1, -1, -1):
        sx += (x >> pos) & 1
        sy += (y >> pos) & 1
        if sx > sy:
            return False
    return True


def is_monotone_mask(n: int, mask: int) -> bool:
    members = [r for r in range(1 << n) if (mask >> r) & 1]
    return all((mask >> (r | (1 << p))) & 1 for r in members for p in range(n))


def is_early_mask(n: int, mask: int) -> bool:
    """Moving a lone 1 to an earlier free position keeps acceptance."""
    for r in range(1 << n):
        if not (mask >> r) & 1:
            continue
        for j in range(n):          # bit of the later position (0 = last symbol)
            if not (r >> j) & 1:
                continue
            for i in range(j + 1, n):  # an earlier, free position
                if not (r >> i) & 1 and not (mask >> (r ^ (1 << j) ^ (1 << i))) & 1:
                    return False
    return True


def nonzero_monotone(k: int) -> list[int]:
    """Nonzero monotone masks of k <= 3 variables, by direct scan."""
    return [m for m in range(1, 1 << (1 << k)) if is_monotone_mask(k, m)]


def check_embedding(i: int, j: int, image: tuple, leq=cube_leq) -> str | None:
    """Why the map 2^i -> F_j^- fails to be an adequate embedding, or None.

    Checks injectivity, order preservation and that the first-variable
    substitutions cover every nonzero monotone (j-1)-ary function (j <= 4).
    """
    if len(image) != 1 << i or len(set(image)) != len(image):
        return "not injective or not total"
    for x in range(1 << i):
        for y in range(1 << i):
            if leq(x, y) and image[x] & ~image[y]:
                return f"order broken at {x} <= {y}"
    half = 1 << (j - 1)
    subs = {m & ((1 << half) - 1) for m in image} | {m >> half for m in image}
    missing = set(nonzero_monotone(j - 1)) - subs
    if missing:
        return f"substitutions miss {len(missing)} functions"
    if not all(is_monotone_mask(j, m) and m for m in image):
        return "image leaves the nonzero monotone lattice"
    return None
