"""Deterministic 64-bit hashing and mixing.

FNV-1a is the canonical hash for filenames, attribute strings, and
credentials throughout the package: cheap, dependency-free, and stable
across platforms.  It is not collision resistant; nothing here treats it
as more than a deterministic token generator.
"""

_MASK64 = (1 << 64) - 1

FNV_OFFSET_BASIS = 14695981039346656037
FNV_PRIME = 1099511628211


def fnv1a64(data: bytes) -> int:
    """FNV-1a hash of `data`, as an unsigned 64-bit integer."""
    h = FNV_OFFSET_BASIS
    for byte in data:
        h = ((h ^ byte) * FNV_PRIME) & _MASK64
    return h


def mix64(x: int) -> int:
    """Multiply-xor-shift finalizer (splitmix64 style).

    Spreads low-entropy inputs over 64 bits; used to derive keystream
    seeds from cipher keys without storing them.
    """
    z = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def fold64(x: int) -> int:
    """Fold an arbitrarily large non-negative int down to 64 bits by XOR."""
    if x < 0:
        raise ValueError(f"fold64 needs a non-negative int, got {x}")
    v = 0
    while x:
        v ^= x & _MASK64
        x >>= 64
    return v
