"""Independent reference implementations the tests check the library against.

Everything in here is deliberately naive: direct recurrences, brute-force
scans, textbook elimination, bit-at-a-time masking. The library has to
agree with these, never the other way around. Keep this module free of
trishare imports so a bug cannot leak into its own oracle.
"""

import json
from itertools import count

FNV_OFFSET = 14695981039346656037
FNV_PRIME = 1099511628211


def slow_fnv1a64(data: bytes) -> int:
    h = FNV_OFFSET
    for b in data:
        h = ((h ^ b) * FNV_PRIME) % (1 << 64)
    return h


def slow_lcg_states(x0, a, c, m, n):
    """First n successor states of x_{i+1} = (a*x_i + c) mod m."""
    out = []
    x = x0 % m
    for _ in range(n):
        x = (a * x + c) % m
        out.append(x)
    return out


def slow_lcg_bits(x0, a, c, m, n):
    return [s & 1 for s in slow_lcg_states(x0, a, c, m, n)]


def lehmer_window_bits(x0, a, m, start, n):
    """Bits start .. start+n-1 of the c = 0 stream, jumping ahead with pow.

    Bit i of the stream is the parity of state i+1 = x0 * a^(i+1) mod m.
    """
    return slow_lcg_bits(x0 * pow(a, start, m) % m, a, 0, m, n)


def slow_poly_eval(coeffs, x, p):
    """Power-sum evaluation, no Horner."""
    return sum(c * pow(x, i, p) for i, c in enumerate(coeffs)) % p


def brute_inverse(a, p):
    """Scan for the inverse; only sane for small p."""
    a %= p
    for b in range(1, p):
        if (a * b) % p == 1:
            return b
    raise ValueError(f"{a} has no inverse mod {p}")


def gauss_coeffs(points, p):
    """Solve the Vandermonde system for the polynomial through `points`.

    Textbook Gauss-Jordan over Z_p using the stdlib pow(-1) inverse.
    Returns the coefficient tuple (a0, a1, ..., a_{k-1}).
    """
    k = len(points)
    rows = [[pow(x, j, p) for j in range(k)] + [y % p] for x, y in points]
    for col in range(k):
        pivot = next(r for r in range(col, k) if rows[r][col] % p != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = pow(rows[col][col], -1, p)
        rows[col] = [(v * inv) % p for v in rows[col]]
        for r in range(k):
            if r != col and rows[r][col] % p != 0:
                f = rows[r][col]
                rows[r] = [(rv - f * cv) % p for rv, cv in zip(rows[r], rows[col])]
    return tuple(rows[j][k] for j in range(k))


def bytes_to_bits(data):
    """LSB-first within each byte: bit i of the stream is (data[i//8] >> (i%8)) & 1."""
    return [(b >> i) & 1 for b in data for i in range(8)]


def bits_to_bytes(bits):
    assert len(bits) % 8 == 0
    out = bytearray()
    for i in range(0, len(bits), 8):
        out.append(sum(bit << j for j, bit in enumerate(bits[i : i + 8])))
    return bytes(out)


def slow_mask(data, rand4, rep4, rep_period_bits, block_bytes):
    """Bit-at-a-time reference for the two-stream XOR mask.

    rand4/rep4 are (x0, a, c, m) tuples. Stream one contributes a fresh
    bit per data bit; stream two contributes a rep_period_bits pattern
    drawn per block (from a single continuing stream) and tiled across
    that block.
    """
    bits = bytes_to_bits(data)
    n1 = slow_lcg_bits(*rand4, len(bits))

    def rep_gen():
        x0, a, c, m = rep4
        x = x0 % m
        while True:
            x = (a * x + c) % m
            yield x & 1

    rep = rep_gen()
    block_bits = block_bytes * 8
    out = []
    pos = 0
    while pos < len(bits):
        pattern = [next(rep) for _ in range(rep_period_bits)]
        take = min(block_bits, len(bits) - pos)
        for i in range(take):
            out.append(bits[pos + i] ^ n1[pos + i] ^ pattern[i % rep_period_bits])
        pos += take
    return bits_to_bytes(out)


def lcg_period(x0, a, c, m):
    """Length of the cycle the state sequence eventually falls into."""
    seen = {}
    x = x0 % m
    for i in count():
        if x in seen:
            return i - seen[x]
        seen[x] = i
        x = (a * x + c) % m


def slow_policy_json(db):
    """Policy text as json.dumps(indent=2) writes it for the dict schema."""
    doc = {
        "p": db.modulus.p,
        "users": [{"user_id": u.user_id, "user_type": u.user_type.value,
                   "credentials_hex": u.credentials.hex()}
                  for u in sorted(db.users.values(), key=lambda u: u.user_id)],
        "grants": [_grant_dict(g)
                   for g in sorted(db.grants.values(), key=lambda g: g.file_id)],
    }
    return json.dumps(doc, indent=2, sort_keys=False)


def _grant_dict(g):
    return {
        "file_id": g.file_id,
        "owner_id": g.owner_id,
        "server_share": {"x": g.server_share.x, "y": g.server_share.y},
        "consumers": {uid: {"file_id": rec.file_id, "x": rec.x,
                            "y_enc": rec.y_enc, "p": rec.p, "kc": rec.kc,
                            "x_kc": rec.x_kc}
                      for uid, rec in sorted(g.consumer_shares.items())},
        "kc": g.binding.kc,
        "x_kc": g.binding.x_kc,
        "salt_hex": g.salt.hex(),
        "envelope_ref": g.envelope_ref,
    }


def slow_power_decrypt(payload, a, n, width):
    """Power-mode plaintext by brute force over the 256 candidate bytes.

    Each `width`-byte big-endian symbol c is compared with (a - s)^n for
    every s. Returns the plaintext, or the name of the error the first
    bad symbol earns: "SymbolOutOfRange" if c is a perfect n-th power
    (its root maps outside the byte range), else "InexactRoot".
    "LengthMismatch" if the payload is not whole symbols.
    """
    if len(payload) % width:
        return "LengthMismatch"
    candidates = [(a - s) ** n for s in range(256)]
    out = bytearray()
    for i in range(0, len(payload), width):
        c = int.from_bytes(payload[i:i + width], "big")
        for s, cand in enumerate(candidates):
            if cand == c:
                out.append(s)
                break
        else:
            r = _floor_root(c, n)
            return "SymbolOutOfRange" if r ** n == c else "InexactRoot"
    return bytes(out)


def _floor_root(c, n):
    """Largest r with r^n <= c, by bisection."""
    lo, hi = 0, 1 << (c.bit_length() // n + 1)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid ** n <= c:
            lo = mid
        else:
            hi = mid - 1
    return lo
