"""
Sealing files with the involution cipher
========================================

Two exact modes share one shape: encryption maps each (masked) byte s
to (a - s) in additive mode, or to the big integer (a - s)^n in power
mode.  Both are their own inverse over the symbol domain, so the same
table decrypts.
"""

from trishare import (
    CipherKey,
    Mode,
    decode_envelope,
    derive_file_key,
    encode_envelope,
    encrypt_bytes,
    decrypt_bytes,
    open_file,
    seal_file,
    symbol_width,
)

# --- raw involution, additive mode ------------------------------------
key = CipherKey(a=44)
print(f"additive a=44: byte 65 -> {encrypt_bytes(bytes([65]), key)[0]}")
print(f"decrypting 235 -> {decrypt_bytes(bytes([235]), key)[0]}")

# Applying the cipher twice is the identity; that is the involution.
data = bytes(range(256))
assert encrypt_bytes(encrypt_bytes(data, key), key) == data
print("double-encrypt is the identity: ok")

# --- raw involution, power mode ---------------------------------------
pkey = CipherKey(a=1000, n=2, mode=Mode.POWER)
payload = encrypt_bytes(bytes([65]), pkey)
print(f"\npower a=1000 n=2: byte 65 -> (1000-65)^2 = "
      f"{int.from_bytes(payload, 'big')}")
print(f"symbol width: {symbol_width(pkey)} bytes per plaintext byte")

# --- sealed envelopes -------------------------------------------------
# seal_file masks with a key-derived schedule, applies the involution,
# and wraps everything in a self-describing 20-byte header.
body = b"minutes of the tuesday meeting\n" * 40
envelope = seal_file(body, pkey)
blob = encode_envelope(envelope)
print(f"\nsealed {len(body)} B -> envelope {len(blob)} B "
      f"(header 20 + {len(envelope.payload)} payload)")

# The header carries mode, n, symbol width, block size, and length;
# the reader needs only the key value a.
recovered = open_file(decode_envelope(blob), CipherKey(a=1000, n=2, mode=Mode.POWER))
assert recovered == body
print("opened from the wire form: ok")

# --- per-file keys ----------------------------------------------------
# A master secret never touches a file directly: each file gets
# a = master xor fnv1a64(filename), so renames change the key.
master = 0x0123_4567_89AB_CDEF
k1 = derive_file_key(master, b"q3-report.pdf")
k2 = derive_file_key(master, b"q4-report.pdf")
print(f"\nfile keys differ per name: {k1.a != k2.a} "
      f"({k1.a:#x} vs {k2.a:#x})")
env = seal_file(body, k1)
assert open_file(env, derive_file_key(master, b"q3-report.pdf")) == body
print("master + filename re-derives the key: ok")
