"""
Lehmer keystreams and the two-stream XOR mask
=============================================

Before any substitution cipher runs, plaintext is XOR-masked with
K = N1 xor N2: N1 is a fresh bit per position from the Rand stream, N2 a
64-bit pattern from the Rep stream, redrawn every block and tiled across
it.  Each stream emits the parity of successive LCG states.
"""

from trishare import (CipherKey, InvalidParams, MaskSchedule, Mode,
                      mask_schedule_for_key, xor_mask)

# One LCG step, X1 = (a * X0 + c) mod m, on the worked-example numbers
# X0 = 9741, a = 1674, c = 1234, m = 231: the first state is 223, odd,
# so the first emitted parity bit is 1.
first = (1674 * 9741 + 1234) % 231
print(f"worked-example first state: {first}, first bit: {first & 1}")
assert first == 223

# Parity extraction has a sharp edge: with a power-of-two modulus and an
# odd increment (here glibc's a = 1103515245, c = 12345, m = 2^31) the
# state parity flips on every step, so the stream is 0101...
x, bits = 12345, []
for _ in range(16):
    x = (1103515245 * x + 12345) % (1 << 31)
    bits.append(x & 1)
print(f"power-of-two LCG, bits:      {bits}")
assert bits == [(bits[0] + i) % 2 for i in range(16)]

# The mask therefore uses two Lehmer generators mod the prime 2^31 - 1
# (c = 0, minstd multipliers 48271 and 16807).  Their start states are
# derived from the cipher key; nothing about them is stored.
key = CipherKey(a=1000, n=2, mode=Mode.POWER)
schedule = mask_schedule_for_key(key)
print(f"\nkey-derived start states: Rand {schedule.rand_x0}, Rep {schedule.rep_x0}, "
      f"block {schedule.block_bytes} B")

# Mask a constant plaintext; the mask structure shows through because
# the input carries no entropy.
plain = bytes(32)
masked = xor_mask(plain, schedule)
print(f"all-zero input  : {plain.hex()}")
print(f"masked output   : {masked.hex()}")
print(f"masked twice    : {xor_mask(masked, schedule).hex()}  (involution)")

# An envelope header carries the block size, and opening rebuilds the
# schedule from the key and that size.  The 64-bit Rep pattern must tile
# a block, so a block that is not a multiple of 8 bytes is refused.
small = mask_schedule_for_key(key, block_bytes=8)
body = b"two streams, one mask"
assert xor_mask(xor_mask(body, small), small) == body
assert xor_mask(body, small) != xor_mask(body, schedule)
try:
    MaskSchedule(rand_x0=schedule.rand_x0, rep_x0=schedule.rep_x0, block_bytes=100)
except InvalidParams as exc:
    print(f"\n100-byte blocks refused: {exc}")
print("8-byte-block mask round-trips: ok")
