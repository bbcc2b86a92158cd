"""
Benchmarks and the storage-overhead model
=========================================

The bench module re-checks the pinned worked example, times seal/open
and split/reconstruct, and tabulates closed-form storage costs against
two published baselines.  Each function returns the JSON document that
`trishare verify-example --json` or `trishare bench ... --json` prints.
"""

from trishare.bench import (
    ATTRS_CSV_HEADER,
    ENCRYPT_CSV_HEADER,
    bench_attributes,
    bench_encrypt,
    csv_text,
    example_lines,
    storage_lines,
    storage_overhead_report,
    verify_reference_example,
)

# Eight pinned assertions: six share points, the secret, the
# coefficient vector.  Any drift raises ExampleMismatch.
for line in example_lines(verify_reference_example()):
    print(line)

# Seal/open throughput over a few sizes (medians of 5 reps).
print("\nencrypt bench (additive):")
enc = bench_encrypt(sizes=(5 * 1024, 10 * 1024, 20 * 1024), reps=5)
print(csv_text(ENCRYPT_CSV_HEADER, enc["rows"]).rstrip())

# Split/reconstruct as the threshold k grows, with a linear fit on the
# split times.
print("\nattribute bench:")
attrs = bench_attributes(k_values=(3, 5, 9, 13), n_users=16, reps=5)
print(csv_text(ATTRS_CSV_HEADER, attrs["rows"]).rstrip())
fit = attrs["split_fit"]
print(f"split fit: slope {fit['slope']:.3e} s/k, "
      f"residual {fit['residual']:.3e} s")

# Storage formulas: (n+1)|p| per user here versus the baselines, plus
# actual measured JSON sizes from a real in-memory grant.
print("\nstorage overhead:")
for line in storage_lines(storage_overhead_report()):
    print(line)
