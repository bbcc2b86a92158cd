"""Benchmarks, the pinned worked example, and storage-overhead models.

Timing uses the monotonic clock, discards one warm-up run, and reports
medians of at least five repetitions.  Throughput is computed from the
measured encryption time (plaintext size / encrypt seconds), never
measured independently, so reported rows are internally consistent.

Each benchmark returns the plain dict that `trishare verify-example
--json` or `trishare bench ... --json` prints; `csv_text`,
`example_lines` and `storage_lines` render those documents as text.
"""

from __future__ import annotations

import platform
import random
import statistics
import sys
import tempfile
import time
from dataclasses import asdict, dataclass
from typing import Callable, List, Sequence, Tuple

from .authz import grant_access, register_user
from .cipher import Mode, derive_file_key, open_file, seal_file
from .errors import Error
from .field import FieldModulus, default_modulus
from .interpolate import ReconstructionInput, reconstruct_polynomial, reconstruct_secret
from .policy import PolicyDb, UserRecord, UserType, _grant_json
from .sharing import SharePoint, split_secret
from .storage import ObjectStore

MIN_REPS = 5


class ExampleMismatch(Error):
    """A pinned worked-example assertion failed."""


# Pinned worked-example constants: F(X) = 1234 + 166 X + 94 X^2 over the
# default modulus, six issued points, reconstruction from x = 2, 4, 5.
EXAMPLE_SECRET = 1234
EXAMPLE_COEFFS = (166, 94)
EXAMPLE_N_POINTS = 6
EXAMPLE_POINTS = ((1, 1494), (2, 1942), (3, 2578), (4, 3402), (5, 4414), (6, 5614))
EXAMPLE_RECONSTRUCTION_XS = (2, 4, 5)


def verify_reference_example(modulus: "FieldModulus | None" = None) -> dict:
    """Check the pinned split/reconstruct example end to end.

    Returns {"p", "passed", "assertions"}, each assertion a {"name",
    "expected", "actual", "ok"} dict.  Raises ExampleMismatch at the
    first failing assertion, so a returned document always passed.
    Running under a small modulus fails by design: the pinned values
    exceed p and wrap.
    """
    if modulus is None:
        modulus = default_modulus()
    assertions = []

    def check(name: str, expected, actual) -> None:
        if expected != actual:
            raise ExampleMismatch(
                f"{name}: expected {expected}, got {actual} (p={modulus.p})")
        assertions.append({"name": name, "expected": expected,
                           "actual": actual, "ok": True})

    try:
        shares = split_secret(EXAMPLE_SECRET, EXAMPLE_COEFFS, EXAMPLE_N_POINTS,
                              modulus)
    except Error as exc:
        raise ExampleMismatch(f"split failed under p={modulus.p}: {exc}") from exc

    for (x, y), share in zip(EXAMPLE_POINTS, shares):
        check(f"point x={x}", y, share.y)

    pts = tuple(SharePoint(x=x, y=y, modulus=modulus)
                for x, y in EXAMPLE_POINTS if x in EXAMPLE_RECONSTRUCTION_XS)
    inp = ReconstructionInput(pts)
    check("reconstructed secret", EXAMPLE_SECRET, reconstruct_secret(inp))
    poly = reconstruct_polynomial(inp)
    check("reconstructed coefficients",
          (EXAMPLE_SECRET, *EXAMPLE_COEFFS), poly.coeffs)
    return {"p": modulus.p, "passed": True, "assertions": assertions}


def example_lines(doc: dict) -> List[str]:
    """verify_reference_example's document as text, one line per assertion."""
    return [f"ok       {a['name']}: expected {a['expected']}, got {a['actual']}"
            for a in doc["assertions"]] + [
        f"PASS with {len(doc['assertions'])} assertions"]


# ---------------------------------------------------------------------------
# Timing helpers
# ---------------------------------------------------------------------------

def _median_seconds(fn: Callable[[], object], reps: int) -> float:
    """Median wall time of `reps` calls, after one discarded warm-up."""
    fn()
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def _fit(xs: Sequence[float], ys: Sequence[float]) -> Tuple[float, float]:
    """Least-squares line through (xs, ys): (slope, intercept)."""
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    num = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    den = sum((x - mean_x) ** 2 for x in xs)
    slope = num / den
    return slope, mean_y - slope * mean_x


def csv_text(header: str, rows: Sequence[dict]) -> str:
    """CSV text: the header, then one line per row dict in header order.
    Numbers are written by repr (exact for floats); None is written NA."""
    columns = header.split(",")
    lines = [header] + [
        ",".join("NA" if row[c] is None else repr(row[c]) for c in columns)
        for row in rows]
    return "\n".join(lines) + "\n"


def _environment_note() -> str:
    return f"{platform.platform()} / Python {sys.version.split()[0]}"


# ---------------------------------------------------------------------------
# Encryption benchmark
# ---------------------------------------------------------------------------

DEFAULT_BENCH_SIZES = tuple(kb * 1024 for kb in (5, 10, 15, 20, 25, 30))

ENCRYPT_CSV_HEADER = "size_bytes,cipher_bytes,encrypt_s,decrypt_s,throughput_kbps"


def bench_encrypt(sizes: Sequence[int] = DEFAULT_BENCH_SIZES,
                  mode: Mode = Mode.ADDITIVE, n: int = 1,
                  reps: int = MIN_REPS, seed: int = 0xC0FFEE) -> dict:
    """Seal/open timing over random corpora of the given sizes.

    Returns {"mode", "reps", "environment", "rows"}, one row per size
    with ENCRYPT_CSV_HEADER's keys.  throughput_kbps is the plaintext
    size over the encrypt time in KB (1024 B) per second, None for an
    empty plaintext.
    """
    if reps < MIN_REPS:
        raise Error(f"reps must be >= {MIN_REPS}")
    if not sizes:
        raise Error("need at least one size to time")
    if any(size < 0 for size in sizes):
        raise Error(f"sizes must be >= 0, got {list(sizes)}")
    rng = random.Random(seed)
    master = rng.randrange(1, default_modulus().p)
    key = derive_file_key(master, b"bench.dat", mode=mode, n=n)
    rows = []
    for size in sizes:
        data = rng.randbytes(size)
        envelope = seal_file(data, key)
        enc_s = _median_seconds(lambda: seal_file(data, key), reps)
        dec_s = _median_seconds(lambda: open_file(envelope, key), reps)
        rows.append({"size_bytes": size, "cipher_bytes": len(envelope.payload),
                     "encrypt_s": enc_s, "decrypt_s": dec_s,
                     "throughput_kbps": (size / 1024) / enc_s if size else None})
    return {"mode": mode.name.lower(), "reps": reps,
            "environment": _environment_note(), "rows": rows}


# ---------------------------------------------------------------------------
# Attribute-count benchmark
# ---------------------------------------------------------------------------

DEFAULT_K_VALUES = (3, 5, 9, 13, 17, 21)

ATTRS_CSV_HEADER = "k,n_users,split_s,reconstruct_s"


def bench_attributes(k_values: Sequence[int] = DEFAULT_K_VALUES,
                     n_users: int = 24, reps: int = MIN_REPS,
                     seed: int = 0xA77) -> dict:
    """Split/reconstruct timing as the threshold k grows.

    Returns {"reps", "environment", "rows", "split_fit"}, one row per k
    with ATTRS_CSV_HEADER's keys.  split_fit is the least-squares line
    of split time in k ("slope", "intercept") and its RMS "residual";
    split work is n evaluations of a degree-(k-1) polynomial, so the fit
    should be tight.
    """
    if reps < MIN_REPS:
        raise Error(f"reps must be >= {MIN_REPS}")
    for k in k_values:
        if k < 1:
            raise Error(f"thresholds must be >= 1, got k={k}")
        if n_users < k:
            raise Error(f"n_users={n_users} below threshold k={k}")
    if len(set(k_values)) < 2:
        raise Error("need at least two distinct thresholds to fit split "
                    f"time in k, got {list(k_values)}")
    modulus = default_modulus()
    p = modulus.p
    rng = random.Random(seed)
    rows = []
    for k in k_values:
        secret = rng.randrange(p)
        coeffs = [rng.randrange(1, p) for _ in range(k - 1)]
        split_s = _median_seconds(
            lambda: split_secret(secret, coeffs, n_users, modulus), reps)
        shares = split_secret(secret, coeffs, n_users, modulus)[:k]
        inp = ReconstructionInput(tuple(shares))
        rec_s = _median_seconds(lambda: reconstruct_secret(inp), reps)
        rows.append({"k": k, "n_users": n_users, "split_s": split_s,
                     "reconstruct_s": rec_s})
    ks = [r["k"] for r in rows]
    ts = [r["split_s"] for r in rows]
    slope, intercept = _fit(ks, ts)
    residual = (sum((t - (slope * k + intercept)) ** 2
                    for k, t in zip(ks, ts)) / len(ks)) ** 0.5
    return {"reps": reps, "environment": _environment_note(), "rows": rows,
            "split_fit": {"slope": slope, "intercept": intercept,
                          "residual": residual}}


# ---------------------------------------------------------------------------
# Storage-overhead model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StorageOverheadModel:
    """Closed-form storage costs for this scheme and two published baselines.

    n_attrs_user: attributes per user (n); policy_attrs: attributes in
    the access policy (t_c).  The baselines are costed at the same counts.
    """

    n_attrs_user: int = 10
    policy_attrs: int = 10
    element_bits: int = 256
    pairing_bits: int = 512

    def __post_init__(self) -> None:
        if min(self.n_attrs_user, self.policy_attrs) < 0:
            raise Error("attribute counts must be >= 0, got "
                        f"n={self.n_attrs_user}, t_c={self.policy_attrs}")
        if min(self.element_bits, self.pairing_bits) < 1:
            raise Error("bit widths must be >= 1, got "
                        f"element={self.element_bits}, pairing={self.pairing_bits}")

    def user_storage_bits(self) -> int:
        """This scheme, per user: (n + 1) field elements."""
        return (self.n_attrs_user + 1) * self.element_bits

    def server_storage_bits(self) -> int:
        """This scheme, server side: (t_c + 1) field elements."""
        return (self.policy_attrs + 1) * self.element_bits

    def dacmacs_user_bits(self) -> int:
        return (self.n_attrs_user + 3) * self.element_bits

    def dacmacs_server_bits(self) -> int:
        return (3 * self.policy_attrs + 3) * self.element_bits

    def pairing_user_bits(self) -> int:
        return (self.n_attrs_user + 1) * self.pairing_bits

    def pairing_server_bits(self) -> int:
        return (self.policy_attrs + 1) * self.pairing_bits


#: The sample grant's secret and coefficients, fixed so that its measured
#: sizes reproduce (the coefficients are the owner's attribute tokens
#: under the salt bytes(range(16))).
SAMPLE_SECRET = 123456789
SAMPLE_COEFFS = (737422080316760823, 737420980805132612)


def storage_overhead_report(model: "StorageOverheadModel | None" = None,
                            ) -> dict:
    """Formula table plus measured sizes from an actual serialized grant.

    Returns {"model", "rows", "measured"}: the model's fields, one row
    per scheme with its user and server bits and bytes, and the JSON
    sizes of one share record and one grant.
    """
    if model is None:
        model = StorageOverheadModel()
    rows = [{"scheme": scheme, "user_bits": user_bits,
             "user_bytes": user_bits // 8, "server_bits": server_bits,
             "server_bytes": server_bits // 8}
            for scheme, user_bits, server_bits in (
                ("proposed", model.user_storage_bits(), model.server_storage_bits()),
                ("dac-macs", model.dacmacs_user_bits(), model.dacmacs_server_bits()),
                ("pairing", model.pairing_user_bits(), model.pairing_server_bits()))]

    db = PolicyDb()
    owner = UserRecord("owner-0", UserType.OWNER, b"owner-credentials")
    consumer = UserRecord("consumer-0", UserType.CONSUMER, b"consumer-credentials")
    register_user(db, owner)
    register_user(db, consumer)
    with tempfile.TemporaryDirectory() as root:
        grant_access(db, ObjectStore(root), "sample.dat", owner.user_id,
                     [consumer.user_id], b"sample payload",
                     secret=SAMPLE_SECRET, coeffs=SAMPLE_COEFFS)
    grant = db.grants["sample.dat"]
    record = next(iter(grant.consumer_shares.values()))
    # The grant as policy.json stores it (the emitter writes ASCII only).
    return {"model": asdict(model), "rows": rows,
            "measured": {"share_record_bytes": len(record.to_json().encode("utf-8")),
                         "grant_bytes": len(_grant_json(grant))}}


def storage_lines(doc: dict) -> List[str]:
    """storage_overhead_report's document as a text table."""
    return [f"{'scheme':12s} {'user bits':>10s} {'user bytes':>10s} "
            f"{'server bits':>11s} {'server bytes':>12s}"] + [
        f"{r['scheme']:12s} {r['user_bits']:>10d} {r['user_bytes']:>10d} "
        f"{r['server_bits']:>11d} {r['server_bytes']:>12d}" for r in doc["rows"]] + [
        f"measured share record: {doc['measured']['share_record_bytes']} B, "
        f"grant: {doc['measured']['grant_bytes']} B (JSON)"]

