import json
import math

import pytest

from trishare import Error, Mode
import trishare.bench
from trishare.bench import (
    ATTRS_CSV_HEADER,
    ENCRYPT_CSV_HEADER,
    EXAMPLE_COEFFS,
    EXAMPLE_POINTS,
    EXAMPLE_SECRET,
    ExampleMismatch,
    StorageOverheadModel,
    bench_attributes,
    bench_encrypt,
    csv_text,
    example_lines,
    storage_lines,
    storage_overhead_report,
    verify_reference_example,
)


# ---------------------------------------------------------------- worked example

def test_example_constants_are_the_reference_table():
    assert EXAMPLE_SECRET == 1234
    assert EXAMPLE_COEFFS == (166, 94)
    assert EXAMPLE_POINTS == (
        (1, 1494), (2, 1942), (3, 2578), (4, 3402), (5, 4414), (6, 5614)
    )


def test_verify_example_passes():
    report = verify_reference_example()
    assert report["passed"]
    assert len(example_lines(report)) == 9
    assert all(res["ok"] for res in report["assertions"])


def test_verify_example_catches_perturbation(monkeypatch):
    # a reconstruction that is off by one must fail the pinned secret
    reconstruct = trishare.bench.reconstruct_secret
    monkeypatch.setattr(trishare.bench, "reconstruct_secret",
                        lambda inp: reconstruct(inp) + 1)
    with pytest.raises(ExampleMismatch, match="reconstructed secret"):
        verify_reference_example()


def test_verify_example_needs_a_big_enough_field(p97):
    # 1234 is not a residue mod 97; the example cannot run there
    with pytest.raises(ExampleMismatch):
        verify_reference_example(modulus=p97)


# ---------------------------------------------------------------- encryption bench

def test_bench_encrypt_rows():
    report = bench_encrypt(sizes=(256, 1024), reps=5)
    assert [r["size_bytes"] for r in report["rows"]] == [256, 1024]
    for row in report["rows"]:
        assert row["cipher_bytes"] == row["size_bytes"]  # additive
        assert row["encrypt_s"] > 0 and row["decrypt_s"] > 0
        assert row["throughput_kbps"] == pytest.approx(
            (row["size_bytes"] / 1024) / row["encrypt_s"]
        )


def test_bench_encrypt_power_mode_width():
    report = bench_encrypt(sizes=(128,), mode=Mode.POWER, n=2, reps=5)
    row = report["rows"][0]
    assert row["cipher_bytes"] % row["size_bytes"] == 0
    assert row["cipher_bytes"] // row["size_bytes"] >= 2


def test_bench_encrypt_csv_round_trip():
    report = bench_encrypt(sizes=(0, 256), reps=5)
    lines = csv_text(ENCRYPT_CSV_HEADER, report["rows"]).strip().splitlines()
    assert lines[0] == ENCRYPT_CSV_HEADER
    assert len(lines) == 3
    zero_row = lines[1].split(",")
    assert zero_row[0] == "0" and zero_row[4] == "NA"
    parsed = lines[2].split(",")
    # repr round-trips floats exactly
    assert float(parsed[2]) == report["rows"][1]["encrypt_s"]
    assert float(parsed[4]) == report["rows"][1]["throughput_kbps"]


def test_bench_encrypt_rejects_thin_sampling():
    with pytest.raises(Error):
        bench_encrypt(sizes=(64,), reps=2)


def no_timing(monkeypatch):
    def fail(fn, reps):
        raise AssertionError("timed before validating its input")
    monkeypatch.setattr(trishare.bench, "_median_seconds", fail)


def test_bench_encrypt_rejects_negative_size_before_timing(monkeypatch):
    no_timing(monkeypatch)
    with pytest.raises(Error, match="sizes must be >= 0"):
        bench_encrypt(sizes=(256, -5), reps=5)


def test_bench_encrypt_is_deterministic_in_data():
    a = bench_encrypt(sizes=(128,), reps=5)
    b = bench_encrypt(sizes=(128,), reps=5)
    assert a["rows"][0]["cipher_bytes"] == b["rows"][0]["cipher_bytes"]


# ---------------------------------------------------------------- attribute bench

def test_bench_attributes_rows_and_fit():
    report = bench_attributes(k_values=(3, 5, 9), n_users=16, reps=5)
    assert [r["k"] for r in report["rows"]] == [3, 5, 9]
    assert all(r["n_users"] == 16 for r in report["rows"])
    assert math.isfinite(report["split_fit"]["slope"])
    assert math.isfinite(report["split_fit"]["residual"])
    lines = csv_text(ATTRS_CSV_HEADER, report["rows"]).strip().splitlines()
    assert lines[0] == ATTRS_CSV_HEADER
    assert len(lines) == 4


def test_bench_attributes_validates_threshold():
    with pytest.raises(Error):
        bench_attributes(k_values=(9,), n_users=4, reps=5)
    with pytest.raises(Error):
        bench_attributes(k_values=(3,), n_users=8, reps=1)


# ---------------------------------------------------------------- storage model

def test_storage_formula_frozen_values():
    model = StorageOverheadModel()  # n = t_c = 10, 256-bit elements
    assert model.user_storage_bits() == 2816
    assert model.user_storage_bits() // 8 == 352
    assert model.server_storage_bits() // 8 == 352
    assert model.dacmacs_user_bits() // 8 == 416
    assert model.dacmacs_server_bits() // 8 == 1056
    assert model.pairing_user_bits() // 8 == 704
    assert model.pairing_server_bits() // 8 == 704


def test_storage_formulas_scale_linearly():
    m5 = StorageOverheadModel(n_attrs_user=5, policy_attrs=5)
    m20 = StorageOverheadModel(n_attrs_user=20, policy_attrs=20)
    assert m5.user_storage_bits() == 6 * 256
    assert m20.user_storage_bits() == 21 * 256
    assert m20.dacmacs_server_bits() == 63 * 256


def test_storage_report_contents():
    report = storage_overhead_report()
    schemes = [row["scheme"] for row in report["rows"]]
    assert schemes == ["proposed", "dac-macs", "pairing"]
    by_scheme = {row["scheme"]: row for row in report["rows"]}
    assert by_scheme["proposed"]["user_bytes"] == 352
    assert by_scheme["proposed"]["server_bytes"] == 352
    assert by_scheme["dac-macs"]["user_bytes"] == 416
    measured = report["measured"]
    assert measured["share_record_bytes"] > 0
    assert measured["grant_bytes"] > measured["share_record_bytes"]
    assert len(storage_lines(report)) == 5
    assert json.loads(json.dumps(report)) == report


def test_bench_attributes_rejects_zero_threshold_before_timing(monkeypatch):
    no_timing(monkeypatch)
    with pytest.raises(Error, match="thresholds must be >= 1"):
        bench_attributes(k_values=(0, 1), n_users=8, reps=5)


@pytest.mark.parametrize("fields", [
    {"n_attrs_user": -1}, {"policy_attrs": -5},
    {"element_bits": 0}, {"pairing_bits": -512},
], ids=["negative-n", "negative-tc", "zero-element-bits", "negative-pairing-bits"])
def test_storage_model_rejects_nonsense_sizes(fields):
    with pytest.raises(Error):
        StorageOverheadModel(**fields)


def test_storage_model_accepts_zero_attributes():
    model = StorageOverheadModel(n_attrs_user=0, policy_attrs=0)
    assert model.user_storage_bits() == model.server_storage_bits() == 256


def encrypt_row(size, cipher, enc_s, dec_s, kbps):
    return {"size_bytes": size, "cipher_bytes": cipher, "encrypt_s": enc_s,
            "decrypt_s": dec_s, "throughput_kbps": kbps}


def test_csv_text_is_pinned():
    enc = [encrypt_row(1024, 1024, 0.001, 0.0025, 1000.0),
           encrypt_row(0, 0, 1e-06, 2.5e-06, None),
           encrypt_row(3000, 9000, 0.1, 1 / 3, 29.296875)]
    assert csv_text(ENCRYPT_CSV_HEADER, enc) == (
        "size_bytes,cipher_bytes,encrypt_s,decrypt_s,throughput_kbps\n"
        "1024,1024,0.001,0.0025,1000.0\n"
        "0,0,1e-06,2.5e-06,NA\n"
        "3000,9000,0.1,0.3333333333333333,29.296875\n")
    attrs = [{"k": 3, "n_users": 24, "split_s": 1.5e-05, "reconstruct_s": 0.000123},
             {"k": 1, "n_users": 2, "split_s": 0.25, "reconstruct_s": 1 / 7}]
    assert csv_text(ATTRS_CSV_HEADER, attrs) == (
        "k,n_users,split_s,reconstruct_s\n"
        "3,24,1.5e-05,0.000123\n"
        "1,2,0.25,0.14285714285714285\n")


@pytest.mark.parametrize("k_values", [(3,), (3, 3)])
def test_bench_attributes_needs_two_thresholds_before_timing(monkeypatch, k_values):
    no_timing(monkeypatch)
    with pytest.raises(Error, match="at least two distinct thresholds"):
        bench_attributes(k_values=k_values, n_users=8, reps=5)


def test_bench_encrypt_throughput_is_pinned(monkeypatch):
    # The first and last rows of test_csv_text_is_pinned, through the
    # bench itself: throughput is KB (1024 B) over the encrypt time.
    timings = iter([0.001, 0.0025, 1e-06, 2.5e-06, 0.1, 1 / 3])
    monkeypatch.setattr(trishare.bench, "_median_seconds",
                        lambda fn, reps: next(timings))
    rows = bench_encrypt(sizes=(1024, 0, 3000), reps=5)["rows"]
    assert rows == [encrypt_row(1024, 1024, 0.001, 0.0025, 1000.0),
                    encrypt_row(0, 0, 1e-06, 2.5e-06, None),
                    encrypt_row(3000, 3000, 0.1, 1 / 3, 29.296875)]
