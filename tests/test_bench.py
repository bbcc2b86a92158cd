import json
import math

import pytest

from trishare import (
    Error,
    Mode,
    StorageOverheadModel,
    bench_attributes,
    bench_encrypt,
    loglog_slope,
    storage_overhead_report,
    verify_reference_example,
)
import trishare.bench
from trishare.bench import (
    ATTRS_CSV_HEADER,
    ENCRYPT_CSV_HEADER,
    AttrBenchReport,
    AttrBenchRow,
    BenchReport,
    BenchRow,
    EXAMPLE_COEFFS,
    EXAMPLE_POINTS,
    EXAMPLE_SECRET,
    ExampleMismatch,
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
    assert report.passed
    assert len(report.lines()) == 8
    assert all(res.ok for res in report.assertions)


def test_verify_example_catches_perturbation():
    bad = [(x, y + 1 if x == 2 else y) for x, y in EXAMPLE_POINTS
           if x in (2, 4, 5)]
    with pytest.raises(ExampleMismatch):
        verify_reference_example(reconstruction_points=bad)


def test_verify_example_needs_a_big_enough_field(p97):
    # 1234 is not a residue mod 97; the example cannot run there
    with pytest.raises(ExampleMismatch):
        verify_reference_example(modulus=p97)


# ---------------------------------------------------------------- encryption bench

def test_bench_encrypt_rows():
    report = bench_encrypt(sizes=(256, 1024), reps=5)
    assert [r.input_size_bytes for r in report.rows] == [256, 1024]
    for row in report.rows:
        assert row.ciphertext_size_bytes == row.input_size_bytes  # additive
        assert row.encrypt_seconds > 0 and row.decrypt_seconds > 0
        assert row.throughput_kb_per_s == pytest.approx(
            (row.input_size_bytes / 1024) / row.encrypt_seconds
        )


def test_bench_encrypt_power_mode_width():
    report = bench_encrypt(sizes=(128,), mode=Mode.POWER, n=2, reps=5)
    row = report.rows[0]
    assert row.ciphertext_size_bytes % row.input_size_bytes == 0
    assert row.ciphertext_size_bytes // row.input_size_bytes >= 2


def test_bench_encrypt_csv_round_trip():
    report = bench_encrypt(sizes=(0, 256), reps=5)
    lines = report.to_csv().strip().splitlines()
    assert lines[0] == ENCRYPT_CSV_HEADER
    assert len(lines) == 3
    zero_row = lines[1].split(",")
    assert zero_row[0] == "0" and zero_row[4] == "NA"
    parsed = lines[2].split(",")
    # repr round-trips floats exactly
    assert float(parsed[2]) == report.rows[1].encrypt_seconds
    assert float(parsed[4]) == report.rows[1].throughput_kb_per_s


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
    a = bench_encrypt(sizes=(128,), reps=5, seed=1)
    b = bench_encrypt(sizes=(128,), reps=5, seed=1)
    assert a.rows[0].ciphertext_size_bytes == b.rows[0].ciphertext_size_bytes


# ---------------------------------------------------------------- attribute bench

def test_bench_attributes_rows_and_fit():
    report = bench_attributes(k_values=(3, 5, 9), n_users=16, reps=5)
    assert [r.k for r in report.rows] == [3, 5, 9]
    assert all(r.n_users == 16 for r in report.rows)
    assert math.isfinite(report.split_fit_slope)
    assert math.isfinite(report.split_fit_residual)
    lines = report.to_csv().strip().splitlines()
    assert lines[0] == ATTRS_CSV_HEADER
    assert len(lines) == 4
    doc = report.to_dict()
    assert doc["split_fit"]["slope"] == report.split_fit_slope


def test_bench_attributes_validates_threshold():
    with pytest.raises(Error):
        bench_attributes(k_values=(9,), n_users=4, reps=5)
    with pytest.raises(Error):
        bench_attributes(k_values=(3,), n_users=8, reps=1)


# ---------------------------------------------------------------- slope fitting

def test_loglog_slope_recovers_exact_power_laws():
    xs = [2, 4, 8, 16, 32]
    assert loglog_slope(xs, [3 * x for x in xs]) == pytest.approx(1.0, abs=1e-12)
    assert loglog_slope(xs, [0.5 * x * x for x in xs]) == pytest.approx(2.0, abs=1e-12)
    assert loglog_slope(xs, [7.0] * 5) == pytest.approx(0.0, abs=1e-12)


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
    schemes = [row["scheme"] for row in report.rows]
    assert schemes == ["proposed", "dac-macs", "pairing"]
    by_scheme = {row["scheme"]: row for row in report.rows}
    assert by_scheme["proposed"]["user_bytes"] == 352
    assert by_scheme["proposed"]["server_bytes"] == 352
    assert by_scheme["dac-macs"]["user_bytes"] == 416
    assert report.measured_share_record_bytes > 0
    assert report.measured_grant_bytes > report.measured_share_record_bytes
    assert len(report.lines()) == 5
    doc = json.loads(json.dumps(report.to_dict()))
    assert doc["measured"]["share_record_bytes"] == report.measured_share_record_bytes


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


def test_csv_text_is_pinned():
    enc = BenchReport(mode=Mode.ADDITIVE, reps=5, environment="env", rows=[
        BenchRow(1024, 1024, 0.001, 0.0025),
        BenchRow(0, 0, 1e-06, 2.5e-06),
        BenchRow(3000, 9000, 0.1, 1 / 3)])
    assert enc.to_csv() == (
        "size_bytes,cipher_bytes,encrypt_s,decrypt_s,throughput_kbps\n"
        "1024,1024,0.001,0.0025,1000.0\n"
        "0,0,1e-06,2.5e-06,NA\n"
        "3000,9000,0.1,0.3333333333333333,29.296875\n")
    attrs = AttrBenchReport(reps=5, environment="env", rows=[
        AttrBenchRow(3, 24, 1.5e-05, 0.000123),
        AttrBenchRow(1, 2, 0.25, 1 / 7)])
    assert attrs.to_csv() == (
        "k,n_users,split_s,reconstruct_s\n"
        "3,24,1.5e-05,0.000123\n"
        "1,2,0.25,0.14285714285714285\n")


@pytest.mark.parametrize("k_values", [(3,), (3, 3)])
def test_bench_attributes_needs_two_thresholds_before_timing(monkeypatch, k_values):
    no_timing(monkeypatch)
    with pytest.raises(Error, match="at least two distinct thresholds"):
        bench_attributes(k_values=k_values, n_users=8, reps=5)
