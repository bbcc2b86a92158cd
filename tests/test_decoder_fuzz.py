"""Fuzz of the two decoders outside the policy: share records and envelopes.

EncryptedShare.from_json reads a share record (a `--share` file) and
decode_envelope reads a stored object.  Each is fed mutants of texts its
writer produced:

- a share record with one int field's value swapped for a float, a
  string or a bool, or with one byte overwritten, 1-4 bytes deleted or
  one byte inserted (printable ASCII);
- an Additive envelope, or a Power envelope with n = 3, with one byte of
  its header or its payload overwritten, 1-4 deleted or one inserted.

The oracle: the decoder raises its typed error (CorruptShareRecord, or a
trishare.Error for an envelope), or what it returns is what its writer
would write back.  A record's six fields must equal the parsed
document's values, with the same JSON types, and an envelope must encode
to exactly the input bytes.  Any other exception fails the test.

The example counts are fixed and derandomized, so every run checks the
same mutants.  Raise the counts for a longer run.
"""

import json

from hypothesis import given, settings, strategies as st

from trishare import (CipherKey, CorruptShareRecord, EncryptedShare, Error,
                      HEADER_BYTES, M61, Mode, decode_envelope,
                      encode_envelope, seal_file)

SHARE_EXAMPLES = 300
ENVELOPE_EXAMPLES = 300

RECORDS = [EncryptedShare("f", 3, 41, 97, 12, 5).to_json(),
           EncryptedShare('memo "q" é', 5, M61 - 1, M61, 1234, 77).to_json()]
INT_FIELDS = ["x", "y_enc", "p", "kc", "x_kc"]
# Each reads back through int() as a value; none is what to_json writes.
SWAPS = [float, lambda v: v + 0.5, str, lambda v: f" {v} ", bool]

KEYS = [CipherKey(a=0x5A17), CipherKey(a=0x1F3D5, n=3, mode=Mode.POWER)]
ENVELOPES = [encode_envelope(seal_file(bytes(range(7, 7 + size)), key))
             for key in KEYS for size in (1, 7, 33)]


def mutated(draw, data, at, byte):
    """data with one byte at `at` overwritten, 1-4 deleted, or `byte`
    inserted there."""
    op = draw(st.sampled_from(["overwrite", "delete", "insert"]))
    if op == "overwrite":
        return data[:at] + byte + data[at + 1:]
    if op == "delete":
        return data[:at] + data[at + draw(st.integers(1, 4)):]
    return data[:at] + byte + data[at:]


@st.composite
def record_texts(draw):
    """A share record's text with one value's type swapped or one byte
    changed."""
    text = draw(st.sampled_from(RECORDS))
    if draw(st.booleans()):
        doc = json.loads(text)
        name = draw(st.sampled_from(INT_FIELDS))
        doc[name] = draw(st.sampled_from(SWAPS))(doc[name])
        return json.dumps(doc, sort_keys=True)
    data = text.encode("ascii")
    at = draw(st.integers(0, len(data) - 1))
    byte = bytes([draw(st.integers(0x20, 0x7e))])
    return mutated(draw, data, at, byte).decode("ascii")


@st.composite
def envelope_bytes(draw):
    """A sealed envelope with one byte of its header or payload changed."""
    data = draw(st.sampled_from(ENVELOPES))
    at = draw(st.one_of(st.integers(0, HEADER_BYTES - 1),
                        st.integers(HEADER_BYTES, len(data) - 1)))
    return mutated(draw, data, at, bytes([draw(st.integers(0, 255))]))


@settings(max_examples=SHARE_EXAMPLES, derandomize=True, database=None,
          deadline=None)
@given(text=record_texts())
def test_share_record_reads_as_written_or_is_refused(text):
    try:
        record = EncryptedShare.from_json(text)
    except CorruptShareRecord:
        return
    doc = json.loads(text)
    for name, value in record._asdict().items():
        assert value == doc[name] and type(value) is type(doc[name]), name


@settings(max_examples=ENVELOPE_EXAMPLES, derandomize=True, database=None,
          deadline=None)
@given(data=envelope_bytes())
def test_envelope_reads_as_written_or_is_refused(data):
    try:
        envelope = decode_envelope(data)
    except Error:
        return
    assert encode_envelope(envelope) == data


def test_the_unmutated_texts_read_back():
    for text in RECORDS:
        assert EncryptedShare.from_json(text).to_json() == text
    for data in ENVELOPES:
        assert encode_envelope(decode_envelope(data)) == data
