import json
import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from trishare import default_modulus, modulus_for


@pytest.fixture(scope="session")
def m61():
    return default_modulus()


@pytest.fixture(scope="session")
def p97():
    return modulus_for(97)


@pytest.fixture
def fsyncs(monkeypatch):
    """The inode of each descriptor the store fsyncs, in call order.  A
    temp file keeps its inode when it is renamed onto its target."""
    import trishare.storage

    synced = []
    real_fsync = os.fsync

    def recording_fsync(fd):
        synced.append(os.fstat(fd).st_ino)
        real_fsync(fd)

    monkeypatch.setattr(trishare.storage.os, "fsync", recording_fsync)
    return synced


def _drop_user_type(raw):
    doc = json.loads(raw)
    del doc["users"][0]["user_type"]
    return json.dumps(doc).encode()


def _users_as_object(raw):
    doc = json.loads(raw)
    doc["users"] = {u["user_id"]: u for u in doc["users"]}
    return json.dumps(doc).encode()


def _null_user_id(raw):
    doc = json.loads(raw)
    doc["users"][0]["user_id"] = None
    return json.dumps(doc).encode()


def _drop_grants(raw):
    doc = json.loads(raw)
    del doc["grants"]
    return json.dumps(doc).encode()


def _infinite_p(raw):
    doc = json.loads(raw)
    doc["p"] = float("inf")  # json writes Infinity, which json.loads accepts
    return json.dumps(doc).encode()


#: Ways a stored policy.json goes bad, each with the exception the loader
#: meets first (and must chain from).
CORRUPT_POLICIES = {
    "not-utf8": (lambda raw: b"\xff" + raw, UnicodeDecodeError),
    "truncated": (lambda raw: raw[: len(raw) // 2], json.JSONDecodeError),
    "missing-key": (_drop_user_type, KeyError),
    "missing-grants": (_drop_grants, KeyError),
    "wrong-type": (_users_as_object, TypeError),
    "null-string-field": (_null_user_id, TypeError),
    "infinite-int": (_infinite_p, TypeError),
    # json.loads recurses once per nested array
    "too-deep": (lambda raw: b"[" * 100_000, RecursionError),
}


@pytest.fixture(params=sorted(CORRUPT_POLICIES))
def policy_corruption(request):
    """(corrupt(raw policy bytes) -> bytes, original exception class)."""
    return CORRUPT_POLICIES[request.param]


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    mod = sys.modules.get("test_acceptance")
    results = getattr(mod, "CRITERION_RESULTS", None) if mod else None
    if not results:
        return
    terminalreporter.section("acceptance criteria")
    for line in results:
        terminalreporter.write_line(line)
