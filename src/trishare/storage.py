"""Envelope wire format and a content-keyed object store.

Wire layout (big-endian, 20-byte header):

    magic "IFSC" | version u8 = 1 | mode u8 | n u8 | symbol_width u8 |
    block_bytes u32 | plaintext_len u64 | payload

decode is strict: bad magic, bad version, out-of-range fields, trailing
bytes, or a short payload are all rejected, so encode/decode is a
bijection on valid envelopes.

The store maps hex(fnv1a64(file_id || ":" || version)) to blobs under
<root>/objects/ and keeps root-level text files (policy, ACL backup)
beside that directory.  Every read goes to disk and nothing is cached.
Writes go to a temp file of their own, are fsynced, and then
os.replace the target, whose directory is fsynced in turn, so a reader
never observes a half-written object or policy.  A new file is created
mode 0600; a rewrite keeps the mode the file had.  Only with
root=None is the store memory-only (tests, dry runs).
"""

from __future__ import annotations

import contextlib
import errno
import os
import stat
import struct
import tempfile
from pathlib import Path
from typing import Dict, Iterator, Optional

from .cipher import BadHeader, CipherEnvelope
from .errors import Error
from .hashing import fnv1a64

_HEADER = struct.Struct(">4sBBBBIQ")
HEADER_BYTES = _HEADER.size  # 20
MAGIC = b"IFSC"
VERSION = 1

POLICY_FILENAME = "policy.json"
ACL_BACKUP_FILENAME = "acl-backup.json"


class IoFailure(Error):
    """Underlying filesystem operation failed."""


class NotFound(Error):
    """No object stored under that key."""


class Truncated(BadHeader):
    """Envelope bytes end before the header or payload does."""


def encode_envelope(envelope: CipherEnvelope) -> bytes:
    """Serialize an envelope to the wire format."""
    header = _HEADER.pack(MAGIC, VERSION, int(envelope.mode), envelope.n,
                          envelope.symbol_width, envelope.block_bytes,
                          envelope.plaintext_len)
    return header + envelope.payload


def decode_envelope(data: bytes) -> CipherEnvelope:
    """Parse wire bytes back into an envelope; strict about every field."""
    if len(data) < HEADER_BYTES:
        raise Truncated(f"{len(data)} bytes is shorter than the {HEADER_BYTES}-byte header")
    magic, version, mode, n, width, block_bytes, plaintext_len = \
        _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise BadHeader(f"bad magic {magic!r}")
    if version != VERSION:
        raise BadHeader(f"unsupported version {version}")
    payload = data[HEADER_BYTES:]
    expected = plaintext_len * width
    if len(payload) < expected:
        raise Truncated(f"payload is {len(payload)} bytes, header implies {expected}")
    if len(payload) > expected:
        raise BadHeader(f"{len(payload) - expected} trailing bytes after payload")
    return CipherEnvelope(mode=mode, n=n, symbol_width=width,
                          block_bytes=block_bytes, plaintext_len=plaintext_len,
                          payload=payload)


def object_key(file_id: str, version: int = 0) -> str:
    """Content key: hex of fnv1a64(file_id || ":" || version)."""
    return format(fnv1a64(f"{file_id}:{version}".encode("utf-8")), "016x")


class ObjectStore:
    """Blob store keyed by object_key strings, plus root-level text files.

    With a root directory the disk is the only copy: opening reads no
    blob, and each get_object reads its file.  With root=None blobs live
    in ``objects`` and text files in ``texts``, both in memory.
    """

    def __init__(self, root: "str | Path | None" = None):
        self.root: Optional[Path] = Path(root) if root is not None else None
        self.objects: Dict[str, bytes] = {}
        self.texts: Dict[str, str] = {}
        if self.root is not None:
            try:
                (self.root / "objects").mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise IoFailure(f"cannot create store at {self.root}: {exc}") from exc

    def put_object(self, key: str, data: bytes) -> None:
        """Store a blob durably; atomic replace if the key exists."""
        if self.root is None:
            self.objects[key] = data
        else:
            _atomic_write(self.root / "objects" / key, data)

    def get_object(self, key: str) -> bytes:
        """Fetch a blob; NotFound if it was never stored."""
        if self.root is not None:
            return _read(self.root / "objects" / key)
        try:
            return self.objects[key]
        except KeyError:
            raise NotFound(f"no object under key {key}") from None

    def keys(self) -> Iterator[str]:
        if self.root is None:
            return iter(sorted(self.objects))
        try:
            names = [entry.name for entry in (self.root / "objects").iterdir()
                     if entry.is_file() and not entry.name.endswith(".tmp")]
        except OSError as exc:
            raise IoFailure(f"cannot list {self.root / 'objects'}: {exc}") from exc
        return iter(sorted(names))

    def write_text(self, filename: str, text: str) -> None:
        """Atomically write a root-level text file (policy, ACL backup)."""
        if self.root is None:
            self.texts[filename] = text
        else:
            _atomic_write(self.root / filename, text.encode("utf-8"))

    def read_text(self, filename: str) -> str:
        """Read a root-level text file; NotFound if absent."""
        if self.root is not None:
            return _read(self.root / filename).decode("utf-8")
        try:
            return self.texts[filename]
        except KeyError:
            raise NotFound(f"no file {filename} in memory store") from None


def _read(path: Path) -> bytes:
    try:
        return path.read_bytes()
    except FileNotFoundError:
        raise NotFound(f"no file {path}") from None
    except OSError as exc:
        raise IoFailure(f"read failed for {path}: {exc}") from exc


def _atomic_write(path: Path, data: bytes) -> None:
    # A temp file unique to this write, in the same directory so os.replace
    # stays on one filesystem.  mkstemp makes it 0600; a rewrite copies the
    # target's mode onto it first.
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".",
                                   suffix=".tmp")
        with open(fd, "wb") as fh:
            with contextlib.suppress(FileNotFoundError):
                os.fchmod(fh.fileno(), stat.S_IMODE(os.stat(path).st_mode))
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        tmp = None
    except OSError as exc:
        raise IoFailure(f"write failed for {path}: {exc}") from exc
    finally:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
    _fsync_dir(path)


# errno values with which a filesystem says it cannot fsync a directory.
_NO_DIR_FSYNC = frozenset({errno.EINVAL, errno.ENOTSUP, errno.EOPNOTSUPP})


def _fsync_dir(path: Path) -> None:
    """Make the rename onto `path` durable.

    The new file is already in place and synced, so a filesystem that
    cannot fsync a directory is taken as it is (SQLite does the same);
    any other failure is reported as such, not as a failed write.
    """
    try:
        dir_fd = os.open(path.parent, os.O_RDONLY | os.O_DIRECTORY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    except OSError as exc:
        if exc.errno in _NO_DIR_FSYNC:
            return
        raise IoFailure(f"{path} was replaced, but syncing its directory "
                        f"failed, so the change may not survive a crash: "
                        f"{exc}") from exc
