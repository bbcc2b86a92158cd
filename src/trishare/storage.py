"""Envelope wire format and a content-keyed object store.

Wire layout (big-endian, 20-byte header):

    magic "IFSC" | version u8 = 1 | mode u8 | n u8 | symbol_width u8 |
    block_bytes u32 | plaintext_len u64 | payload

decode is strict: bad magic, bad version, out-of-range fields, trailing
bytes, or a short payload are all rejected, so encode/decode is a
bijection on valid envelopes.

The store maps hex(fnv1a64(file_id || ":" || version)) to blobs under
<root>/objects/ and keeps root-level text files beside that directory:
policy.json and its digest sidecar policy.json.sha256.
A missing or stale sidecar only costs the next load a full parse of
policy.json.  Every read goes to disk and nothing is cached.

Every write is a group commit of one or more files in one directory.
Each file is given as pieces (bytes or memoryviews), which a disk store
streams in order to a temp file of its own and never joins: a policy
commit passes slices of the policy it loaded, an envelope its header
and its payload.  Each durable temp file is fsynced.
Only then are the temp files os.replace'd onto their targets, in the
given order, and the directory is fsynced once, so a reader never
observes a half-written object or policy, and a write that fails
before its first rename leaves every target as it was.  Every policy
commit renames policy.json (fsynced), then its sidecar (not fsynced:
after a crash it may be stale, empty, truncated or one commit ahead,
which a load takes as a miss).  A new file is created mode 0600; a
rewrite keeps the mode the file had.  Opening a store creates nothing,
so a mistyped path fails a read without leaving a skeleton behind: the
first write makes the directories it writes into and fsyncs the parent
of each.
Only with root=None is the store memory-only (tests, dry runs).
"""

from __future__ import annotations

import contextlib
import errno
import os
import stat
import struct
import tempfile
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .cipher import BadHeader, CipherEnvelope
from .errors import Error
from .hashing import fnv1a64

_HEADER = struct.Struct(">4sBBBBIQ")
HEADER_BYTES = _HEADER.size  # 20
MAGIC = b"IFSC"
VERSION = 1

#: A file's bytes as the pieces they join from, each bytes or a memoryview:
#: a write streams them in order and never joins them.
Pieces = Sequence["bytes | memoryview"]

POLICY_FILENAME = "policy.json"
POLICY_DIGEST_FILENAME = POLICY_FILENAME + ".sha256"


class IoFailure(Error):
    """Underlying filesystem operation failed."""


class NotFound(Error):
    """No object stored under that key."""


class Truncated(BadHeader):
    """Envelope bytes end before the header or payload does."""


def envelope_pieces(envelope: CipherEnvelope) -> Tuple[bytes, bytes]:
    """The wire format as (20-byte header, payload), for put_object."""
    header = _HEADER.pack(MAGIC, VERSION, int(envelope.mode), envelope.n,
                          envelope.symbol_width, envelope.block_bytes,
                          envelope.plaintext_len)
    return header, envelope.payload


def encode_envelope(envelope: CipherEnvelope) -> bytes:
    """Serialize an envelope to the wire format."""
    header, payload = envelope_pieces(envelope)
    return header + payload


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
        self.texts: Dict[str, bytes] = {}

    def put_object(self, key: str, pieces: Pieces) -> None:
        """Store the join of `pieces` durably; atomic replace if the key
        exists."""
        if self.root is None:
            self.objects[key] = b"".join(pieces)
        else:
            _atomic_write(self.root / "objects", [(key, pieces, True)])

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
        except FileNotFoundError:
            return iter(())  # nothing was ever put
        except OSError as exc:
            raise IoFailure(f"cannot list {self.root / 'objects'}: {exc}") from exc
        return iter(sorted(names))

    def write_text(self, filename: str, pieces: Pieces, *,
                   cache: Optional[Tuple[str, bytes]] = None) -> None:
        """Atomically write the join of `pieces` to a root-level file,
        fsynced, in one group commit with an optional ``cache``
        (filename, bytes) renamed after it, unsynced."""
        if self.root is None:
            self.texts[filename] = b"".join(pieces)
            if cache is not None:
                self.texts[cache[0]] = cache[1]
            return
        files = [(filename, pieces, True)]
        if cache is not None:
            files.append((cache[0], (cache[1],), False))
        _atomic_write(self.root, files)

    def read_bytes(self, filename: str) -> bytes:
        """Read a root-level file; NotFound if absent."""
        if self.root is not None:
            return _read(self.root / filename)
        try:
            return self.texts[filename]
        except KeyError:
            raise NotFound(f"no file {filename} in memory store") from None

    def read_text(self, filename: str) -> str:
        """Read a root-level text file; NotFound if absent."""
        return self.read_bytes(filename).decode("utf-8")


def _read(path: Path) -> bytes:
    try:
        return path.read_bytes()
    except FileNotFoundError:
        raise NotFound(f"no file {path}") from None
    except OSError as exc:
        raise IoFailure(f"read failed for {path}: {exc}") from exc


def _atomic_write(directory: Path,
                  files: Sequence[Tuple[str, Pieces, bool]]) -> None:
    """Commit (name, pieces, durable) files into `directory` as one group.

    Every temp file is written, and each durable one fsynced, before the
    first os.replace; the renames run in the order given and one fsync
    of `directory` makes them durable.  A directory the write had to make
    is synced into its parent too, so a new store survives a crash.
    """
    # Each temp file is unique to this write and sits beside its target,
    # so os.replace stays on one filesystem.  mkstemp makes it 0600; a
    # rewrite copies the target's mode onto it first.
    # `target` is the file being worked on, so a failure names it.
    temps: List[str] = []
    renamed = 0
    target = directory / files[0][0]
    try:
        made = _make_dirs(directory)
        for name, pieces, durable in files:
            target = directory / name
            fd, tmp = tempfile.mkstemp(dir=directory, prefix=name + ".",
                                       suffix=".tmp")
            temps.append(tmp)
            with open(fd, "wb") as fh:
                with contextlib.suppress(FileNotFoundError):
                    os.fchmod(fh.fileno(), stat.S_IMODE(os.stat(target).st_mode))
                fh.writelines(pieces)
                if durable:
                    fh.flush()
                    os.fsync(fh.fileno())
        for tmp, (name, _, _) in zip(temps, files):
            target = directory / name
            os.replace(tmp, target)
            renamed += 1
    except OSError as exc:
        raise IoFailure(f"write failed for {target}: {exc}") from exc
    finally:
        for tmp in temps[renamed:]:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
    _fsync_dir(directory, f"{directory / files[0][0]} was replaced")
    for new_dir in made:
        _fsync_dir(new_dir.parent, f"{new_dir} was created")


def _make_dirs(directory: Path) -> List[Path]:
    """Create `directory` and its missing parents; return the ones made,
    innermost first, so the caller can sync each into its parent."""
    missing = []
    while not directory.is_dir():
        missing.append(directory)
        directory = directory.parent
    for new_dir in reversed(missing):
        new_dir.mkdir(exist_ok=True)
    return missing


# errno values with which a filesystem says it cannot fsync a directory.
_NO_DIR_FSYNC = frozenset({errno.EINVAL, errno.ENOTSUP, errno.EOPNOTSUPP})


def _fsync_dir(directory: Path, done: str) -> None:
    """Make the entries just changed in `directory` durable.

    What `done` names is already in place and synced, so a filesystem
    that cannot fsync a directory is taken as it is (SQLite does the
    same); any other failure is reported as such, not as a failed write.
    """
    try:
        dir_fd = os.open(directory, os.O_RDONLY | os.O_DIRECTORY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    except OSError as exc:
        if exc.errno in _NO_DIR_FSYNC:
            return
        raise IoFailure(f"{done}, but syncing {directory} failed, so the "
                        f"change may not survive a crash: {exc}") from exc
