"""Envelope wire format and a content-keyed object store.

Wire layout (big-endian, 20-byte header):

    magic "IFSC" | version u8 = 1 | mode u8 | n u8 | symbol_width u8 |
    block_bytes u32 | plaintext_len u64 | payload

decode is strict: bad magic, bad version, out-of-range fields, trailing
bytes, or a short payload are all rejected, so encode/decode is a
bijection on valid envelopes.

The store maps hex(fnv1a64(file_id || ":0")) to blobs under
<root>/objects/ and keeps root-level files beside that directory, which
its callers name and format (trishare.policy keeps the policy and its
sidecar there).  Every read goes to disk and nothing is cached.

Every write commits one file (see _atomic_write), given as pieces
(bytes or memoryviews) that a disk store streams to a temp file and never
joins: a root-level file may pass slices of the bytes it loaded, an
envelope its header and its payload.  The temp file is fsynced and
renamed into place, so a reader never observes a half-written file and a
failed write leaves the target as it was.  A root-level write may also
overwrite a cache file in place, unsynced, just before that rename:
after a crash the cache may be stale, torn or one commit ahead, so its
reader must take it as a hint.  A new file is created mode 0600; a
rewrite keeps its mode.  Opening a store creates nothing, so a mistyped
path fails without leaving a skeleton behind: the first write makes the
directories it writes into and fsyncs the parent of each.
ObjectStore.lock serializes the commands on one store with flock on its
root directory and raises NotFound on a missing root; a command that may
create the store calls ObjectStore.create_root first, so that there is
a root to lock.
"""

from __future__ import annotations

import contextlib
import errno
import os
import re
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


_OBJECT_KEY = re.compile("[0-9a-f]{16}")


def object_key(file_id: str) -> str:
    """Content key: hex of fnv1a64(file_id || ":0")."""
    return format(fnv1a64(f"{file_id}:0".encode("utf-8")), "016x")


def is_object_key(ref: str) -> bool:
    """Has ref the form object_key writes, 16 lowercase hex digits?  Only
    such a ref names a file inside objects/."""
    return _OBJECT_KEY.fullmatch(ref) is not None


class ObjectStore:
    """Blob store keyed by object_key strings, plus root-level text files,
    all under `root`.  The disk is the only copy: opening reads no blob,
    and each get_object reads its file.
    """

    def __init__(self, root: "str | Path"):
        self.root = Path(root)
        # Always empty; read only by perfbench/tracing.py (item 4 drops both).
        self.objects: Dict[str, bytes] = {}

    def put_object(self, key: str, pieces: Pieces) -> None:
        """Store the join of `pieces` durably; atomic replace if the key
        exists."""
        _atomic_write(self.root / "objects", key, pieces)

    def get_object(self, key: str) -> bytes:
        """Fetch a blob; NotFound if it was never stored."""
        return _read(self.root / "objects" / key)

    def write_text(self, filename: str, pieces: Pieces, *,
                   cache: Optional[Tuple[str, bytes]] = None) -> None:
        """Atomically write the join of `pieces` to a root-level file,
        fsynced; an optional ``cache`` (filename, bytes) is overwritten in
        place, unsynced, just before the rename (see _atomic_write)."""
        _atomic_write(self.root, filename, pieces, cache)

    def read_bytes(self, filename: str) -> bytes:
        """Read a root-level file; NotFound if absent."""
        return _read(self.root / filename)

    def create_root(self) -> None:
        """Make the root and its missing parents, each fsynced into its
        parent, unless the root is already a directory."""
        try:
            made = _make_dirs(self.root)
        except OSError as exc:
            raise IoFailure(f"cannot create {self.root}: {exc}") from exc
        for new_dir in made:
            _fsync_dir(new_dir.parent, f"{new_dir} was created")

    @contextlib.contextmanager
    def lock(self, exclusive: bool) -> Iterator[None]:
        """Hold flock on the store root, exclusive or shared, for the
        with-block.  It adds no file to the store, and a missing root is
        NotFound: nothing is created, so a command that may create the
        store calls create_root first.  POSIX only (fcntl is imported
        here, so the package still imports without it)."""
        import fcntl
        try:
            fd = os.open(self.root, os.O_RDONLY | os.O_DIRECTORY | os.O_CLOEXEC)
        except (FileNotFoundError, NotADirectoryError):
            raise NotFound(f"no store at {self.root}") from None
        except OSError as exc:
            raise IoFailure(f"cannot open {self.root} to lock it: {exc}") from exc
        try:
            fcntl.flock(fd, fcntl.LOCK_EX if exclusive else fcntl.LOCK_SH)
            yield
        finally:
            os.close(fd)


def _read(path: Path) -> bytes:
    try:
        return path.read_bytes()
    except FileNotFoundError:
        raise NotFound(f"no file {path}") from None
    except OSError as exc:
        raise IoFailure(f"read failed for {path}: {exc}") from exc


def _atomic_write(directory: Path, name: str, pieces: Pieces,
                  cache: Optional[Tuple[str, bytes]] = None) -> None:
    """Commit the join of `pieces` to directory/name: a temp file beside
    it, so os.replace stays on one filesystem (mkstemp's 0600, or the
    target's mode), fsync, `cache` overwritten in place, os.replace, one
    fsync of `directory` and of the parent of each directory the write
    made.  A failure names the file it was at."""
    target, tmp = directory / name, None
    try:
        made = _make_dirs(directory)
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=name + ".",
                                   suffix=".tmp")
        with open(fd, "wb") as fh:
            with contextlib.suppress(FileNotFoundError):
                os.fchmod(fh.fileno(), stat.S_IMODE(os.stat(target).st_mode))
            fh.writelines(pieces)
            fh.flush()
            os.fsync(fh.fileno())
        if cache is not None:
            target = directory / cache[0]
            _overwrite(target, cache[1])
            target = directory / name
        os.replace(tmp, target)
        tmp = None
    except OSError as exc:
        raise IoFailure(f"write failed for {target}: {exc}") from exc
    finally:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
    _fsync_dir(directory, f"{directory / name} was replaced")
    for new_dir in made:
        _fsync_dir(new_dir.parent, f"{new_dir} was created")


def _overwrite(path: Path, data: bytes) -> None:
    """Make the file at `path` hold `data`, unsynced.  It follows no
    symlink, waits on no FIFO and refuses a file with a second link, so
    no file outside the store changes."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_NOFOLLOW
                 | os.O_NONBLOCK | os.O_CLOEXEC, 0o600)
    try:
        st = os.fstat(fd)
        if not stat.S_ISREG(st.st_mode) or st.st_nlink != 1:
            raise OSError(errno.EPERM, "not a regular file with one link")
        os.pwrite(fd, data, 0)
        os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


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
