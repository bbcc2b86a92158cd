"""Workloads: seeded inputs, the closed loop, and the output checks.

One client, one thread, closed loop: each operator command
(``register``/``grant``/``request``/``revoke``) is one in-process call
of ``trishare.cli.cli_dispatch`` against a disk store, and the next
command starts only when the previous one returned.  The program gets
only the generated payloads, user ids and operation sequence.

Every workload keeps its file pool fixed (a grant re-grants an existing
file id), so the store stays the same size during a run: ``ObjectStore``
loads every blob when it opens, so a growing store would slow every
command as the run goes on.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Tuple

import trishare.cli
from trishare.field import default_modulus

P = default_modulus().p

#: Fixed document for the JSON half of the reference task.
_REF_DOC = {"grants": [{"file_id": f"f{i:03d}", "y": i * 0x9E3779B97F4A7C15 % P,
                        "consumers": {f"u{j:03d}": j * 7919 for j in range(8)}}
                       for i in range(24)]}


#: Nominal duration of reference_task: every reported time is scaled to
#: a machine that runs the reference in this time (about what a 2-core
#: x86-64 VM with Python 3.11 takes).
REFERENCE_S = 0.002


def reference_task() -> float:
    """Seconds taken by a fixed slice of pure-Python work (about 2 ms).

    Run between commands, outside their timing.  On a shared machine
    the speed at which Python runs swings by tens of percent within
    seconds; the reference slows down with the program, so scaling each
    command by the references on either side of it takes most of that
    swing out of the reported times.
    """
    start = perf_counter()
    s = 1
    for _ in range(8000):
        s = s * 48271 % 2147483647
    json.loads(json.dumps(_REF_DOC, indent=2))
    return perf_counter() - start


@dataclass(frozen=True)
class Workload:
    """Sizes and operation mix of one workload."""

    name: str
    why: str
    payload_bytes: int
    mode: str
    n: int
    files: int
    consumers: int
    per_grant: int
    #: "revoke-cycle": grant, two requests, revoke, then two requests that
    #: must be refused.  "churn": a seeded mix of requests, re-grants and
    #: revokes over a large preloaded policy.
    loop: str
    #: Percentile reported as "<op>_ms_tail", fixed per workload so that
    #: at least ten samples lie beyond it in a run of BENCHMARK.json's
    #: run_seconds on a 2-core machine.
    tail: Dict[str, int]


WORKLOADS = {w.name: w for w in [
    Workload(
        name="bulk-additive",
        why="64 KiB Additive-mode payloads: the keystream mask does nearly "
            "all the work, and revoke cost does not depend on file size",
        payload_bytes=64 * 1024, mode="additive", n=1, files=16,
        consumers=64, per_grant=4, loop="revoke-cycle",
        tail={"grant": 50, "request": 75, "revoke": 50}),
    Workload(
        name="power-mode",
        why="16 KiB Power-mode payloads with n=3: the per-symbol substitution "
            "and 25x wider envelopes dominate, requests cost twice grants",
        payload_bytes=16 * 1024, mode="power", n=3, files=16,
        consumers=64, per_grant=4, loop="revoke-cycle",
        tail={"grant": 60, "request": 80, "revoke": 60}),
    Workload(
        name="policy-churn",
        why="1 KiB payloads over a 300-grant policy: JSON policy persistence "
            "and store open dominate every command, writes beside reads",
        payload_bytes=1024, mode="additive", n=1, files=300,
        consumers=64, per_grant=8, loop="churn",
        tail={"grant": 80, "request": 90, "revoke": 70}),
]}

#: Operations in one churn cycle: 60% request, 25% re-grant, 15% revoke.
CHURN_CYCLE = ["request"] * 12 + ["grant"] * 5 + ["revoke"] * 3


@dataclass
class FileState:
    payload: bytes
    consumers: List[str]
    point: Tuple[int, int]


@dataclass
class Sample:
    """One command, its times scaled to REFERENCE_S (see reference_task)."""

    op: str
    seconds: float
    #: Time since the previous command ended: this command plus the
    #: client's own work before it (payload generation, file writes).
    segment: float
    raw_seconds: float
    command: int
    traced: bool


class Client:
    """The operator: issues commands, tracks owner points, checks outputs."""

    def __init__(self, workload: Workload, work: Path, seed: int):
        self.w = workload
        self.work = work
        self.store = work / "store"
        self.infile = work / "in.bin"
        self.outfile = work / "out.bin"
        self.seed = seed
        self.files: Dict[str, FileState] = {}
        self.samples: List[Sample] = []
        self._mark = self._last_reference = 0.0
        self.violations: List[str] = []
        self.sealed_bytes = 0
        self.opened_bytes = 0
        self.traced = False
        self.tracer = None

    # -- one command ------------------------------------------------------

    def _cli(self, op: str, argv: List[str]) -> Tuple[int, str]:
        command = len(self.samples)
        if self.tracer is not None:
            self.tracer.command = command
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = perf_counter()
            rc = trishare.cli.cli_dispatch(argv)
            seconds = perf_counter() - start
        reference = reference_task()
        now = perf_counter()
        scale = 2 * REFERENCE_S / (self._last_reference + reference)
        self.samples.append(Sample(op, seconds * scale,
                                   (now - reference - self._mark) * scale,
                                   seconds, command, self.traced))
        self._mark, self._last_reference = now, reference
        return rc, out.getvalue()

    def start_clock(self) -> None:
        """Take the reference that the next command is scaled against."""
        self._last_reference = reference_task()
        self._mark = perf_counter()

    def _fail(self, message: str) -> None:
        self.violations.append(message)

    def _common(self) -> List[str]:
        return ["--json", "--store", str(self.store)]

    def register(self, user: str, kind: str) -> None:
        rc, _ = self._cli("register", ["register", *self._common(), "--user-id", user,
                                       "--type", kind, "--credentials", f"{user}-{self.seed}"])
        if rc != 0:
            self._fail(f"register {user}: exit {rc}")

    def grant(self, fid: str, consumers: List[str], payload: bytes) -> None:
        self.infile.write_bytes(payload)
        rc, out = self._cli("grant", [
            "grant", *self._common(), "--file-id", fid, "--owner", "owner",
            "--consumers", ",".join(consumers), "--in", str(self.infile),
            "--mode", self.w.mode, "--n", str(self.w.n)])
        if rc != 0:
            self._fail(f"grant {fid}: exit {rc}")
            return
        doc = json.loads(out)
        if sorted(doc["consumers"]) != sorted(consumers):
            self._fail(f"grant {fid}: consumers {doc['consumers']}")
        point = (doc["owner_point"]["x"], doc["owner_point"]["y"])
        self.files[fid] = FileState(payload, list(consumers), point)
        self.sealed_bytes += len(payload)

    def request(self, fid: str, receiver: str, point: Tuple[int, int],
                expect_ok: bool) -> None:
        self.outfile.unlink(missing_ok=True)
        rc, _ = self._cli("request" if expect_ok else "refused", [
            "request", *self._common(), "--file-id", fid, "--receiver", receiver,
            "--owner-point", f"{point[0]}:{point[1]}", "--out", str(self.outfile)])
        if not expect_ok:
            if rc != 1:
                self._fail(f"request {fid} by {receiver}: exit {rc}, expected refusal")
            return
        if rc != 0:
            self._fail(f"request {fid} by {receiver}: exit {rc}")
            return
        if self.outfile.read_bytes() != self.files[fid].payload:
            self._fail(f"request {fid} by {receiver}: plaintext differs")
            return
        self.opened_bytes += len(self.files[fid].payload)

    def revoke(self, fid: str, user: str) -> None:
        rc, out = self._cli("revoke", ["revoke", *self._common(), "--file-id", fid,
                                       "--user", user])
        if rc != 0:
            self._fail(f"revoke {user} from {fid}: exit {rc}")
            return
        state = self.files[fid]
        x, y = state.point
        # The owner applies delta(x) = sum_i delta_i * x^i to their own point.
        shift = sum(d * pow(x, i, P) for i, d in
                    enumerate(json.loads(out)["owner_deltas"], start=1))
        state.point = (x, (y + shift) % P)
        state.consumers.remove(user)

    # -- workload structure -----------------------------------------------

    def consumer_ids(self) -> List[str]:
        return [f"u{i:03d}" for i in range(self.w.consumers)]

    def file_ids(self) -> List[str]:
        return [f"f{i:03d}" for i in range(self.w.files)]

    def setup(self) -> None:
        """Register users and preload the file pool, all through the CLI."""
        rng = random.Random(self.seed)
        self.start_clock()
        self.register("owner", "owner")
        users = self.consumer_ids()
        for user in users:
            self.register(user, "consumer")
        for i, fid in enumerate(self.file_ids()):
            self.grant(fid, self._grantees(rng, i, users),
                       rng.randbytes(self.w.payload_bytes))

    def _grantees(self, rng: random.Random, i: int, users: List[str]) -> List[str]:
        if self.w.loop == "revoke-cycle":
            # Each file keeps its own consumers, so revoked ones stay revoked.
            return users[i * self.w.per_grant:(i + 1) * self.w.per_grant]
        return rng.sample(users, self.w.per_grant)

    def cycle(self, rng: random.Random, index: int) -> None:
        if self.w.loop == "revoke-cycle":
            self._revoke_cycle(rng, index)
        else:
            self._churn_cycle(rng)

    def _revoke_cycle(self, rng: random.Random, index: int) -> None:
        i = index % self.w.files
        fid = self.file_ids()[i]
        self.grant(fid, self._grantees(rng, i, self.consumer_ids()),
                   rng.randbytes(self.w.payload_bytes))
        state = self.files[fid]
        for user in rng.sample(state.consumers, 2):
            self.request(fid, user, state.point, expect_ok=True)
        revoked = rng.choice(state.consumers)
        stale = state.point
        self.revoke(fid, revoked)
        self.request(fid, revoked, state.point, expect_ok=False)
        self.request(fid, rng.choice(state.consumers), stale, expect_ok=False)

    def _churn_cycle(self, rng: random.Random) -> None:
        fids = self.file_ids()
        for op in rng.sample(CHURN_CYCLE, len(CHURN_CYCLE)):
            if op == "revoke":
                # Leave a consumer on every file, so requests stay possible.
                fid = rng.choice([f for f in fids if len(self.files[f].consumers) > 1])
                self.revoke(fid, rng.choice(self.files[fid].consumers))
                continue
            fid = rng.choice(fids)
            if op == "request":
                state = self.files[fid]
                self.request(fid, rng.choice(state.consumers), state.point,
                             expect_ok=True)
            else:
                self.grant(fid, self._grantees(rng, 0, self.consumer_ids()),
                           rng.randbytes(self.w.payload_bytes))

    def live_payload_bytes(self) -> int:
        return sum(len(state.payload) for state in self.files.values())

    def store_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.store.rglob("*") if p.is_file())

