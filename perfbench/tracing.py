"""Per-layer spans recorded from outside the program.

While a traced cycle runs, each layer function in ``SPANS`` is replaced,
in the namespace its caller looks it up in (``trishare.authz.seal_file``,
``trishare.cipher.xor_mask``, ``ObjectStore.put_object``, ...), by a
wrapper that records a span: name, start, end, parent span and command
id.  ``remove`` puts the original functions back, so untraced cycles run
the program exactly as shipped.

A span's self time is its duration minus the time its child spans cover.
Every command runs under a ``cli.cli_dispatch`` span, so the self times
of one workload sum to its mean command time.
"""

from __future__ import annotations

import importlib
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from trishare.errors import Error
from trishare.storage import ObjectStore


def _arg_len(i: int) -> Callable:
    return lambda tracer, args, result: len(args[i])


def _result_len(tracer, args, result) -> int:
    return len(result)


def _store_open(tracer, args, result) -> None:
    store = args[0]
    tracer.extra["storage.ObjectStore.open.blobs_loaded"] += len(store.objects)
    tracer.extra["storage.ObjectStore.open.bytes_loaded"] += sum(
        len(blob) for blob in store.objects.values())


def _binding_pass(tracer, args, result) -> None:
    tracer.extra["interpolate.verify_binding.passes"] += bool(result)


# (span name, namespace the caller looks the function up in, attribute,
#  measure).  A measure returning a number adds it to "<span>.bytes"
#  (or to the key given as a fourth element); one returning None books
#  its own counters.
SPANS: List[Tuple] = [
    ("cli.cli_dispatch", "trishare.cli", "cli_dispatch", None),
    ("cli.build_parser", "trishare.cli", "build_parser", None),
    ("authz.db_from_json", "trishare.authz", "db_from_json", _arg_len(0),
     "authz.policy_bytes"),
    ("authz.db_to_json", "trishare.authz", "db_to_json", _result_len,
     "authz.policy_bytes"),
    ("authz.grant_access", "trishare.authz", "grant_access", None),
    ("authz.request_decrypt", "trishare.authz", "request_decrypt", None),
    ("authz.revoke_user", "trishare.authz", "revoke_user", None),
    ("cipher.derive_file_key", "trishare.authz", "derive_file_key", None),
    ("cipher.seal_file", "trishare.authz", "seal_file", None),
    ("cipher.open_file", "trishare.authz", "open_file", None),
    ("keystream.xor_mask", "trishare.cipher", "xor_mask", _arg_len(0)),
    ("cipher.encrypt_bytes", "trishare.cipher", "encrypt_bytes", _arg_len(0)),
    ("cipher.decrypt_bytes", "trishare.cipher", "decrypt_bytes", _arg_len(0)),
    ("storage.encode_envelope", "trishare.authz", "encode_envelope", None),
    ("storage.decode_envelope", "trishare.authz", "decode_envelope", None),
    ("storage.ObjectStore.open", ObjectStore, "__init__", _store_open),
    ("storage.put_object", ObjectStore, "put_object", _arg_len(2)),
    ("storage.get_object", ObjectStore, "get_object", _result_len),
    ("storage.write_text", ObjectStore, "write_text", _arg_len(2)),
    ("sharing.derive_attribute_tokens", "trishare.authz",
     "derive_attribute_tokens", None),
    ("sharing.split_secret", "trishare.authz", "split_secret", None),
    ("sharing.binding_code", "trishare.authz", "binding_code", None),
    ("sharing.encrypt_share", "trishare.authz", "encrypt_share", None),
    ("sharing.decrypt_share", "trishare.authz", "decrypt_share", None),
    ("interpolate.reconstruct_polynomial", "trishare.authz",
     "reconstruct_polynomial", None),
    ("interpolate.verify_binding", "trishare.authz", "verify_binding",
     _binding_pass),
]

BYTE_COUNTERS = ["keystream.xor_mask.bytes", "cipher.encrypt_bytes.bytes",
                 "cipher.decrypt_bytes.bytes", "authz.policy_bytes",
                 "storage.put_object.bytes", "storage.get_object.bytes",
                 "storage.write_text.bytes",
                 "storage.ObjectStore.open.blobs_loaded",
                 "storage.ObjectStore.open.bytes_loaded"]


def metric_units() -> Dict[str, str]:
    """Every per-layer metric name the traced run reports, with its unit."""
    units = {}
    for entry in SPANS:
        name = entry[0]
        units[f"{name}.calls"] = "count/cmd"
        units[f"{name}.self_ms"] = "ms/cmd"
        units[f"{name}.errors"] = "count/cmd"
    for key in BYTE_COUNTERS:
        units[key] = "count/cmd" if key.endswith("blobs_loaded") else "B/cmd"
    units["storage.ObjectStore.open.useful_ratio"] = "ratio"
    units["sharing.derive_attribute_tokens.per_revoke"] = "count/revoke"
    units["interpolate.verify_binding.pass_ratio"] = "ratio"
    units["trace.overhead_ratio"] = "ratio"
    return units


class Tracer:
    """In-memory span recorder; spans are written out when the run ends."""

    def __init__(self) -> None:
        # (name, start, end, parent index or -1, command id, error class)
        self.spans: List[Tuple[str, float, float, int, int, Optional[str]]] = []
        self.extra: Dict[str, float] = defaultdict(float)
        self.command = -1
        self._stack: List[int] = []
        self._saved: List[Tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable, measure: Optional[Callable],
              counter: str) -> Callable:
        spans, stack, extra = self.spans, self._stack, self.extra

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            error = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Error as exc:
                error = type(exc).__name__
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.command, error)
            if measure is not None:
                value = measure(self, args, result)
                if value is not None:
                    extra[counter] += value
            return result

        return traced

    def install(self) -> None:
        """Swap every span's function for its traced wrapper."""
        for name, where, attr, measure, *counter in SPANS:
            target = importlib.import_module(where) if isinstance(where, str) else where
            original = getattr(target, attr)
            self._saved.append((target, attr, original))
            setattr(target, attr, self._wrap(name, original, measure,
                                             counter[0] if counter else f"{name}.bytes"))

    def remove(self) -> None:
        """Put the original functions back."""
        while self._saved:
            target, attr, original = self._saved.pop()
            setattr(target, attr, original)

    def self_times(self, scales: Dict[int, float]) -> List[Tuple[str, int, float]]:
        """(name, command id, self seconds) for every recorded span.

        Each span is multiplied by its command's entry in ``scales``, the
        factor that took the command's own time to the reference speed.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, cmd, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [(name, cmd, (end - start - child[i]) * scales[cmd])
                for i, (name, start, end, parent, cmd, _) in enumerate(self.spans)]

    def metrics(self, kinds: Dict[int, str], scales: Dict[int, float],
                overhead_ratio: float) -> Dict[str, float]:
        """Per-layer metrics over the traced commands, normalised per command.

        ``kinds`` maps each traced command id to its operation
        (grant/request/revoke), ``scales`` to its time scale factor.
        """
        n_cmds = len(kinds)
        calls: Counter = Counter()
        self_s: Counter = Counter()
        errors: Counter = Counter()
        revoke_tokens = 0
        for (name, cmd, self_time), span in zip(self.self_times(scales), self.spans):
            calls[name] += 1
            self_s[name] += self_time
            if span[5] is not None:
                errors[name] += 1
            if name == "sharing.derive_attribute_tokens" and kinds[cmd] == "revoke":
                revoke_tokens += 1
        out: Dict[str, float] = {}
        for entry in SPANS:
            name = entry[0]
            out[f"{name}.calls"] = calls[name] / n_cmds
            out[f"{name}.self_ms"] = self_s[name] * 1e3 / n_cmds
            out[f"{name}.errors"] = errors[name] / n_cmds
        for key in BYTE_COUNTERS:
            out[key] = self.extra[key] / n_cmds
        loaded = self.extra["storage.ObjectStore.open.blobs_loaded"]
        out["storage.ObjectStore.open.useful_ratio"] = (
            calls["storage.get_object"] / loaded if loaded else 0.0)
        n_revokes = sum(1 for kind in kinds.values() if kind == "revoke")
        out["sharing.derive_attribute_tokens.per_revoke"] = (
            revoke_tokens / n_revokes if n_revokes else 0.0)
        checks = calls["interpolate.verify_binding"]
        out["interpolate.verify_binding.pass_ratio"] = (
            self.extra["interpolate.verify_binding.passes"] / checks if checks else 0.0)
        out["trace.overhead_ratio"] = overhead_ratio
        return out

    def self_time_table(self, kinds: Dict[int, str],
                        scales: Dict[int, float]) -> List[dict]:
        """Self time per span, overall and per operation kind, largest first."""
        per_kind_cmds = Counter(kinds.values())
        total: Counter = Counter()
        by_kind: Dict[str, Counter] = defaultdict(Counter)
        for name, cmd, self_time in self.self_times(scales):
            total[name] += self_time
            by_kind[kinds[cmd]][name] += self_time
        grand = sum(total.values()) or 1.0
        rows = []
        for name, seconds in total.most_common():
            rows.append({
                "span": name,
                "self_ms_per_cmd": seconds * 1e3 / len(kinds),
                "share": seconds / grand,
                "self_ms_per_op": {kind: by_kind[kind][name] * 1e3 / n
                                   for kind, n in sorted(per_kind_cmds.items())},
            })
        return rows

    def error_classes(self) -> Dict[str, Dict[str, int]]:
        """Typed errors raised through each span, by class."""
        out: Dict[str, Counter] = defaultdict(Counter)
        for name, _, _, _, _, error in self.spans:
            if error is not None:
                out[name][error] += 1
        return {name: dict(classes) for name, classes in sorted(out.items())}

    def span_records(self, origin: float) -> List[dict]:
        """Spans as JSON-ready records, times in ms from ``origin``."""
        return [{"id": i, "name": name, "start_ms": (start - origin) * 1e3,
                 "end_ms": (end - origin) * 1e3, "parent": parent,
                 "command": cmd, "error": error}
                for i, (name, start, end, parent, cmd, error) in enumerate(self.spans)]
