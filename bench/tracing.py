"""Span tracer for the benchmark's traced run.

The tracer wraps public functions and methods of the rfpop layers from the
outside: nothing under src/ changes.  Each wrapped call records one span
(id, name, start, end, parent id, op id) in memory; spans are written out as
CSV when the run ends.  A span's self time is its duration minus the time of
the wrapped calls nested inside it, so each layer's self time excludes the
layers it calls into.

A function imported with `from ... import name` is bound separately in every
importing module, so a function is patched at every rfpop module that holds
the same object, and `REQUIRED_BINDINGS` asserts that the bindings the hot
paths go through were among them.

Spans are attributed to the op in progress (`Tracer.op`), which the benchmark
sets around each timed op; calls outside the timed phase still record spans
but only count towards the whole-run totals (`all_*`).
"""

from __future__ import annotations

import csv
import functools
import itertools
import os
import sys
import threading
import time
from array import array
from collections import Counter
from typing import Callable, Optional

import rfpop.app.dbfile
import rfpop.app.netrun
import rfpop.app.wire
import rfpop.counterexample
import rfpop.harness.experiments
import rfpop.harness.oracles
import rfpop.ma
import rfpop.model.database
import rfpop.model.session
import rfpop.pop
import rfpop.primitives.bitstring
import rfpop.primitives.ec
import rfpop.primitives.prf
import rfpop.primitives.rng
import rfpop.primitives.sig
import rfpop.system

# Bindings the traced workloads call through; each must end up wrapped.
REQUIRED_BINDINGS = (
    ("rfpop.ma", "prf_eval"),
    ("rfpop.pop", "prf_eval"),
    ("rfpop.harness.experiments", "cred_gen"),
    ("rfpop.harness.oracles", "cred_gen"),
    ("rfpop.app.netrun", "cred_gen"),
    ("rfpop.app.netrun", "append_journal"),
    ("rfpop.app.netrun", "read_frame"),
)

# Span name -> layer whose self time it counts towards.
LAYER_OF = {
    "prf_eval": "prf",
    "hash_digest": "prf",
    "point_mul": "ec",
    "FullTimeSigner.sign": "sig",
    "FullTimeSigner.verify_key": "sig",
    "KTimeSigner.sign_at": "sig",
    "KTimeSigner.verify_key": "sig",
    "VerifyKey.verify": "sig",
    "Rng.__init__": "rng",
    "Rng.take_bytes": "rng",
    "Rng.take_bits": "rng",
    "Rng.spawn": "rng",
    "Reader.start": "session",
    "Reader.step": "session",
    "Reader.timeout": "session",
    "Tag.step": "session",
}

_PROTOCOL_CALLBACKS = (
    "reader_open",
    "reader_on_message",
    "tag_respond",
    "tag_on_message",
    "tag_terminal",
)
_ORACLES = (
    "o1_init_reader",
    "o2_send_tag",
    "o3_send_reader",
    "o4_corrupt",
    "o5_get_cred",
    "advance_time",
)
_SPAN_FIELDS = ("id", "name", "start_ns", "end_ns", "parent_id", "op")


class Tracer:
    """In-memory span store with per-name totals for the timed ops."""

    def __init__(self):
        self.op: Optional[int] = None
        self.enabled = True
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._names: dict[str, int] = {}
        self._spans = {key: array("q") for key in _SPAN_FIELDS}
        self._lock = threading.Lock()
        # Totals over spans that started inside a timed op.
        self.calls = Counter()
        self.incl_ns = Counter()
        self.self_ns = Counter()
        # Totals over every span of the run, set-up included.
        self.all_calls = Counter()
        self.all_incl_ns = Counter()
        # Event counts and sums taken inside timed ops.
        self.counts = Counter()
        self.max_history = 0
        self.patched: dict[str, list[str]] = {}

    # -- recording -----------------------------------------------------------

    def wrap(self, name: str, fn: Callable, before=None, after=None) -> Callable:
        """Return `fn` wrapped in a span called `name`.

        `before(args)` runs ahead of the call and its value is handed to
        `after(args, result, duration_ns, before_value)`, which runs once the
        call has returned (inside a timed op only).
        """
        tracer = self
        local = self._local
        ids = self._ids
        clock = time.perf_counter_ns
        name_id = self._names.setdefault(name, len(self._names))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            op = tracer.op
            prior = before(args) if before is not None and op is not None else None
            frame = [next(ids), 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent_id = 0
                if stack:
                    stack[-1][1] += duration
                    parent_id = stack[-1][0]
                tracer._record(frame[0], name_id, name, start, end, parent_id, op,
                               duration, duration - frame[1])
            if after is not None and op is not None:
                with tracer._lock:
                    after(args, result, duration, prior)
            return result

        return traced

    def _record(self, span_id, name_id, name, start, end, parent_id, op, duration, own):
        with self._lock:
            spans = self._spans
            spans["id"].append(span_id)
            spans["name"].append(name_id)
            spans["start_ns"].append(start)
            spans["end_ns"].append(end)
            spans["parent_id"].append(parent_id)
            spans["op"].append(-1 if op is None else op)
            self.all_calls[name] += 1
            self.all_incl_ns[name] += duration
            if op is not None:
                self.calls[name] += 1
                self.incl_ns[name] += duration
                self.self_ns[name] += own

    def span_count(self) -> int:
        return len(self._spans["id"])

    def write_spans(self, path: str):
        """Write every span as one CSV row; op is -1 outside the timed ops."""
        names = {v: k for k, v in self._names.items()}
        spans = self._spans
        with open(path, "w", newline="", encoding="ascii") as handle:
            out = csv.writer(handle)
            out.writerow(_SPAN_FIELDS)
            for row in zip(*(spans[key] for key in _SPAN_FIELDS)):
                out.writerow((row[0], names[row[1]], *row[2:]))

    # -- patching ------------------------------------------------------------

    def patch_function(self, module, attr: str, name: Optional[str] = None, **hooks):
        """Wrap `module.attr` at every rfpop module that bound the same object."""
        original = getattr(module, attr)
        wrapper = self.wrap(name or attr, original, **hooks)
        where = []
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "rfpop" and not mod_name.startswith("rfpop."):
                continue
            if getattr(mod, "__dict__", {}).get(attr) is original:
                setattr(mod, attr, wrapper)
                where.append(mod_name)
        self.patched[name or attr] = where
        return wrapper

    def patch_method(self, cls, attr: str, name: Optional[str] = None, **hooks):
        original = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(name or f"{cls.__name__}.{attr}", original, **hooks))

    def install(self):
        """Wrap every layer the per-layer metrics read."""
        counts = self.counts
        lock = self._lock
        tracer = self

        prf = rfpop.primitives.prf
        self.patch_function(prf, "prf_eval")
        self.patch_function(prf, "hash_digest")
        self.patch_function(rfpop.primitives.ec, "point_mul")

        sig = rfpop.primitives.sig
        for cls, attrs in (
            (sig.FullTimeSigner, ("sign", "verify_key")),
            (sig.KTimeSigner, ("sign_at", "verify_key")),
            (sig.VerifyKey, ("verify",)),
            (rfpop.primitives.rng.Rng, ("__init__", "take_bytes", "take_bits", "spawn")),
            (rfpop.model.session.Reader, ("start", "step", "timeout")),
            (rfpop.model.session.Tag, ("step",)),
            (rfpop.harness.oracles.OracleHub, _ORACLES),
        ):
            for attr in attrs:
                layer = "harness.oracle" if cls is rfpop.harness.oracles.OracleHub else None
                self.patch_method(cls, attr, layer)
        for cls in (rfpop.ma.MaProtocol, rfpop.pop.PopProtocol, rfpop.counterexample.CexProtocol):
            for attr in _PROTOCOL_CALLBACKS:
                self.patch_method(cls, attr, "protocol")

        bitstring = rfpop.primitives.bitstring.BitString
        post_init = bitstring.__post_init__

        def counted_post_init(self_):
            if tracer.op is not None:
                with lock:
                    counts["bitstring.objects"] += 1
            post_init(self_)

        bitstring.__post_init__ = counted_post_init

        # Step 2 of the reader's authentication is the only caller of
        # records_ascending inside an op; count its entries and records.
        database = rfpop.model.database.ReaderDatabase
        ascending = database.records_ascending

        def records_ascending(self_):
            if tracer.op is not None:
                with lock:
                    counts["ma.step2_entries"] += 1
            for rec in ascending(self_):
                if tracer.op is not None:
                    with lock:
                        counts["ma.records_scanned"] += 1
                yield rec

        database.records_ascending = records_ascending

        def auth_after(args, result, duration, entries_before):
            if result.accepted:
                counts["ma.accepted"] += 1
                counts["ma.accepted_step2"] += result.via_step == 2
            if counts["ma.step2_entries"] > entries_before:
                counts["ma.step2_ns"] += duration

        self.patch_function(rfpop.ma, "ma_reader_auth",
                            before=lambda args: counts["ma.step2_entries"], after=auth_after)

        history = rfpop.model.database.History

        def history_after(args, result, duration, prior):
            tracer.max_history = max(tracer.max_history, len(args[0].sessions))

        def db_at_after(args, result, duration, prior):
            counts["db_at.deltas"] += args[1]

        self.patch_method(history, "append", after=history_after)
        self.patch_method(history, "db_at", after=db_at_after)

        self.patch_function(rfpop.pop, "cred_gen")
        self.patch_function(rfpop.pop, "cred_veri")
        for attr in ("build_ma_system", "build_pop_system", "build_cex_system"):
            wrapped = self.patch_function(rfpop.system, attr, "system.build")
            for key, builder in rfpop.system.SYSTEM_BUILDERS.items():
                if builder.__name__ == attr and builder is not wrapped:
                    rfpop.system.SYSTEM_BUILDERS[key] = wrapped

        main = threading.main_thread()

        def frame_after(args, frame, duration, prior):
            counts["wire.frames"] += 1
            counts["wire.bytes"] += rfpop.app.wire._HEADER.size + len(frame.payload)
            if threading.current_thread() is main:
                counts["wire.client_wait_ns"] += duration

        self.patch_function(rfpop.app.wire, "read_frame", after=frame_after)

        def journal_after(args, result, duration, size_before):
            counts["journal.bytes"] += os.path.getsize(args[0]) - size_before

        dbfile = rfpop.app.dbfile
        self.patch_function(dbfile, "append_journal",
                            before=lambda args: os.path.getsize(args[0]), after=journal_after)
        self.patch_function(dbfile, "load_tag", "tag_file")
        self.patch_function(dbfile, "save_tag", "tag_file")
        self.patch_function(dbfile, "load_db")

        for mod_name, attr in REQUIRED_BINDINGS:
            bound = getattr(sys.modules[mod_name], attr)
            if not hasattr(bound, "__wrapped__"):
                raise RuntimeError(f"tracer missed the binding {mod_name}.{attr}")

    # -- metrics -------------------------------------------------------------

    def layer_self_us(self, layer: str) -> float:
        return sum(ns for name, ns in self.self_ns.items() if LAYER_OF.get(name) == layer) / 1e3


def _per(total: float, n: int) -> float:
    return total / n if n else 0.0


def layer_metrics(tracer: Tracer, ops: int, counters, trial_names: dict[str, str],
                  speed_factor: float) -> dict:
    """Per-layer metrics of one traced run, as name -> (value, unit).

    `counters` is the OpCounters active over the timed ops; `trial_names`
    maps each games pairing's metric suffix to its span name.  Times are
    multiplied by `speed_factor`, the run's machine-speed correction.
    """
    c = tracer.counts
    us = lambda name: tracer.incl_ns[name] / 1e3  # noqa: E731
    metrics = {
        "primitives.bitstring.objects_per_op": (_per(c["bitstring.objects"], ops), "count"),
        "primitives.prf.us_per_op": (_per(tracer.layer_self_us("prf"), ops), "us"),
        "primitives.hashes_per_op": (_per(counters.hashes, ops), "count"),
        "primitives.point_muls_per_op": (_per(counters.point_muls, ops), "count"),
        "primitives.ec.us_per_op": (_per(tracer.layer_self_us("ec"), ops), "us"),
        "primitives.sig.us_per_op": (_per(tracer.layer_self_us("sig"), ops), "us"),
        "primitives.rng.us_per_op": (_per(tracer.layer_self_us("rng"), ops), "us"),
        "ma.reader_auth.us_per_op": (_per(us("ma_reader_auth"), ops), "us"),
        "ma.step2_share": (_per(c["ma.accepted_step2"], c["ma.accepted"]), "ratio"),
        "ma.records_scanned_per_step2": (
            _per(c["ma.records_scanned"], c["ma.step2_entries"]), "count"),
        "ma.scan_us_per_record": (_per(c["ma.step2_ns"] / 1e3, c["ma.records_scanned"]), "us"),
        "model.session.self_us_per_op": (_per(tracer.layer_self_us("session"), ops), "us"),
        "model.history.sessions_retained": (tracer.max_history, "count"),
        "model.database.db_at.us_per_op": (_per(us("History.db_at"), ops), "us"),
        "model.database.deltas_replayed_per_op": (_per(c["db_at.deltas"], ops), "count"),
        "pop.cred_gen.us_per_call": (_per(us("cred_gen"), tracer.calls["cred_gen"]), "us"),
        "pop.cred_gen.calls_per_op": (_per(tracer.calls["cred_gen"], ops), "count"),
        "pop.cred_veri.us_per_call": (_per(us("cred_veri"), tracer.calls["cred_veri"]), "us"),
        "system.build_us_per_call": (
            _per(us("system.build"), tracer.calls["system.build"]), "us"),
    }
    for suffix, span in trial_names.items():
        metrics[f"harness.trial_us.{suffix}"] = (_per(us(span), ops), "us")
    metrics.update({
        "harness.oracle_calls_per_op": (_per(tracer.calls["harness.oracle"], ops), "count"),
        "app.wire.frames_per_op": (_per(c["wire.frames"], ops), "count"),
        "app.wire.bytes_per_op": (_per(c["wire.bytes"], ops), "bytes"),
        "app.wire.recv_wait_us_per_op": (_per(c["wire.client_wait_ns"] / 1e3, ops), "us"),
        "app.dbfile.append_journal.us_per_op": (_per(us("append_journal"), ops), "us"),
        "app.dbfile.journal_bytes_per_op": (_per(c["journal.bytes"], ops), "bytes"),
        "app.dbfile.tag_file.us_per_op": (_per(us("tag_file"), ops), "us"),
        "app.dbfile.load_db.us": (
            _per(tracer.all_incl_ns["load_db"] / 1e3, tracer.all_calls["load_db"]), "us"),
    })
    return {name: (value * speed_factor if unit == "us" else value, unit)
            for name, (value, unit) in metrics.items()}
