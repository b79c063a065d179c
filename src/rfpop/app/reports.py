"""Measured cost reports: message bytes, stored-state bytes, operation counts.

Everything here is measured from live objects: transcripts come from actually
running a session, byte sizes from the real encoders, and operation counts
from the primitive-level counters.  Nothing is hardcoded, so the reports stay
honest if parameters change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from rfpop.harness.adversaries import drop_tag_replies
from rfpop.harness.oracles import OracleHub
from rfpop.model.session import relay
from rfpop.model.types import Msg, Transcript
from rfpop.pop import IMPL_KTIME, cred_gen
from rfpop.primitives.counters import OpCounters, counting
from rfpop.primitives.rng import Rng
from rfpop.primitives.sig import ktime_pk_size
from rfpop.system import System

from rfpop.app.config import Config, canonical_impl
from rfpop.app.dbfile import record_fields, tag_fields

IMPL_CHOICES = ("1", "2", "3", "ma")


def config_for_impl(impl: str, tags: int = 2, seed: str = "report") -> Config:
    """A small runnable config for one column of the cost tables."""
    if impl == "ma":
        return Config(mode="ma", tags=tags, seed=seed)
    name = canonical_impl(impl)
    if name == IMPL_KTIME:
        # The K-time verifying key holds K precomputed points, so live systems
        # keep K small; large budgets are reported via the size formula.
        return Config(mode="mapop", impl=name, K=8, lifetime=8, tags=tags, seed=seed)
    return Config(mode="mapop", impl=name, tags=tags, seed=seed)


@dataclass
class SessionMeasure:
    transcript: Transcript
    reader_ops: OpCounters
    tag_ops: OpCounters
    via_step: Optional[int]


def instrumented_session(system: System, tag_id: Optional[bytes] = None) -> SessionMeasure:
    """Run one honest session in the protocol's default mode, charging each
    party's operations separately."""
    reader = system.reader
    tag = system.tag(tag_id if tag_id is not None else system.first_tag_id())
    rng = system.rng
    reader_ops = OpCounters()
    tag_ops = OpCounters()
    with counting(reader_ops):
        sid, challenge = reader.start(rng)

    def to_tag(msg: Msg):
        with counting(tag_ops):
            return tag.step(sid, msg, rng)

    def to_reader(msg: Msg):
        with counting(reader_ops):
            return reader.step(sid, msg, rng)

    transcript = relay(sid, challenge, to_tag, to_reader)
    via_step = reader.history.sessions[-1].via_step if reader.history.sessions else None
    return SessionMeasure(transcript, reader_ops, tag_ops, via_step)


def report_sizes(impl: str, seed: str = "report-sizes") -> dict:
    config = config_for_impl(impl, seed=seed)
    system = config.build_system()
    transcript: Transcript = system.run_honest()
    params = system.params
    rec = next(iter(system.reader.db.records_ascending()))
    reader_parts = {name: len(blob) for name, blob in record_fields(config.mode, params, rec)}
    state = system.tag(system.first_tag_id()).state
    tag_parts = {name: len(blob) for name, blob in tag_fields(config.mode, params, state)}
    out = {
        "impl": impl,
        "mode": config.mode,
        "round_bytes": [len(m.payload) for m in transcript.messages],
        "reader_record_fields": reader_parts,
        "reader_record_bytes": sum(reader_parts.values()),
        "tag_state_fields": tag_parts,
        "tag_state_bytes": sum(tag_parts.values()),
    }
    if config.mode == "mapop":
        cred = cred_gen(params, system.reader, system.reader_signer, 1)
        out["credential_bytes"] = len(cred.encode())
        if config.impl == IMPL_KTIME:
            out["verify_key_bytes_at_k"] = {
                str(k): ktime_pk_size(k) for k in (config.K, 1 << 10, 1 << 17)
            }
    return out


def format_sizes(report: dict) -> str:
    lines = [f"impl: {report['impl']} (mode {report['mode']})"]
    rounds = ", ".join(
        f"round {i}: {n}" for i, n in enumerate(report["round_bytes"])
    )
    lines.append(f"message bytes: {rounds}")
    fields = " + ".join(f"{name}={n}" for name, n in report["reader_record_fields"].items())
    lines.append(f"reader record bytes: {report['reader_record_bytes']} ({fields})")
    fields = " + ".join(f"{name}={n}" for name, n in report["tag_state_fields"].items())
    lines.append(f"tag state bytes: {report['tag_state_bytes']} ({fields})")
    if "credential_bytes" in report:
        lines.append(f"credential bytes: {report['credential_bytes']}")
    if "verify_key_bytes_at_k" in report:
        sizes = ", ".join(f"K={k}: {n}" for k, n in report["verify_key_bytes_at_k"].items())
        lines.append(f"K-time verifying key bytes (68 + 64K): {sizes}")
    return "\n".join(lines)


def measure_scan_cost(tag_count: int, config: Config, seed: str = "scan") -> int:
    """Reader hash count to re-accept a desynchronized tag scanned last."""
    scan_config = config.with_overrides(mode="ma", impl="1", tags=tag_count)
    system = scan_config.build_system(Rng(f"{seed}-{tag_count}"))
    last = system.tag_ids()[-1]
    drop_tag_replies(OracleHub(system), last, 1, system.rng.spawn("desync"))
    measure = instrumented_session(system, tag_id=last)
    if measure.transcript.o_reader != 1 or measure.via_step != 2:
        raise RuntimeError("scan measurement expected a full-scan recovery")
    return measure.reader_ops.hashes


def report_ops(impl: str, seed: str = "report-ops") -> dict:
    config = config_for_impl(impl, seed=seed)
    sync_system = config.build_system(Rng(f"{seed}-sync"))
    sync = instrumented_session(sync_system)
    if not sync.transcript.completed:
        raise RuntimeError("sync measurement session failed")

    desync_system = config.build_system(Rng(f"{seed}-desync"))
    first = desync_system.first_tag_id()
    drop_tag_replies(OracleHub(desync_system), first, 1, desync_system.rng.spawn("desync"))
    desync = instrumented_session(desync_system, tag_id=first)
    if not desync.transcript.completed:
        raise RuntimeError("desync recovery session failed")

    scan_small = measure_scan_cost(100, config, seed=seed)
    scan_large = measure_scan_cost(200, config, seed=seed)
    return {
        "impl": impl,
        "mode": config.mode,
        "sync": {
            "tag": sync.tag_ops.as_dict(),
            "reader": sync.reader_ops.as_dict(),
            "via_step": sync.via_step,
        },
        "desync": {
            "tag": desync.tag_ops.as_dict(),
            "reader": desync.reader_ops.as_dict(),
            "via_step": desync.via_step,
        },
        "scan": {
            "tags_100_reader_hashes": scan_small,
            "tags_200_reader_hashes": scan_large,
            "ratio": round(scan_large / scan_small, 3),
        },
    }


def _ops_line(ops: dict) -> str:
    return (
        f"hashes={ops['hashes']} point_muls={ops['point_muls']} "
        f"scalar_muls={ops['scalar_muls']}"
    )


def format_ops(report: dict) -> str:
    lines = [f"impl: {report['impl']} (mode {report['mode']})"]
    for label in ("sync", "desync"):
        block = report[label]
        lines.append(f"{label} session (reader matched via step {block['via_step']}):")
        lines.append(f"  tag:    {_ops_line(block['tag'])}")
        lines.append(f"  reader: {_ops_line(block['reader'])}")
    scan = report["scan"]
    lines.append(
        "full-scan recovery: 100 tags -> {a} reader hashes, "
        "200 tags -> {b} reader hashes (ratio {r})".format(
            a=scan["tags_100_reader_hashes"],
            b=scan["tags_200_reader_hashes"],
            r=scan["ratio"],
        )
    )
    return "\n".join(lines)
