"""Command-line interface: setup, reports, experiments, credential checks."""

import dataclasses
import functools
import json
import os
import queue
import socket
import stat
import threading

import pytest

from rfpop.app import cli, files
from rfpop.app.cli import main
from rfpop.app.config import Config, save_config
from rfpop.app.dbfile import MAGIC, append_journal, load_db
from rfpop.app.framing import frame, pack_fields, unframe, unpack_fields
from rfpop.app.netrun import serve_reader, tag_run
from rfpop.app.tagfile import lock_tag
from rfpop.pop import cred_gen
from rfpop.primitives.rng import Rng


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_setup_writes_deterministic_artifacts(tmp_path, capsys):
    digests = []
    for name in ("one", "two"):
        out = tmp_path / name
        rc, stdout, _ = run_cli(capsys, "setup", "--out", str(out))
        assert rc == 0
        assert (out / "reader.db").exists()
        assert (out / "tag-000.json").exists()
        assert (out / "tag-001.json").exists()
        digests.append(
            next(l for l in stdout.splitlines() if l.startswith("parameter digest:"))
        )
    assert digests[0] == digests[1]


def test_setup_respects_tag_override(tmp_path, capsys):
    out = tmp_path / "many"
    rc, _, _ = run_cli(capsys, "setup", "--out", str(out), "--tags", "5")
    assert rc == 0
    assert len(list(out.glob("tag-*.json"))) == 5
    assert len(load_db(str(out / "reader.db")).initial) == 5


def test_report_sizes_json(capsys):
    rc, stdout, _ = run_cli(capsys, "report-sizes", "--impl", "1", "--json")
    assert rc == 0
    report = json.loads(stdout)
    assert report["round_bytes"] == [32, 96, 96, 96]
    assert report["reader_record_bytes"] == 192
    assert report["tag_state_bytes"] == 128
    assert report["credential_bytes"] == 211

    rc, stdout, _ = run_cli(capsys, "report-sizes", "--impl", "ma", "--json")
    report = json.loads(stdout)
    assert report["round_bytes"] == [32, 96, 32]
    assert report["reader_record_bytes"] == 96
    assert report["tag_state_bytes"] == 64
    assert "credential_bytes" not in report

    rc, stdout, _ = run_cli(capsys, "report-sizes", "--impl", "3", "--json")
    report = json.loads(stdout)
    assert report["round_bytes"] == [32, 96, 96, 64]
    assert report["credential_bytes"] == 179
    assert report["verify_key_bytes_at_k"]["8"] == 68 + 64 * 8


def test_report_sizes_text(capsys):
    rc, stdout, _ = run_cli(capsys, "report-sizes", "--impl", "2")
    assert rc == 0
    assert "reader record bytes: 192" in stdout


def test_report_sizes_text_gives_the_ktime_key_sizes(capsys):
    rc, stdout, _ = run_cli(capsys, "report-sizes", "--impl", "3")
    assert rc == 0
    assert ("K-time verifying key bytes (68 + 64K): K=8: 580, K=1024: 65604, K=131072: 8388676"
            in stdout.splitlines())


def test_report_ops_json(capsys):
    rc, stdout, _ = run_cli(capsys, "report-ops", "--impl", "1", "--json")
    assert rc == 0
    report = json.loads(stdout)
    assert report["sync"]["tag"] == {"hashes": 8, "point_muls": 1, "scalar_muls": 1}
    assert report["sync"]["via_step"] == 1
    assert report["desync"]["via_step"] == 2
    assert report["scan"]["tags_100_reader_hashes"] == 202
    assert report["scan"]["tags_200_reader_hashes"] == 402
    assert report["scan"]["ratio"] == 1.99

    rc, stdout, _ = run_cli(capsys, "report-ops", "--impl", "ma", "--json")
    report = json.loads(stdout)
    assert report["sync"]["tag"] == {"hashes": 3, "point_muls": 0, "scalar_muls": 0}
    assert report["sync"]["reader"]["hashes"] == 3


MA_OPS_TEXT = """\
impl: ma (mode ma)
sync session (reader matched via step 1):
  tag:    hashes=3 point_muls=0 scalar_muls=0
  reader: hashes=3 point_muls=0 scalar_muls=0
desync session (reader matched via step 2):
  tag:    hashes=3 point_muls=0 scalar_muls=0
  reader: hashes=4 point_muls=0 scalar_muls=0
full-scan recovery: 100 tags -> 202 reader hashes, 200 tags -> 402 reader hashes (ratio 1.99)
"""


def test_report_ops_text(capsys):
    rc, stdout, _ = run_cli(capsys, "report-ops", "--impl", "ma")
    assert rc == 0
    assert stdout == MA_OPS_TEXT
    rc, stdout, _ = run_cli(capsys, "report-ops", "--impl", "1")
    assert rc == 0
    assert "  tag:    hashes=8 point_muls=1 scalar_muls=1\n" in stdout


def test_experiment_pass_and_report_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc, stdout, _ = run_cli(
        capsys,
        "experiment",
        "--name", "cred-ufrg",
        "--adversary", "honest-replayer",
        "--trials", "5",
        "--seed", "cli-forge",
        "--out", str(out),
    )
    assert rc == 0
    assert "declared bound: zero forgery events -> PASS" in stdout
    report = json.loads(out.read_text())
    assert report["successes"] == 0
    assert report["extra"]["e1"] == 0


def test_experiment_detects_designed_flaw(capsys):
    rc, stdout, _ = run_cli(
        capsys,
        "experiment",
        "--name", "unp-star",
        "--adversary", "cex-distinguisher",
        "--protocol", "cex",
        "--trials", "40",
        "--seed", "cli-cex",
    )
    assert rc == 0
    assert "tracing flaw detected" in stdout
    assert "PASS" in stdout


def test_experiment_ptpt_broken_family(capsys):
    rc, stdout, _ = run_cli(
        capsys,
        "experiment",
        "--name", "ptpt",
        "--adversary", "identity-catcher",
        "--family", "broken-identity",
        "--trials", "40",
        "--seed", "cli-ptpt",
    )
    assert rc == 0
    assert "broken family caught" in stdout


def test_experiment_ptpt_prf_family_is_held_to_the_privacy_bound(capsys):
    rc, stdout, _ = run_cli(
        capsys,
        "experiment",
        "--name", "ptpt",
        "--adversary", "statistical-probe",
        "--trials", "20",
        "--seed", "cli-ptpt-prf",
    )
    assert rc == 0
    assert "declared bound: advantage <= 0.05 or interval contains 0 -> PASS" in stdout


def test_experiment_bit_option_reaches_the_bit_flipper(capsys):
    rc, stdout, _ = run_cli(
        capsys,
        "experiment",
        "--name", "unp-sharp",
        "--adversary", "bit-flipper",
        "--protocol", "ma",
        "--message-index", "2",
        "--bit", "5",
        "--trials", "4",
        "--seed", "cli-bit",
    )
    assert rc == 0
    assert "extra.adversary: bit-flipper-m2-b5" in stdout
    assert "declared bound: advantage <= 0.05 or interval contains 0 -> PASS" in stdout


def test_experiment_failing_bound_returns_one(capsys):
    # The repeated-query probe expects the two privacy notions to diverge,
    # but the flawed counter protocol answers its scripted checks identically
    # in both worlds, so the declared bound fails.
    rc, stdout, _ = run_cli(
        capsys,
        "experiment",
        "--name", "unp-star",
        "--adversary", "repeated-query",
        "--protocol", "cex",
        "--trials", "40",
        "--seed", "cli-fail",
    )
    assert rc == 1
    assert "FAIL" in stdout


def test_experiment_unknown_adversary_rc2(capsys):
    rc, _, stderr = run_cli(
        capsys,
        "experiment", "--name", "unp-sharp", "--adversary", "nope", "--trials", "2",
    )
    assert rc == 2
    assert "error:" in stderr


def test_experiment_unknown_ptpt_distinguisher_rc2(capsys):
    rc, stdout, stderr = run_cli(
        capsys,
        "experiment", "--name", "ptpt", "--adversary", "coin-flipper", "--trials", "2",
    )
    assert rc == 2
    assert stdout == ""
    assert stderr == "error: ptpt distinguishers: identity-catcher, statistical-probe\n"


@pytest.mark.parametrize("argv", [
    ["--name", "unp-sharp", "--adversary", "coin-flipper", "--protocol", "mapop", "--impl", "ma"],
    ["--name", "cred-ufrg", "--adversary", "honest-replayer", "--protocol", "cex"],
    ["--name", "cred-ufrg", "--adversary", "honest-replayer", "--protocol", "ma"],
], ids=["mapop-with-impl-ma", "cred-ufrg-cex", "cred-ufrg-ma"])
def test_experiment_that_would_run_something_else_rc2(capsys, argv):
    """A pairing that names a game the run would not play exits 2 with one
    line: `--impl ma` would run MA under a mapop label, and neither MA nor
    cex issues a credential a forger could attack."""
    rc, stdout, stderr = run_cli(capsys, "experiment", *argv, "--trials", "2")
    assert rc == 2
    assert stdout == ""
    assert stderr.startswith("error: ") and stderr.count("\n") == 1


def test_serve_reader_has_no_session_mode(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["serve-reader", "--db", "reader.db", "--mode", "ma"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --mode ma" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["serve-reader", "--db", "reader.db", "--sessions", "-3"],
        ["serve-reader", "--db", "reader.db", "--sessions", "0"],
        ["tag-run", "--tag", "tag.json", "--sessions", "-1"],
        ["tag-run", "--tag", "tag.json", "--sessions", "0"],
        ["tag-run", "--tag", "tag.json", "--sessions", "two"],
    ],
)
def test_sessions_below_one_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "argument --sessions" in capsys.readouterr().err


@pytest.mark.parametrize(
    "option, value, adversary",
    [
        ("--trials", "0", "coin-flipper"),
        ("--trials", "-3", "coin-flipper"),
        ("--drop-count", "-2", "desync-attacker"),
        ("--drop-count", "0", "desync-attacker"),
        ("--message-index", "0", "bit-flipper"),
        ("--message-index", "-1", "replayer"),
    ],
)
def test_experiment_counts_below_one_are_rejected(option, value, adversary, capsys):
    """A count below 1 is a usage error (exit 2, no run), not a traceback or
    an honest relay that prints PASS."""
    argv = ["experiment", "--name", "unp-sharp", "--adversary", adversary,
            "--protocol", "ma", "--trials", "2", option, value]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {option}: {value} is below 1" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [
    ["--adversary", "bit-flipper", "--protocol", "ma"],  # the default index, 4
    ["--adversary", "bit-flipper", "--protocol", "cex", "--message-index", "4"],
    ["--adversary", "bit-flipper", "--protocol", "mapop", "--message-index", "5"],
    ["--adversary", "replayer", "--protocol", "ma", "--message-index", "9"],
], ids=["flip-ma-default", "flip-cex-4", "flip-mapop-5", "replay-ma-9"])
def test_experiment_message_index_past_the_last_message_rc2(capsys, argv):
    """An index past the protocol's last message would attack nothing, so the
    run would relay honestly and print PASS; it exits 2 with one line."""
    rc, stdout, stderr = run_cli(capsys, "experiment", "--name", "unp-sharp", *argv,
                                 "--trials", "2")
    assert rc == 2
    assert stdout == ""
    assert stderr.startswith("error: --message-index") and stderr.count("\n") == 1


def test_experiment_message_index_check_builds_no_system(capsys, monkeypatch):
    """The round count comes from the config's protocol, so an index past
    the last message is refused before any party's keys are generated."""
    def no_build(*args, **kwargs):
        raise AssertionError("built a system to count rounds")

    monkeypatch.setattr(Config, "build_system", no_build)
    rc, stdout, stderr = run_cli(capsys, "experiment", "--name", "unp-sharp", "--adversary",
                                 "replayer", "--protocol", "mapop", "--impl", "3",
                                 "--message-index", "5", "--trials", "2")
    assert (rc, stdout) == (2, "")
    assert stderr == "error: --message-index 5 is past the last of mapop's 4 messages\n"


def test_missing_files_are_reported_without_a_traceback(tmp_path, capsys):
    missing = str(tmp_path / "missing.db")
    rc, _, stderr = run_cli(capsys, "cred", "verify", "--db", missing, "--cred", "x")
    assert rc == 2
    assert stderr.startswith("error: ") and "missing.db" in stderr
    rc, _, stderr = run_cli(capsys, "serve-reader", "--db", missing)
    assert rc == 2
    assert stderr.startswith("error: ") and "missing.db" in stderr


def test_tag_run_against_a_closed_port_is_reported(tmp_path, capsys):
    out = tmp_path / "sys"
    rc, _, _ = run_cli(capsys, "setup", "--out", str(out))
    assert rc == 0
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    rc, _, stderr = run_cli(
        capsys, "tag-run", "--tag", str(out / "tag-000.json"),
        "--host", "127.0.0.1", "--port", str(port),
    )
    assert rc == 2
    assert stderr.startswith("error: ")


def test_served_sessions_through_the_cli_exit_zero(tmp_path, capsys, monkeypatch):
    """`serve-reader` exits 0 once it has served its sessions, and `tag-run`
    exits 0 when the reader accepted every one."""
    out = tmp_path / "sys"
    rc, _, _ = run_cli(capsys, "setup", "--out", str(out))
    assert rc == 0
    ports = queue.Queue()
    monkeypatch.setattr(cli, "serve_reader", functools.partial(serve_reader, ready=ports.put))
    served = []
    argv = ["serve-reader", "--db", str(out / "reader.db"), "--host", "127.0.0.1", "--port", "0",
            "--sessions", "2"]
    thread = threading.Thread(target=lambda: served.append(main(argv)), daemon=True)
    thread.start()
    port = ports.get(timeout=5)
    rc = main(["tag-run", "--tag", str(out / "tag-000.json"), "--host", "127.0.0.1",
               "--port", str(port), "--sessions", "2"])
    thread.join(10)
    assert not thread.is_alive()
    assert (rc, served) == (0, [0])
    assert capsys.readouterr().err == ""


def serve_one_session(out, *tag_args) -> int:
    """Serve one session of `out`'s first tag, the tag run through the CLI
    with `tag_args`; returns `tag-run`'s exit code."""
    ports = queue.Queue()
    thread = threading.Thread(target=serve_reader, args=(str(out / "reader.db"),), daemon=True,
                              kwargs=dict(host="127.0.0.1", port=0, announce=lambda line: None,
                                          ready=ports.put))
    thread.start()
    rc = main(["tag-run", "--tag", str(out / "tag-000.json"), "--host", "127.0.0.1",
               "--port", str(ports.get(timeout=5)), *tag_args])
    thread.join(10)
    assert not thread.is_alive()
    return rc


def test_setup_into_a_served_deployment_exits_2_and_touches_nothing(tmp_path, capsys):
    """Re-running `setup` over a served deployment would wipe the journal
    and the state logs; it exits 2 and every file stays as it was. A config
    file in `--out` is allowed, as in the first run."""
    out = tmp_path / "deploy"
    out.mkdir()
    config = str(out / "config.json")
    save_config(Config(mode="ma", seed="cli-resetup"), config)
    assert run_cli(capsys, "setup", "--config", config, "--out", str(out))[0] == 0
    assert serve_one_session(out, "--config", config) == 0
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    assert {"config.json", "reader.db", "tag-000.json.log", "tag-001.json"} <= set(before)
    rc, _, stderr = run_cli(capsys, "setup", "--config", config, "--out", str(out))
    assert rc == 2
    assert stderr.startswith(f"error: {out} already holds a deployment: {out / 'reader.db'}, ")
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before


def test_setup_warns_about_the_default_seed(tmp_path, capsys):
    """Every key derives from the seed, so a deployment built from the
    built-in default can be derived by anyone: `setup` says so and still
    writes it. A config with its own seed gets no warning."""
    rc, _, stderr = run_cli(capsys, "setup", "--out", str(tmp_path / "default"))
    assert rc == 0
    assert stderr.startswith("warning: seed 'rfpop' is the built-in default") and stderr.count("\n") == 1
    config = str(tmp_path / "config.json")
    save_config(Config(seed="cli-own-seed"), config)
    assert run_cli(capsys, "setup", "--config", config, "--out", str(tmp_path / "own"))[::2] == (0, "")


def test_tag_run_on_a_missing_key_file_creates_no_file(tmp_path, capsys):
    """`tag-run` on a key file that is not there fails before it creates the
    file's state log, so a `setup` into that directory still runs."""
    out = tmp_path / "deploy"
    out.mkdir()
    missing = out / "typo.json"
    with pytest.raises(FileNotFoundError, match="typo.json"):
        tag_run(str(missing), Config())
    rc, _, stderr = run_cli(capsys, "tag-run", "--tag", str(missing))
    assert (rc, stderr) == (2, f"error: [Errno 2] No such file or directory: '{missing}'\n")
    assert list(out.iterdir()) == []
    assert run_cli(capsys, "setup", "--out", str(out))[0] == 0


@pytest.mark.parametrize("name", ["reader.db", "tag-007.json", "tag-000.json.log"])
def test_setup_refuses_any_part_of_a_deployment(tmp_path, capsys, name):
    out = tmp_path / "deploy"
    out.mkdir()
    (out / name).write_bytes(b"kept")
    rc, _, stderr = run_cli(capsys, "setup", "--out", str(out))
    assert (rc, stderr) == (2, f"error: {out} already holds a deployment: {out / name}\n")
    assert [(path.name, path.read_bytes()) for path in out.iterdir()] == [(name, b"kept")]


def test_secret_files_are_private_whatever_the_umask(tmp_path, capsys):
    """Under umask 022, every file `setup` and `tag-run` write is 0600, and
    so is a key file staged over a leftover that a crash left at 0644."""
    out = tmp_path / "deploy"
    out.mkdir()
    leftover = out / "tag-000.json.tmp"
    leftover.write_text("{")
    leftover.chmod(0o644)
    umask = os.umask(0o022)
    try:
        assert run_cli(capsys, "setup", "--out", str(out))[0] == 0
        assert serve_one_session(out, "--cred-out", str(out / "cred.bin")) == 0
    finally:
        os.umask(umask)
    modes = {path.name: stat.S_IMODE(path.stat().st_mode) for path in out.iterdir()}
    assert {"reader.db", "tag-000.json", "tag-000.json.log", "tag-001.json", "cred.bin"} <= set(modes)
    assert {name: oct(mode) for name, mode in modes.items() if mode & 0o077} == {}


@pytest.mark.parametrize("command, flag, name, lock, held", [
    ("serve-reader", "--db", "reader.db", files.lock, "reader.db"),
    ("tag-run", "--tag", "tag-000.json", lock_tag, "tag-000.json.log"),
], ids=["serve-reader", "tag-run"])
def test_a_file_another_process_holds_exits_2(tmp_path, capsys, command, flag, name, lock, held):
    """A reader holds its database, and a tag its key file's state log."""
    out = tmp_path / "sys"
    assert run_cli(capsys, "setup", "--out", str(out))[0] == 0
    path = str(out / name)
    with lock(path):
        rc, _, stderr = run_cli(capsys, command, flag, path, "--host", "127.0.0.1", "--port", "1")
    assert (rc, stderr) == (2, f"error: {out / held} is in use by another process\n")


@pytest.mark.parametrize("command", ["serve-reader", "tag-run"])
@pytest.mark.parametrize("port", ["70000", "-1"])
def test_a_port_outside_0_to_65535_is_reported(tmp_path, capsys, command, port):
    out = tmp_path / "sys"
    rc, _, _ = run_cli(capsys, "setup", "--out", str(out))
    assert rc == 0
    files = {"serve-reader": ["--db", str(out / "reader.db")],
             "tag-run": ["--tag", str(out / "tag-000.json")]}[command]
    rc, _, stderr = run_cli(capsys, command, *files, "--host", "127.0.0.1", "--port", port)
    assert rc == 2
    assert stderr == f"error: port must be 0-65535, got {port}\n"


def test_tag_run_on_a_cut_key_file_is_reported(tmp_path, capsys):
    out = tmp_path / "sys"
    rc, _, _ = run_cli(capsys, "setup", "--out", str(out))
    assert rc == 0
    tag = out / "tag-000.json"
    tag.write_bytes(tag.read_bytes()[:100])
    rc, _, stderr = run_cli(capsys, "tag-run", "--tag", str(tag), "--port", "1")
    assert rc == 2
    assert stderr.startswith("error: tag file ") and "is not JSON" in stderr
    assert stderr.count("\n") == 1


def test_experiment_bad_adversary_options_rc2(capsys):
    rc, _, stderr = run_cli(
        capsys,
        "experiment",
        "--name", "unp-sharp",
        "--adversary", "coin-flipper",
        "--drop-count", "3",  # coin-flipper takes no parameters
        "--trials", "2",
    )
    assert rc == 2
    assert "bad options" in stderr


def make_credential_files(tmp_path, capsys):
    out = tmp_path / "sys"
    rc, _, _ = run_cli(capsys, "setup", "--out", str(out))
    assert rc == 0
    # Reproduce the deployed system offline from the same seed and run one
    # accepted session to obtain a genuine credential.
    config = Config()
    system = config.build_system(Rng(config.seed))
    system.run_honest(mode="pop")
    cred = cred_gen(system.params, system.reader, system.reader_signer, 1)
    good = tmp_path / "good.cred"
    good.write_bytes(cred.encode())
    bad_sig = dataclasses.replace(
        cred, possession_sig=bytes([cred.possession_sig[0] ^ 1]) + cred.possession_sig[1:]
    )
    bad = tmp_path / "bad.cred"
    bad.write_bytes(bad_sig.encode())
    junk = tmp_path / "junk.cred"
    junk.write_bytes(b"\x00garbage")
    return out / "reader.db", good, bad, junk


def test_cred_verify_rcs(tmp_path, capsys):
    db, good, bad, junk = make_credential_files(tmp_path, capsys)
    rc, stdout, _ = run_cli(capsys, "cred", "verify", "--db", str(db), "--cred", str(good))
    assert rc == 0
    assert "cred_veri: 1" in stdout
    rc, stdout, _ = run_cli(capsys, "cred", "verify", "--db", str(db), "--cred", str(bad))
    assert rc == 2
    assert "cred_veri: 0" in stdout
    rc, stdout, stderr = run_cli(capsys, "cred", "verify", "--db", str(db), "--cred", str(junk))
    assert rc == 2
    assert stdout == ""
    assert stderr == "error: bad credential version byte\n"


def test_cred_verify_needs_extended_mode(tmp_path, capsys):
    out = tmp_path / "plain"
    cfg = tmp_path / "ma.json"
    cfg.write_text(json.dumps({"mode": "ma"}))
    rc, _, _ = run_cli(capsys, "setup", "--config", str(cfg), "--out", str(out))
    assert rc == 0
    anything = tmp_path / "x.cred"
    anything.write_bytes(b"\x01")
    rc, stdout, stderr = run_cli(
        capsys, "cred", "verify", "--db", str(out / "reader.db"), "--cred", str(anything)
    )
    assert rc == 2
    assert stdout == ""
    assert stderr.startswith("error: database has no key directory") and stderr.count("\n") == 1


def damaged_db(tmp_path, capsys, damage):
    """A set-up extended-mode reader.db with a one-session journal, damaged
    by `damage(blob, setup_len)`."""
    out = tmp_path / "sys"
    rc, _, _ = run_cli(capsys, "setup", "--out", str(out))
    assert rc == 0
    db = out / "reader.db"
    setup_len = db.stat().st_size
    config = Config()
    system = config.build_system(Rng(config.seed))
    system.run_honest()
    append_journal(str(db), config, system.reader.history.session(1))
    blob = db.read_bytes()
    db.write_bytes(damage(blob, setup_len))
    return db


def deep_metadata(blob, setup_len):
    """The metadata block replaced by JSON nested deeper than the decoder
    recurses, in a set-up framed with a valid checksum, so the JSON parser
    is what refuses it."""
    bodies, _torn = unframe(blob, len(MAGIC), "record", first=0)
    _meta, *records = unpack_fields(bodies[0], "set-up")
    bodies[0] = pack_fields([b"[" * 20000, *records])
    return MAGIC + b"".join(map(frame, bodies))


# Each damage, and the text its error line holds.
DB_DAMAGE = {
    "cut-in-setup": (lambda blob, setup_len: blob[: setup_len // 2], "has no whole set-up record"),
    "journal-marker": (lambda blob, setup_len: blob[:setup_len] + b"X" + blob[setup_len + 1 :],
                       "journal entry 1 has a damaged length"),
    "metadata-nested-too-deep": (deep_metadata, "metadata block is not JSON"),
}


@pytest.mark.parametrize("damage", sorted(DB_DAMAGE))
@pytest.mark.parametrize("command", ["serve-reader", "cred-verify"])
def test_a_damaged_database_is_reported(tmp_path, capsys, command, damage):
    damage, error = DB_DAMAGE[damage]
    db = damaged_db(tmp_path, capsys, damage)
    if command == "serve-reader":
        argv = ["serve-reader", "--db", str(db), "--host", "127.0.0.1", "--port", "0"]
    else:
        cred = tmp_path / "any.cred"
        cred.write_bytes(b"\x01")
        argv = ["cred", "verify", "--db", str(db), "--cred", str(cred)]
    rc, stdout, stderr = run_cli(capsys, *argv)
    assert rc == 2
    assert stdout == ""
    assert stderr.startswith("error: ") and stderr.count("\n") == 1
    assert "Traceback" not in stderr and error in stderr


def test_a_damaged_credential_is_reported(tmp_path, capsys):
    db, good, _, _ = make_credential_files(tmp_path, capsys)
    cut = tmp_path / "cut.cred"
    cut.write_bytes(good.read_bytes()[:-7])
    rc, stdout, stderr = run_cli(capsys, "cred", "verify", "--db", str(db), "--cred", str(cut))
    assert rc == 2
    assert stdout == ""
    assert stderr.startswith("error: truncated credential") and stderr.count("\n") == 1


@pytest.mark.parametrize("text", [b'{"mode": "ma", "tags": ', b'{"mode": "ma", "tags": "two"}', b"[]",
                                  b"\xff\xfe{}", b"[" * 20000, b'{"timeout_ticks": 1000000000000}'],
                         ids=["cut", "wrong-type", "not-an-object", "not-utf-8", "nested-too-deep",
                              "timeout-longer-than-a-socket-waits"])
def test_a_damaged_config_file_is_reported(tmp_path, capsys, text):
    cfg = tmp_path / "config.json"
    cfg.write_bytes(text)
    rc, stdout, stderr = run_cli(capsys, "setup", "--config", str(cfg), "--out", str(tmp_path / "s"))
    assert rc == 2
    assert stdout == ""
    assert stderr.startswith("error: ") and stderr.count("\n") == 1
