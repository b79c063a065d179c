"""Golden-bytes regression: seeded outputs must not change across commits.

Criterion 11 re-runs reports inside one process, so it cannot see a change
in the bytes a commit produces.  These digests pin, for fixed seeds, the cost
reports, honest transcripts, adversarial relays, credentials and experiment
reports.  A refactor that keeps behaviour keeps every digest; a digest that
moves means the seeded output moved, which must be deliberate and re-pinned.
"""

import hashlib
import json

import pytest

from rfpop.app.cli import main
from rfpop.app.config import Config, save_config
from rfpop.app.reports import report_ops, report_sizes
from rfpop.harness.adversaries import (
    DbSplicer,
    HonestReplayer,
    drop_tag_replies,
    make_adversary,
    relay_session,
)
from rfpop.harness.experiments import exp_cred_unforge, exp_unp_sharp
from rfpop.harness.oracles import OracleHub
from rfpop.model.types import Msg
from rfpop.primitives.rng import Rng


def digest(doc) -> str:
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("ascii")).hexdigest()


def bits_doc(b: bytes) -> list:
    return [8 * len(b), format(int.from_bytes(b, "big"), "x")]


def run_doc(run) -> dict:
    """Transcript-shaped result: sid, every message, both outputs."""
    return {
        "sid": None if run.sid is None else bits_doc(run.sid),
        "messages": [[m.round, *bits_doc(m.payload)] for m in run.messages],
        "o_reader": run.o_reader,
        "o_tag": run.o_tag,
    }


def history_doc(reader) -> list:
    return [
        {
            "j": rec.j,
            "sid": bits_doc(rec.sid),
            "o_reader": rec.o_reader,
            "tag_id": None if rec.tag_id is None else rec.tag_id.hex(),
            "mode": rec.mode,
            "via_step": rec.via_step,
            "note": rec.note,
            "messages": [[m.round, *bits_doc(m.payload)] for m in rec.messages],
        }
        for rec in reader.history.sessions
    ]


GOLDEN_REPORTS = {
    ("sizes", "1"): "9a3b123c6d5719ba03b95db6152154bfbb76d18f5ff733ebc36c7d6522bbeb35",
    ("sizes", "2"): "4d70b71e1d631e1e1d63481f5a58973a5740eec6c0d0dc32bd8ea9774363dddd",
    ("sizes", "3"): "0741fbf695233bc4241002cd056b0ccda03f4f9bf86a0a314a01f82facfde585",
    ("sizes", "ma"): "84cea20263562455058b195ac9634fad2f4f1b6f506a1e5dacb2e6bd83a8652e",
    ("ops", "1"): "4d83810099456025a2e5fa203a23b1d02217f71e755800dbb01cb30141a8f579",
    ("ops", "2"): "34a2631234e33dda5fc95f66b3770169042c38b6ea1725168f43fb691eb1d53d",
    ("ops", "3"): "5f7964b08e65bca89d2b8882abdab1313f077304b93594d09f84823ecb7a57a5",
    ("ops", "ma"): "5ec98a044dd143875af53e5545d46558f868e5d2436a128e2fd7d2db78e11a78",
}


@pytest.mark.parametrize("kind,impl", sorted(GOLDEN_REPORTS))
def test_cost_reports_are_pinned(kind, impl):
    report = report_sizes(impl) if kind == "sizes" else report_ops(impl)
    assert digest(report) == GOLDEN_REPORTS[kind, impl]


GOLDEN_HONEST = {
    "ma": "e0b61fee6f54821f2fcbf7eb231d2f01367026be679eef63d2c1ead65fe69c6a",
    "mapop": "6d98278a1f6e1a447a751edee8955b58dfdd30e4efa56a23fc80c8be55715b57",
    "cex": "8a8e0e6f4afd1fcae8c40ae6684b625adef101cc058cbb9f65084232214e8dc6",
}


@pytest.mark.parametrize("mode", sorted(GOLDEN_HONEST))
def test_honest_transcripts_are_pinned(mode):
    """15 honest sessions over three tags; every third session first knocks
    another tag's counter ahead, so Step-2 recoveries are in the pin too."""
    system = Config(mode=mode, tags=3, seed=f"golden-{mode}").build_system()
    ids = system.tag_ids()
    rng = system.rng
    width = system.protocol.slots()[0].byte_lengths[0]
    session_mode = "pop" if mode == "mapop" else None
    runs = []
    for i in range(15):
        if i % 3 == 2:
            stray = ids[(i + 1) % len(ids)]
            system.tag(stray).step(rng.take_bits(128), Msg(0, rng.take_bytes(width)), rng)
        runs.append(run_doc(system.run_honest(ids[i % len(ids)], mode=session_mode)))
    assert digest([runs, history_doc(system.reader)]) == GOLDEN_HONEST[mode]


def _pop_hub(seed):
    return OracleHub(Config(mode="mapop", tags=2, seed=seed).build_system())


GOLDEN_TAMPERED = "3f6be84243e1f30dc8f8efaa6a67235ba00327edc7e49b82f06634d12e1ec3d7"


def test_tampered_relays_are_pinned():
    """relay_session under every single-position flip, a replayed message at
    every position, and dropped tag replies."""
    docs = []
    for position in range(1, 5):
        hub = _pop_hub(f"golden-flip-{position}")
        tag = hub.system.first_tag_id()
        docs.append(run_doc(relay_session(hub, tag, flip_at=position, flip_bit=position)))
        docs.append(run_doc(relay_session(hub, tag)))
        docs.append(history_doc(hub.system.reader))
    for position in range(1, 5):
        hub = _pop_hub(f"golden-inject-{position}")
        tag = hub.system.first_tag_id()
        first = relay_session(hub, tag)
        captured = {position: first.messages[position - 1]}
        docs.append(run_doc(first))
        docs.append(run_doc(relay_session(hub, tag, inject=captured)))
        docs.append(history_doc(hub.system.reader))
    hub = OracleHub(Config(mode="ma", tags=3, seed="golden-drop").build_system())
    tag = hub.system.tag_ids()[-1]
    drop_tag_replies(hub, tag, 3, Rng("golden-drop-replies"))
    docs.append(run_doc(relay_session(hub, tag)))
    docs.append(run_doc(relay_session(hub, tag)))
    docs.append(history_doc(hub.system.reader))
    assert digest(docs) == GOLDEN_TAMPERED


GOLDEN_CREDENTIALS = "1caf69de559feeeb6a8d40d1ce36b314679e6db6a317cd6874ec3540388a4c9d"


def test_credentials_are_pinned():
    docs = []
    for adversary in (HonestReplayer(), DbSplicer()):
        hub = _pop_hub(f"golden-{adversary.name}")
        cred, _ = adversary.run(hub, Rng("golden-forger"))
        docs.append(cred.encode().hex())
    assert digest(docs) == GOLDEN_CREDENTIALS


GOLDEN_EXPERIMENTS = {
    "bit-flipper": "af9bd00a8ad6e6ca53b64b4df48ea1534f8a48545c68cbf8a8264de8320a12b6",
    "replayer": "4fcbb43eb6e19c04ee4538db0f259af527346de830d6e26c395fb62b18b1a2ed",
    "desync-attacker": "87c04e672c8f02e30277387d7a439a6f6a2bcee128863db8dbfab5c76cfe5197",
    "db-splicer": "1a4453d9ce42857e3f33d127d36aba0e227d7560ebfe5332c29fcd45a236b0d1",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_EXPERIMENTS))
def test_experiment_reports_are_pinned(name):
    protocol = "ma" if name == "desync-attacker" else "mapop"
    factory = Config(mode=protocol, tags=2).build_system
    rng = Rng(f"golden-exp-{name}")
    adversary = make_adversary(name)
    if name == "db-splicer":
        report = exp_cred_unforge(factory, adversary, 4, rng)
    else:
        report = exp_unp_sharp(factory, adversary, 6, rng)
    assert digest(report.to_json()) == GOLDEN_EXPERIMENTS[name]


GOLDEN_SETUP = {
    "ma": "b247ed25f59a2b685cef2fed2f4d76077d2a04347c874bc226b1921a8317ff3b",
    "cex": "655b117c14c93a2ce15d10a7f0499cc0ee3853134c0d88473d37a0c7161c6020",
    "mapop-impl1": "80c12aa8cdaf99534684306e61f59a5e9aff554baffb15c46f81bab5c57c8473",
    "mapop-impl3": "0a32d58d5047642af878e7db9e5f2b6cc841c5c83d7ac5149e27f7cefd91a716",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SETUP))
def test_setup_files_are_pinned(name, tmp_path, capsys):
    """The bytes `rfpop setup` writes: the reader database, then every tag
    key file in order."""
    mode, _, impl = name.partition("-")
    config = Config(mode=mode, impl=impl or "impl1", K=4, tags=3, seed=f"golden-setup-{name}")
    config_path = tmp_path / "config.json"
    save_config(config, str(config_path))
    out = tmp_path / "out"
    assert main(["setup", "--config", str(config_path), "--out", str(out)]) == 0
    capsys.readouterr()
    sha = hashlib.sha256((out / "reader.db").read_bytes())
    for path in sorted(out.glob("tag-*.json")):
        sha.update(path.read_bytes())
    assert sha.hexdigest() == GOLDEN_SETUP[name]
