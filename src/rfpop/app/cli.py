"""Command-line interface.

Subcommands:
  setup         create a reader database and per-tag key files from a config
  serve-reader  run sessions over a socket, journaling every verdict
  tag-run       act as a tag against a reader server
  experiment    run a privacy / forgery / distinguishing experiment
  report-sizes  measured message and stored-state byte sizes
  report-ops    measured per-party operation counts
  cred          credential utilities (offline verification)

`experiment` exits 0 exactly when the measured result lands inside the bound
declared for that experiment/adversary pairing, so the command doubles as a
scriptable check.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import sys
from typing import Optional

from rfpop.errors import ConfigError, RfpopError
from rfpop.harness.adversaries import (
    FORGERY_ADVERSARIES,
    PRIVACY_ADVERSARIES,
    make_adversary,
)
from rfpop.harness.experiments import (
    BUDGET_ABORT,
    BUDGET_FAIL,
    exp_cred_unforge,
    exp_unp_sharp,
    exp_unp_star,
)
from rfpop.harness.oracles import AdversaryBudget
from rfpop.harness.ptpt import (
    broken_identity_family,
    identity_catcher,
    ptpt_experiment,
    statistical_probe,
)
from rfpop.harness.report import ExperimentReport
from rfpop.pop import Credential, cred_veri
from rfpop.primitives.prf import prf_eval
from rfpop.primitives.rng import Rng

from rfpop.app import files
from rfpop.app.config import MODES, Config, load_config
from rfpop.app.dbfile import load_db, save_db
from rfpop.app.netrun import protocol_for, serve_reader, tag_run
from rfpop.app.reports import (
    IMPL_CHOICES,
    config_for_impl,
    format_ops,
    format_sizes,
    report_ops,
    report_sizes,
)
from rfpop.app.tagfile import save_tag

EXPERIMENTS = ("unp-sharp", "unp-star", "cred-ufrg", "ptpt")
PTPT_DISTINGUISHERS = {
    "statistical-probe": statistical_probe,
    "identity-catcher": identity_catcher,
}
PTPT_FAMILIES = {
    "prf": prf_eval,
    "broken-identity": broken_identity_family,
}


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is below 1")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rfpop",
        description="Mutual authentication with proof of possession for RFID-class tags.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("setup", help="create a reader database and tag key files")
    p.add_argument("--config", help="config JSON (default: $RFPOP_CONFIG or built-ins)")
    p.add_argument("--tags", type=int, help="number of tags (overrides config)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(run=_cmd_setup)

    p = sub.add_parser("serve-reader", help="serve sessions from a reader database")
    p.add_argument("--db", required=True, help="reader database file")
    p.add_argument("--host", help="bind host (default from the database's config)")
    p.add_argument("--port", type=int, help="bind port (default from the database's config)")
    p.add_argument("--sessions", type=_positive_int, default=1,
                   help="sessions to serve before exiting (at least 1)")
    p.set_defaults(run=_cmd_serve_reader)

    p = sub.add_parser("tag-run", help="run sessions as a tag against a reader")
    p.add_argument("--config", help="config JSON (default: $RFPOP_CONFIG or built-ins)")
    p.add_argument("--tag", required=True,
                   help="tag key file (state appended to the .log file beside it)")
    p.add_argument("--host", help="reader host (default from config)")
    p.add_argument("--port", type=int, help="reader port (default from config)")
    p.add_argument("--sessions", type=_positive_int, default=1,
                   help="sessions to run (at least 1)")
    p.add_argument("--cred-out", help="write a received credential to this file")
    p.set_defaults(run=_cmd_tag_run)

    p = sub.add_parser("experiment", help="run an experiment and check its declared bound")
    p.add_argument("--name", required=True, choices=EXPERIMENTS)
    p.add_argument("--adversary", required=True, help="adversary or distinguisher name")
    p.add_argument("--trials", type=_positive_int, default=200)
    p.add_argument("--protocol", choices=MODES, default="mapop")
    p.add_argument("--impl", choices=IMPL_CHOICES, default="1",
                   help="signature implementation for mapop systems: 1, 2 or 3")
    p.add_argument("--tags", type=int, default=2)
    p.add_argument("--seed", default="rfpop-experiment")
    p.add_argument("--out", help="write the JSON report here")
    p.add_argument("--budget-policy", choices=(BUDGET_FAIL, BUDGET_ABORT), default=BUDGET_FAIL)
    p.add_argument("--drop-count", type=_positive_int,
                   help="desync-attacker: replies to destroy")
    p.add_argument("--message-index", type=_positive_int,
                   help="bit-flipper / replayer: 1-based transcript position to attack")
    p.add_argument("--bit", type=int, help="bit-flipper: bit position to flip")
    p.add_argument("--family", choices=sorted(PTPT_FAMILIES), default="prf",
                   help="ptpt only: function family under test")
    p.set_defaults(run=_cmd_experiment)

    for name, text, build, render in (
        ("report-sizes", "measured byte sizes", report_sizes, format_sizes),
        ("report-ops", "measured operation counts", report_ops, format_ops),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("--impl", required=True, choices=IMPL_CHOICES)
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")
        p.set_defaults(run=_cmd_report, build=build, render=render)

    p = sub.add_parser("cred", help="credential utilities")
    cred_sub = p.add_subparsers(dest="cred_command", required=True)
    v = cred_sub.add_parser("verify", help="verify an encoded credential offline")
    v.add_argument("--db", required=True, help="reader database (holds the key directory)")
    v.add_argument("--cred", required=True, help="file with the encoded credential")
    v.set_defaults(run=_cmd_cred_verify)

    return parser


def _cmd_setup(args) -> int:
    config = load_config(args.config)
    if args.tags is not None:
        config = config.with_overrides(tags=args.tags)
    # A deployment's files; a config file beside them is allowed.
    taken = sorted(path for name in ("reader.db", "tag-*.json", "*.log")
                   for path in glob.glob(os.path.join(glob.escape(args.out), name)))
    if taken:
        raise RfpopError(f"{args.out} already holds a deployment: {', '.join(taken)}")
    if config.seed == Config.seed:
        print(f"warning: seed {config.seed!r} is the built-in default, so anyone can derive "
              "this deployment's keys; set a secret seed in --config", file=sys.stderr)
    system = config.build_system(Rng(config.seed))
    os.makedirs(args.out, exist_ok=True)
    db_path = os.path.join(args.out, "reader.db")
    digest = hashlib.blake2b(save_db(db_path, config, system.reader.db.records_ascending(),
                                     reader_id=system.reader.reader_id,
                                     reader_signer=system.reader_signer,
                                     directory=system.directory), digest_size=32)
    for i, tag_id in enumerate(system.tag_ids()):
        path = os.path.join(args.out, f"tag-{i:03d}.json")
        digest.update(save_tag(path, config.mode, system.tag(tag_id).state))
    print(f"wrote {db_path} and {len(system.tags)} tag key files")
    print(f"parameter digest: {digest.hexdigest()}")
    return 0


def _cmd_serve_reader(args) -> int:
    serve_reader(args.db, host=args.host, port=args.port, sessions=args.sessions)
    return 0


def _cmd_tag_run(args) -> int:
    config = load_config(args.config)
    results = tag_run(
        args.tag,
        config,
        host=args.host,
        port=args.port,
        sessions=args.sessions,
        cred_out=args.cred_out,
    )
    return 0 if all(r["o_tag"] == 1 for r in results) else 1


def _adversary_kwargs(args) -> dict:
    kwargs = {}
    if args.drop_count is not None:
        kwargs["drop_count"] = args.drop_count
    if args.message_index is not None:
        kwargs["message_index"] = args.message_index
    if args.bit is not None:
        kwargs["bit"] = args.bit
    return kwargs


def declared_bound(name: str, protocol: str, adversary: str, family: str,
                   report: ExperimentReport) -> tuple[bool, str]:
    """Evaluate the acceptance bound declared for this experiment pairing."""
    if name == "cred-ufrg":
        return report.successes == 0, "zero forgery events"
    if name == "ptpt":
        if family == "broken-identity" and adversary == "identity-catcher":
            return report.advantage >= 0.45, "advantage >= 0.45 (broken family caught)"
        return (
            report.advantage <= 0.05 or report.ci_contains_zero,
            "advantage <= 0.05 or interval contains 0",
        )
    if adversary == "cex-distinguisher" and protocol == "cex":
        return report.advantage >= 0.45, "advantage >= 0.45 (tracing flaw detected)"
    if adversary == "repeated-query" and name == "unp-star":
        return (
            report.advantage >= 0.45,
            "advantage >= 0.45 (predecessor notion diverges on repeated queries)",
        )
    return (
        report.advantage <= 0.05 or report.ci_contains_zero,
        "advantage <= 0.05 or interval contains 0",
    )


def _cmd_experiment(args) -> int:
    name = args.name
    adversary_name = args.adversary.replace("_", "-")
    if args.impl == "ma":
        raise ConfigError("experiment --impl takes 1, 2 or 3; run MA with --protocol ma")
    if name == "cred-ufrg" and args.protocol != "mapop":
        raise ConfigError("cred-ufrg runs on mapop only: ma and cex issue no credentials")
    rng = Rng(args.seed)
    if name == "ptpt":
        if adversary_name not in PTPT_DISTINGUISHERS:
            known = ", ".join(sorted(PTPT_DISTINGUISHERS))
            raise ConfigError(f"ptpt distinguishers: {known}")
        config = Config(mode="ma")
        report = ptpt_experiment(
            config.ma_params().prf,
            PTPT_DISTINGUISHERS[adversary_name],
            args.trials,
            rng,
            family=PTPT_FAMILIES[args.family],
        )
    else:
        if args.protocol == "mapop":
            config = config_for_impl(args.impl, tags=args.tags)
        else:
            config = Config(mode=args.protocol, tags=args.tags)
        factory = config.build_system
        registry = FORGERY_ADVERSARIES if name == "cred-ufrg" else PRIVACY_ADVERSARIES
        if adversary_name not in registry:
            known = ", ".join(sorted(registry))
            raise ConfigError(f"{name} adversaries: {known}")
        try:
            adversary = make_adversary(adversary_name, **_adversary_kwargs(args))
        except TypeError as exc:
            raise ConfigError(f"bad options for {adversary_name}: {exc}") from exc
        # A position past the last message would attack nothing: the run
        # would relay honestly and pass.
        index = getattr(adversary, "message_index", None)
        if index is not None:
            rounds = len(protocol_for(config).slots())
            if index > rounds:
                raise ConfigError(f"--message-index {index} is past the last of "
                                  f"{args.protocol}'s {rounds} messages")
        if name == "cred-ufrg":
            report = exp_cred_unforge(factory, adversary, args.trials, rng)
        else:
            runner = exp_unp_sharp if name == "unp-sharp" else exp_unp_star
            report = runner(
                factory,
                adversary,
                args.trials,
                rng,
                budget=AdversaryBudget(),
                budget_policy=args.budget_policy,
            )
    print(report.to_text())
    if args.out:
        files.write(args.out, (report.to_json() + "\n").encode("utf-8"))
    ok, description = declared_bound(name, args.protocol, adversary_name, args.family, report)
    print(f"declared bound: {description} -> {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def _cmd_report(args) -> int:
    report = args.build(args.impl)
    print(json.dumps(report, indent=2, sort_keys=True) if args.json else args.render(report))
    return 0


def _cmd_cred_verify(args) -> int:
    data = load_db(args.db)
    if data.config.mode != "mapop":
        raise ConfigError(
            "database has no key directory; credentials need an extended-mode setup")
    with open(args.cred, "rb") as handle:
        cred = Credential.decode(handle.read())
    verdict = cred_veri(data.config.pop_params(), data.directory, cred)
    print(f"cred_veri: {verdict}")
    return 0 if verdict == 1 else 2


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (RfpopError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
