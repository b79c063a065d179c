"""The benchmark's five seeded workloads, and the loop that measures one.

Run as a script, this module is the measuring process: it runs one workload
once and prints its raw results as one JSON object.  `run.py` starts it in a
fresh process for every measurement, with a fixed PYTHONHASHSEED.

    PYTHONPATH=src PYTHONHASHSEED=0 python3 bench/workloads.py \\
        --workload inventory --seed 1 --seconds 15 --trace 0 --workdir .bench_work/x

Every workload is a closed loop with one client.  Its inputs are drawn from
the seed before anything is timed; the program only ever sees those inputs.
A run is a few passes.  Each pass sets the workload up afresh, runs one
untimed warm-up op and then a fixed number of timed ops,
`ops_per_second * seconds / passes`, never a fixed duration, so two runs of
one workload always do the same work.  Each end-to-end metric is the median
of its value over the passes.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import cryptography  # noqa: E402
import rfpop  # noqa: E402

if Path(rfpop.__file__).resolve().parent != SRC / "rfpop":
    raise ImportError(f"rfpop imported from {rfpop.__file__}, not from {SRC}")

import rfpop.app.cli as cli  # noqa: E402
import rfpop.app.config as config_mod  # noqa: E402
import rfpop.app.dbfile as dbfile  # noqa: E402
import rfpop.app.netrun as netrun  # noqa: E402
import rfpop.harness.experiments as experiments  # noqa: E402
import rfpop.pop as pop  # noqa: E402
import rfpop.system as system_mod  # noqa: E402
from rfpop.app.reports import config_for_impl  # noqa: E402
from rfpop.errors import FrameError  # noqa: E402
from rfpop.harness.adversaries import make_adversary  # noqa: E402
from rfpop.harness.oracles import AdversaryBudget  # noqa: E402
from rfpop.harness.report import ExperimentReport  # noqa: E402
from rfpop.model.types import SID_BITS, Msg  # noqa: E402
from rfpop.primitives.counters import OpCounters, counting  # noqa: E402
from rfpop.primitives.rng import Rng  # noqa: E402

import speed  # noqa: E402
import tracing  # noqa: E402

DEV_SEED = 1
TAIL_BEYOND = 10
SMOKE_PASS_OPS = 2
SERVER_WAIT_S = 10.0


class Workload:
    """One seeded workload.  Subclasses fill in the sizes and these steps.

    make_inputs(count)  `count` inputs drawn from the seed; each pass takes
                        `pass_ops + 1` in a row, the first for its warm-up op
    setup()             one pass's set-up: what a user pays once
    op(state, item)     one timed op; returns None or a failure message
    check(state)        checks that run after a pass's timed ops, outside
                        them: a list of (op index in the pass or None, message)
    finish()            checks that run after the last pass: a list of messages
    """

    name = ""
    ops_per_second = 1.0
    passes = 10
    # The reference kernel whose speed corrects this workload's times.
    kernel = staticmethod(speed.reference_kernel)

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir
        self.tracer: Optional[tracing.Tracer] = None
        self.pass_ops = 0
        self.ops = 0

    def size(self, seconds: int):
        """Fix the number of timed ops for a run of `seconds` seconds."""
        per_pass = round(self.ops_per_second * seconds / self.passes)
        self.pass_ops = SMOKE_PASS_OPS if self.smoke else max(SMOKE_PASS_OPS, per_pass)
        self.ops = self.passes * self.pass_ops

    def tag(self, label: str) -> str:
        return f"bench-{self.name}-{self.seed}-{label}"

    def check(self, state) -> list:
        return []

    def finish(self) -> list[str]:
        return []

    def trace_checks(self, metrics: dict, counters: OpCounters) -> list[str]:
        return []


class Inventory(Workload):
    """10,000 synchronized MA tags; an op is one inventory round of 50
    distinct tags, one honest session each, all accepted through Step 1."""

    name = "inventory"
    ops_per_second = 100
    passes = 6
    round_size = 50

    @property
    def tags(self) -> int:
        return 200 if self.smoke else 10_000

    def make_inputs(self, count):
        rnd = random.Random(self.tag("draws"))
        return [rnd.sample(range(self.tags), self.round_size) for _ in range(count)]

    def setup(self):
        system = system_mod.build_ma_system(Rng(self.tag("fleet")), tag_count=self.tags)
        return system, system.tag_ids()

    def op(self, state, draw):
        system, ids = state
        for k in draw:
            trs = system.run_honest(ids[k])
            rec = system.reader.history.sessions[-1]
            if (trs.o_reader, trs.o_tag, rec.via_step, rec.tag_id) != (1, 1, 1, ids[k]):
                return (f"tag {k}: o_R={trs.o_reader} o_T={trs.o_tag} "
                        f"via_step={rec.via_step}, expected 1/1/1")
        return None

    def trace_checks(self, metrics, counters):
        sessions = self.ops * self.round_size
        prf_calls = self.tracer.calls["prf_eval"]
        problems = []
        if not prf_calls == counters.hashes == 6 * sessions:
            problems.append(f"wrapped prf_eval calls {prf_calls}, OpCounters hashes "
                            f"{counters.hashes}, expected both = 6 x {sessions} sessions")
        if metrics["ma.step2_share"][0] != 0:
            problems.append(f"ma.step2_share is {metrics['ma.step2_share'][0]}, expected 0")
        return problems


class Resync(Workload):
    """2,000 MA tags.  An op desynchronizes a mirrored pair of tags, the tag
    at ascending rank r and the one at rank N-1-r, by dropping 1-3 replies
    each, then runs one honest session per tag; both must accept through
    Step 2.  The pair's two scans cover N+1 records whatever r is, so every
    op does the same scan work."""

    name = "resync"
    ops_per_second = 18
    passes = 5

    @property
    def tags(self) -> int:
        return 40 if self.smoke else 2_000

    def make_inputs(self, count):
        rnd = random.Random(self.tag("draws"))
        bits = Rng(self.tag("drops"))
        width = config_mod.Config(mode="ma").ma_params().challenge_bits
        items = []
        for _ in range(count):
            r = rnd.randrange(self.tags // 2)
            pair = []
            for k in (r, self.tags - 1 - r):
                drops = [(bits.take_bits(SID_BITS), Msg(0, bits.take_bits(width)))
                         for _ in range(rnd.randint(1, 3))]
                pair.append((k, drops))
            items.append(pair)
        return items

    def setup(self):
        system = system_mod.build_ma_system(Rng(self.tag("fleet")), tag_count=self.tags)
        return system, system.tag_ids()

    def op(self, state, pair):
        system, ids = state
        for k, drops in pair:
            tag = system.tag(ids[k])
            for sid, challenge in drops:
                tag.step(sid, challenge, system.rng)
            trs = system.run_honest(ids[k])
            rec = system.reader.history.sessions[-1]
            if (trs.o_reader, trs.o_tag, rec.via_step, rec.tag_id) != (1, 1, 2, ids[k]):
                return (f"tag {k} after {len(drops)} drops: o_R={trs.o_reader} "
                        f"o_T={trs.o_tag} via_step={rec.via_step}, expected 1/1/2")
        return None

    def trace_checks(self, metrics, counters):
        share = metrics["ma.step2_share"][0]
        return [] if share == 1 else [f"ma.step2_share is {share}, expected 1"]


class _Server:
    """serve_reader running in a thread; `served` counts journaled sessions."""

    def __init__(self, db_path: str, sessions: int, rng: Rng):
        self.port: Optional[int] = None
        self.error: Optional[BaseException] = None
        self.served = threading.Semaphore(0)
        self._ready = threading.Event()
        self._thread = threading.Thread(
            target=self._serve, args=(db_path, sessions, rng), daemon=True)
        self._thread.start()
        if not self._ready.wait(SERVER_WAIT_S):
            raise RuntimeError("reader server did not start")
        if self.error is not None:
            raise RuntimeError(f"reader server failed: {self.error!r}")

    def _serve(self, db_path, sessions, rng):
        def announce(line):
            if line.startswith("session "):
                self.served.release()

        def ready(port):
            self.port = port
            self._ready.set()

        try:
            netrun.serve_reader(db_path, host="127.0.0.1", port=0, sessions=sessions,
                                rng=rng, announce=announce, ready=ready)
        except Exception as exc:  # reported by the op that next talks to it
            self.error = exc
            self._ready.set()

    def join(self) -> Optional[str]:
        self._thread.join(SERVER_WAIT_S)
        if self._thread.is_alive():
            return "reader server still running after its last session"
        if self.error is not None:
            return f"reader server failed: {self.error!r}"
        return None


class PopServe(Workload):
    """A MAPoP impl1 reader database of 100 tags, written the way `rfpop
    setup` writes it, served by serve_reader over loopback.  An op is one
    tag_run session for a seeded tag; it ends when the reader has journaled
    the session."""

    name = "pop-serve"
    ops_per_second = 300

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        super().__init__(seed, smoke, workdir)
        self.setups = 0

    @property
    def tags(self) -> int:
        return 6 if self.smoke else 100

    def make_inputs(self, count):
        rnd = random.Random(self.tag("draws"))
        return [(rnd.randrange(self.tags), Rng(self.tag(f"tag-rng-{i}")))
                for i in range(count)]

    def setup(self):
        self.setups += 1
        out = self.workdir / f"{self.name}-{self.setups}"
        out.mkdir(parents=True)
        config = config_mod.Config(mode="mapop", impl="impl1", tags=self.tags,
                                   seed=self.tag("setup"), listen="127.0.0.1:0")
        config_path = str(out / "config.json")
        config_mod.save_config(config, config_path)
        with contextlib.redirect_stdout(io.StringIO()):
            status = cli.main(["setup", "--config", config_path, "--out", str(out)])
        if status != 0:
            raise RuntimeError(f"rfpop setup exited with {status}")
        db_path = str(out / "reader.db")
        tag_paths = [str(out / f"tag-{i:03d}.json") for i in range(self.tags)]
        server = _Server(db_path, 1 + self.pass_ops, Rng(self.tag("reader")))
        # Ops are numbered from -1, the warm-up op, so the checks can name them.
        return {"config": config, "dir": out, "db": db_path, "tags": tag_paths,
                "server": server, "creds": [], "next_op": -1, "stalled": False}

    def op(self, state, item):
        k, rng = item
        i = state["next_op"]
        state["next_op"] += 1
        if state["stalled"]:
            return f"tag {k}: not run, the reader stopped journaling sessions"
        results = netrun.tag_run(state["tags"][k], state["config"], host="127.0.0.1",
                                 port=state["server"].port, sessions=1, rng=rng,
                                 announce=_quiet)
        if not state["server"].served.acquire(timeout=SERVER_WAIT_S):
            state["stalled"] = True
            return f"tag {k}: the reader did not journal the session"
        res = results[0]
        if res["o_tag"] != 1 or res["o_reader"] != 1 or not res["credential"]:
            return (f"tag {k}: o_T={res['o_tag']} o_R={res['o_reader']} "
                    f"credential={'yes' if res['credential'] else 'none'}")
        state["creds"].append((i, k, res["credential"]))
        return None

    def check(self, state):
        problems = []
        stuck = state["server"].join()
        if stuck:
            problems.append((None, stuck))
        data = dbfile.load_db(state["db"])
        if len(data.journal) != 1 + self.pass_ops:
            problems.append((None, f"journal holds {len(data.journal)} sessions, "
                                   f"expected {1 + self.pass_ops}"))
        params = data.config.pop_params()
        ids = sorted(data.initial)
        for i, k, cred_hex in state["creds"]:
            i = None if i < 0 else i
            try:
                cred = pop.Credential.decode(bytes.fromhex(cred_hex))
            except (ValueError, FrameError) as exc:
                problems.append((i, f"tag {k}: credential does not decode: {exc}"))
                continue
            if cred.tag_id != ids[k]:
                problems.append((i, f"tag {k}: credential names another tag"))
            elif pop.cred_veri(params, data.directory, cred) != 1:
                problems.append((i, f"tag {k}: credential fails cred_veri"))
        shutil.rmtree(state["dir"])
        return problems


def _quiet(line):
    pass


# (experiment, adversary, protocol) in the order one games op runs them.
PAIRINGS = (
    ("unp-sharp", "transcript-statistics", "mapop"),
    ("unp-sharp", "repeated-query", "mapop"),
    ("unp-star", "cex-distinguisher", "cex"),
    ("cred-ufrg", "db-splicer", "mapop"),
)


# Trials of each pairing in one games op.  Two of the pairings do one of two
# amounts of work per trial, decided by the trial's coin, so with one trial
# per pairing the median op would sit on the boundary between two levels.
TRIALS_PER_OP = 2


def _pairing_key(experiment: str, adversary: str) -> str:
    return f"{experiment}.{adversary}".replace("-", "_")


class Games(Workload):
    """An op is TRIALS_PER_OP trials of each of the four acceptance pairings,
    run as `rfpop experiment` runs them.  At the end each pairing's pooled
    report must meet the bound the CLI declares for it."""

    name = "games"
    ops_per_second = 100
    passes = 5

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        super().__init__(seed, smoke, workdir)
        # Pooled over every trial of the run, warm-up ops included.
        self.successes = [0] * len(PAIRINGS)
        self.trials = 0

    def make_inputs(self, count):
        master = Rng(self.tag("trials"))
        return [[master.spawn(f"{exp}/{adv}/{i}") for exp, adv, _ in PAIRINGS]
                for i in range(count)]

    def setup(self):
        # A user of `rfpop experiment` first pays for loading the harness in
        # a fresh interpreter; the in-process part of set-up is tiny.
        env = dict(os.environ, PYTHONPATH=str(SRC))
        subprocess.run([sys.executable, "-c", "import rfpop.app.cli"], env=env,
                       check=True, timeout=60)
        factories = {
            "mapop": config_for_impl("1", tags=2).build_system,
            "cex": config_mod.Config(mode="cex", tags=2).build_system,
        }
        runners = {
            "unp-sharp": experiments.exp_unp_sharp,
            "unp-star": experiments.exp_unp_star,
        }
        trials = []
        for exp, adv, protocol in PAIRINGS:
            adversary = make_adversary(adv)
            factory = factories[protocol]
            if exp == "cred-ufrg":
                def run(rng, adversary=adversary, factory=factory):
                    return experiments.exp_cred_unforge(factory, adversary,
                                                        TRIALS_PER_OP, rng)
            else:
                def run(rng, adversary=adversary, factory=factory, runner=runners[exp]):
                    return runner(factory, adversary, TRIALS_PER_OP, rng,
                                  budget=AdversaryBudget(),
                                  budget_policy=experiments.BUDGET_FAIL)
            if self.tracer is not None:
                run = self.tracer.wrap(f"trial.{_pairing_key(exp, adv)}", run)
            trials.append(run)
        return trials

    def op(self, state, rngs):
        problems = []
        for (exp, adv, _), run, rng, i in zip(PAIRINGS, state, rngs, range(4)):
            report = run(rng)
            self.successes[i] += report.successes
            anomalies = {k: v for k, v in report.extra.items()
                         if k in ("invalid_trials", "budget_failures", "e1", "e2") and v}
            if anomalies or (exp == "cred-ufrg" and report.successes):
                problems.append(f"{exp}/{adv}: {anomalies or 'forgery event'}")
        self.trials += TRIALS_PER_OP
        return "; ".join(problems) or None

    def finish(self):
        problems = []
        for (exp, adv, protocol), successes in zip(PAIRINGS, self.successes):
            build = (ExperimentReport.from_proportion if exp == "cred-ufrg"
                     else ExperimentReport.from_counts)
            report = build(experiment=exp, protocol=protocol, successes=successes,
                           trials=self.trials, seed=self.tag("trials"))
            ok, bound = cli.declared_bound(exp, protocol, adv, "prf", report)
            if not ok:
                problems.append(f"{exp}/{adv}/{protocol}: {successes}/{self.trials} "
                                f"successes, advantage {report.advantage:.4f} "
                                f"misses the declared bound ({bound})")
        return problems


class KtimePop(Workload):
    """MAPoP impl3 with 8 tags and the smallest K that covers a pass.  An op
    is one possession session plus cred_gen plus cred_veri, and the
    credential must verify."""

    name = "ktime-pop"
    ops_per_second = 15
    passes = 5
    kernel = staticmethod(speed.bigint_kernel)

    @property
    def tags(self) -> int:
        return 2 if self.smoke else 8

    @property
    def k_time(self) -> int:
        return math.ceil((self.pass_ops + 1) / self.tags)

    def make_inputs(self, count):
        # Each pass's set-up makes fresh keys, so each tag signs at most K
        # times within a pass.
        rnd = random.Random(self.tag("draws"))
        draws = []
        while len(draws) < count:
            chunk = [t for t in range(self.tags) for _ in range(self.k_time)]
            rnd.shuffle(chunk)
            draws += chunk[: self.pass_ops + 1]
        return draws[:count]

    def setup(self):
        config = config_mod.Config(mode="mapop", impl="impl3", K=self.k_time,
                                   tags=self.tags, seed=self.tag("setup"))
        system = config.build_system()
        return system, system.tag_ids()

    def op(self, state, k):
        system, ids = state
        trs = system.run_honest(ids[k], mode="pop")
        if trs.o_reader != 1 or trs.o_tag != 1:
            return f"tag {k}: o_R={trs.o_reader} o_T={trs.o_tag}"
        j = len(system.reader.history.sessions)
        cred = pop.cred_gen(system.params, system.reader, system.reader_signer, j)
        if cred is None or cred.tag_id != ids[k]:
            return f"tag {k}: session {j} yields no credential for this tag"
        if pop.cred_veri(system.params, system.directory, cred) != 1:
            return f"tag {k}: credential of session {j} fails cred_veri"
        return None


WORKLOADS = {cls.name: cls for cls in (Inventory, Resync, PopServe, Games, KtimePop)}


def environment(seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "seed": seed,
        "python": platform.python_version(),
        "cryptography": cryptography.__version__,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
    }


def tail(latencies_ns: list[float]) -> tuple[float, float]:
    """(value in µs, percentile) of the highest percentile that still has
    TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies_ns)
    n = len(ordered)
    index = max(0, n - TAIL_BEYOND - 1)
    return ordered[index] / 1e3, 100.0 * (index + 1) / n


def pass_metrics(wall_ns, busy_ns) -> dict:
    """One pass's op metrics from its ops' wall-clock and busy times in ns."""
    return {
        "ops_per_s": len(wall_ns) / (sum(wall_ns) / 1e9),
        "op_p50_us": statistics.median(busy_ns) / 1e3,
        "op_tail_us": tail(busy_ns)[0],
    }


def busy_ns() -> int:
    """CPU time of this process and its finished children, in ns."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time_ns() + round((children.ru_utime + children.ru_stime) * 1e9)


class Pass:
    """The times one pass recorded, all in ns."""

    def __init__(self):
        self.setup_busy = self.setup_wall = 0
        self.setup_factor = self.factor = 1.0
        self.walls: list[int] = []
        self.busies: list[int] = []


def run_pass(wl: Workload, index: int, chunk: list, speedometer: speed.Speedometer,
             counters: OpCounters, failed_ops: dict, failures: list) -> Pass:
    """Set the workload up, run its warm-up op, then time its ops."""
    tracer = wl.tracer
    clock = time.perf_counter_ns
    process_ns = time.process_time_ns
    rec = Pass()
    probed = clock()
    speedometer.probe()
    start, start_busy = clock(), busy_ns()
    state = wl.setup()
    problem = wl.op(state, chunk[0])
    rec.setup_busy = busy_ns() - start_busy
    rec.setup_wall = clock() - start
    speedometer.probe()
    rec.setup_factor = speedometer.factor_between(probed, clock())
    if problem:
        failures.append(f"pass {index} warm-up op: {problem}")
    gc.collect()

    first = index * wl.pass_ops
    phase_start = last_probe = clock()
    speedometer.probe()
    with counting(counters) if tracer is not None else contextlib.nullcontext():
        for i, item in enumerate(chunk[1:], first):
            if clock() - last_probe >= speed.PROBE_EVERY_NS:
                speedometer.probe()
                last_probe = clock()
            if tracer is not None:
                tracer.op = i
            b0 = process_ns()
            t0 = clock()
            try:
                problem = wl.op(state, item)
            except Exception as exc:
                problem = f"raised {type(exc).__name__}: {exc}"
            rec.walls.append(clock() - t0)
            rec.busies.append(process_ns() - b0)
            if problem:
                failed_ops.setdefault(i, []).append(problem)
    speedometer.probe()
    rec.factor = speedometer.factor_between(phase_start, clock())
    if tracer is not None:
        tracer.op = None
        tracer.enabled = False
    for i, problem in wl.check(state):
        if i is None:
            failures.append(f"pass {index}: {problem}")
        else:
            failed_ops.setdefault(first + i, []).append(problem)
    if tracer is not None:
        tracer.enabled = True
    return rec


def run_workload(name: str, seed: int, seconds: int, trace: bool, smoke: bool,
                 workdir: Path, spans_path: Optional[Path] = None) -> dict:
    """Measure one workload once and return its results.

    Set-ups and op latencies are timed by CPU time, throughput by the wall
    clock (see speed.py).  Every time is reported twice: corrected to the
    machine's nominal speed (`metrics`) and as measured on the wall clock
    (`raw`).  `passes` holds each pass's corrected values.
    """
    wl = WORKLOADS[name](seed, smoke, workdir)
    wl.size(seconds)
    span = wl.pass_ops + 1
    inputs = wl.make_inputs(wl.passes * span)
    if trace:
        wl.tracer = tracing.Tracer()
        wl.tracer.install()
    speedometer = speed.Speedometer(wl.kernel)
    counters = OpCounters()
    failures: list[str] = []
    failed_ops: dict[int, list[str]] = {}
    passes = []
    for index in range(wl.passes):
        # Collect the previous pass's state before the next set-up starts.
        gc.collect()
        passes.append(run_pass(wl, index, inputs[index * span:(index + 1) * span],
                               speedometer, counters, failed_ops, failures))
    failures += wl.finish()
    failures += [f"op {i}: {'; '.join(msgs)}" for i, msgs in sorted(failed_ops.items())]

    corrected, raw = [], []
    for rec in passes:
        f = rec.factor
        corrected.append({
            "setup_s": rec.setup_busy * rec.setup_factor / 1e9,
            **pass_metrics([t * f for t in rec.walls], [t * f for t in rec.busies]),
        })
        raw.append({"setup_s": rec.setup_wall / 1e9, **pass_metrics(rec.walls, rec.walls)})
    units = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_us": "us", "op_tail_us": "us"}
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result = {
        "workload": name,
        "seconds": seconds,
        "trace": int(trace),
        "smoke": smoke,
        "env": environment(seed),
        "attempted": wl.ops,
        "failed": len(failed_ops),
        "failures": failures,
        "passes": corrected,
        "metrics": {**{k: [statistics.median(p[k] for p in corrected), unit]
                       for k, unit in units.items()},
                    "peak_rss_mb": [rss_mb, "MB"]},
        "raw": {k: [statistics.median(p[k] for p in raw), unit] for k, unit in units.items()},
        "speed_factor": speedometer.factor(),
        "tail_percentile": tail(passes[0].busies)[1],
        "tail_beyond": min(TAIL_BEYOND, wl.pass_ops - 1),
        "pass_ops": wl.pass_ops,
    }
    if wl.tracer is not None:
        tracer = wl.tracer
        tracer.enabled = False
        trial_spans = {_pairing_key(exp, adv): f"trial.{_pairing_key(exp, adv)}"
                       for exp, adv, _ in PAIRINGS}
        layers = tracing.layer_metrics(tracer, wl.ops, counters, trial_spans,
                                       speedometer.factor())
        failures += [f"trace self-check: {p}" for p in wl.trace_checks(layers, counters)]
        result["layers"] = {k: list(v) for k, v in layers.items()}
        result["spans"] = tracer.span_count()
        if spans_path is not None:
            tracer.write_spans(str(spans_path))
            result["spans_file"] = str(spans_path)
    result["correct"] = not failures
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEV_SEED)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny fleets and two ops a pass")
    parser.add_argument("--workdir", required=True, help="scratch directory for files")
    parser.add_argument("--spans", help="write the traced run's spans to this CSV file")
    args = parser.parse_args(argv)
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    speed.pin_to_one_cpu()
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          args.smoke, workdir, Path(args.spans) if args.spans else None)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
