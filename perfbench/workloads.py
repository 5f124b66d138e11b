"""The three workloads, each driven through a real ``repro`` entry point.

* ``search_a`` — ``repro search --layout a`` (the paper's Fig. 1
  pipeline) in fresh interpreters.
* ``serve_mixed`` — ``python -m repro.serve`` daemons under a closed
  loop of one client: cache hits on a warm layout-a front mixed with a
  few cold queries that compute new fronts.
* ``tabular_mini`` — ``repro tabulate`` on the mini layout (set-up),
  then ``repro sweep`` replaying that artifact.

An untraced workload function returns ``(metrics, samples)``; a traced
one returns ``(processes, overhead_share, transport_ms)`` with one
:class:`metrics.TracedProcess` per traced child. Inputs derive from the
workload seed only.
"""

from __future__ import annotations

import filecmp
import http.client
import json
import os
import random
import signal
import statistics
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

import metrics as M
import procs
import spans as spanlib

HERE = Path(__file__).resolve().parent
BOOT = str(HERE / "boot.py")
CLI_TIMEOUT_S = 120.0
DAEMON_START_TIMEOUT_S = 60.0
DAEMON_STOP_TIMEOUT_S = 30.0
HIT_TIMEOUT_S = 10.0
MISS_TIMEOUT_S = 60.0


class Context:
    """Paths, environment and the tally shared by one benchmark run."""

    def __init__(self, root: Path, out: Path, seed: int, seconds: float):
        self.root = root
        self.out = out
        self.seed = seed
        self.seconds = seconds
        self.tally = M.Tally()
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.rng = random.Random(seed)
        self.exits: List[procs.Exit] = []
        self.live: List[procs.Child] = []
        self._n = 0

    def path(self, stem: str) -> Path:
        self._n += 1
        return self.out / f"{self._n:03d}-{stem}"

    def argv(self, module: str, args: List[str], trace: Optional[Path]):
        if trace is None:
            return [sys.executable, "-m", module] + args
        return [sys.executable, BOOT, str(trace), module] + args

    def spawn(self, module, args, stem, trace=None) -> procs.Child:
        log = self.path(stem + ".log")
        child = procs.Child(self.argv(module, args, trace), self.env,
                            str(self.root), str(log))
        self.live.append(child)
        return child

    def finish(self, child: procs.Child, timeout_s: float) -> procs.Exit:
        exit_ = child.reap(timeout_s)
        self.live.remove(child)
        self.exits.append(exit_)
        self.tally.attempt(exit_.ok)
        return exit_

    def cli(self, args, stem, trace=None) -> procs.Exit:
        return self.finish(self.spawn("repro", args, stem, trace),
                           CLI_TIMEOUT_S)

    def close(self) -> None:
        """Kill and reap every child an aborted run left running."""
        while self.live:
            self.live.pop().reap(0)

    def peak_rss_mb(self) -> float:
        return max(e.peak_rss_mb for e in self.exits)


def _same_files(a: Path, b: Path) -> bool:
    names = sorted(os.listdir(a))
    return names == sorted(os.listdir(b)) and all(
        filecmp.cmp(a / n, b / n, shallow=False) for n in names
    )


def _traced(trace: Path, exit_: procs.Exit) -> M.TracedProcess:
    """A traced CLI child: the user waited from spawn to exit."""
    spans, counters = spanlib.load(str(trace))
    window = (int(exit_.start * 1e9),
              int((exit_.start + exit_.wall_s) * 1e9), None)
    return M.TracedProcess(spans, counters, [window], trace.name)


def _timed_loop(seconds: float, minimum: int, step) -> float:
    """Call ``step(i)`` until ``seconds`` pass (at least ``minimum``
    times); returns the wall time of the loop."""
    start = time.perf_counter()
    i = 0
    while i < minimum or time.perf_counter() - start < seconds:
        step(i)
        i += 1
    return time.perf_counter() - start


def _cli_metrics(ctx, setup, walls, answers, loop_s):
    """One answer is one invocation: latency metrics are over ``walls``."""
    tail_s, which = M.tail(walls)
    metrics = {
        "setup_s": statistics.median(setup),
        "run_s": statistics.median(walls),
        "p50_ms": statistics.median(walls) * 1e3,
        "tail_ms": tail_s * 1e3,
        "qps": answers / loop_s,
        "peak_rss_mb": ctx.peak_rss_mb(),
    }
    samples = {"setup_s": len(setup), "run_s": len(walls),
               "p50_ms": len(walls), "tail_ms": f"{len(walls)} ({which})",
               "qps": answers, "peak_rss_mb": len(ctx.exits)}
    return metrics, samples


# -- search_a --------------------------------------------------------------------

SEARCH_ARGS = ["search", "--layout", "a", "--device", "edge",
               "--target", "34", "--workers", "0"]


def _search(ctx: Context, seed: int, trace=None) -> Tuple[procs.Exit, Path]:
    out = ctx.path("search")
    exit_ = ctx.cli(["--out", str(out)] + SEARCH_ARGS + ["--seed", str(seed)],
                    "search", trace)
    artifact = out / "search_edge_a_34ms.json"
    if exit_.ok:
        ctx.tally.check(_search_ok(artifact, seed), f"search seed {seed}")
    return exit_, artifact


def _search_ok(artifact: Path, seed: int) -> bool:
    try:
        result = json.loads(artifact.read_text())
    except (OSError, ValueError):
        return False
    arch = result.get("architecture", {})
    return (
        result.get("seed") == seed
        and result.get("layout") == "a"
        and 0.0 < result.get("top1_error", -1) < 100.0
        and len(arch.get("ops", ())) == 20
        and len(arch.get("factors", ())) == 20
        and result.get("predicted_latency_ms", 0) > 0
    )


def search_a(ctx: Context):
    """Two invocations per seed, so each pair's bytes can be compared."""
    setup = []
    for _ in range(3):
        exit_ = ctx.cli(["--help"], "help")
        setup.append(exit_.wall_s)
    seeds = [ctx.rng.randrange(1, 10**6) for _ in range(64)]
    walls: List[float] = []
    artifacts: List[Path] = []

    def step(i):
        exit_, artifact = _search(ctx, seeds[i // 2])
        walls.append(exit_.wall_s)
        artifacts.append(artifact)
        if i % 2 == 1:
            ctx.tally.check(
                artifact.exists() and artifacts[i - 1].exists()
                and filecmp.cmp(
                    artifacts[i - 1], artifact, shallow=False),
                f"search seed {seeds[i // 2]} repeat differs",
            )

    loop_s = _timed_loop(ctx.seconds, 3, step)
    return _cli_metrics(ctx, setup, walls, len(walls), loop_s)


def search_a_traced(ctx: Context):
    seed = ctx.rng.randrange(1, 10**6)
    plain, plain_artifact = _search(ctx, seed)
    trace = ctx.path("search.spans")
    traced, traced_artifact = _search(ctx, seed, trace)
    ctx.tally.check(
        traced_artifact.exists() and filecmp.cmp(
            plain_artifact, traced_artifact, shallow=False),
        "traced search artifact differs from untraced",
    )
    return [_traced(trace, traced)], traced.wall_s / plain.wall_s - 1.0, 0.0


# -- tabular_mini ----------------------------------------------------------------

TABULATE_ARGS = ["tabulate", "--layout", "mini", "--recipe", "search",
                 "--device", "edge", "--device", "gpu", "--device", "cpu",
                 "--workers", "0"]
SWEEP_SEEDS = 3


def _tabulate(ctx: Context, seed: int, trace=None):
    out = ctx.path("tabulate")
    exit_ = ctx.cli(["--out", str(out)] + TABULATE_ARGS + ["--seed", str(seed)],
                    "tabulate", trace)
    return exit_, out / f"table_mini_search_seed{seed}"


def _columns(table: Path) -> Dict[str, np.ndarray]:
    with np.load(table / "columns.npz") as columns:
        return {name: columns[name] for name in columns.files}


def _targets(table: Path) -> List[str]:
    """Latency targets at the quartiles of the artifact's edge column."""
    edge = _columns(table)["latency__edge"]
    return [f"{np.quantile(edge, q):.4f}" for q in (0.25, 0.5, 0.75)]


def _sweep_args(table: Path, targets: List[str], out: Path) -> List[str]:
    args = ["--out", str(out), "sweep", "--table", str(table),
            "--seeds", str(SWEEP_SEEDS)]
    for target in targets:
        args += ["--target", target]
    return args


def _sweep(ctx, table, targets, trace=None):
    out = ctx.path("sweep")
    exit_ = ctx.cli(_sweep_args(table, targets, out), "sweep", trace)
    report = out / "sweep.json"
    expected = 3 * len(targets) * SWEEP_SEEDS
    if exit_.ok:
        ctx.tally.check(_sweep_ok(report, expected), "sweep output")
    return exit_, report, expected


def _sweep_ok(report: Path, expected: int) -> bool:
    try:
        results = json.loads(report.read_text())["scenarios"]
    except (OSError, ValueError, KeyError):
        return False
    return len(results) == expected and all(
        r["best_accuracy"] > 0 and r["best_latency_ms"] > 0 for r in results
    )


def _table_ok(ctx: Context, table: Path) -> None:
    accuracy = _columns(table)["accuracy"]
    ctx.tally.check(
        accuracy.size > 0 and float(np.ptp(accuracy)) > 0,
        "tabular accuracy column is constant",
    )


def tabular_mini(ctx: Context):
    """Set-up builds the artifact twice (same seed, same bytes); the
    timed part replays the first build with ``repro sweep``. Half the
    sweeps follow each build, so they sample the host over the whole
    run rather than over its last seconds."""
    seed = ctx.rng.randrange(1, 10**6)
    setup: List[float] = []
    tables: List[Path] = []
    walls: List[float] = []
    reports: List[Path] = []
    scenarios = [0]

    def step(_):
        exit_, report, expected = _sweep(ctx, tables[0], targets)
        walls.append(exit_.wall_s)
        if exit_.ok:
            scenarios[0] += expected
        if reports:
            ctx.tally.check(
                report.exists() and filecmp.cmp(
                    reports[0], report, shallow=False),
                "repeated sweep differs",
            )
        reports.append(report)

    loop_s = 0.0
    for _ in range(2):
        exit_, table = _tabulate(ctx, seed)
        if not exit_.ok:
            raise RuntimeError("tabulate failed")
        setup.append(exit_.wall_s)
        tables.append(table)
        if len(tables) == 1:
            _table_ok(ctx, table)
            targets = _targets(table)
        loop_s += _timed_loop(ctx.seconds / 2, 3, step)
    ctx.tally.check(_same_files(*tables),
                    "two tabulate builds with one seed differ")
    return _cli_metrics(ctx, setup, walls, scenarios[0], loop_s)


def tabular_mini_traced(ctx: Context):
    seed = ctx.rng.randrange(1, 10**6)
    plain_build, plain_table = _tabulate(ctx, seed)
    if not plain_build.ok:
        raise RuntimeError("tabulate failed")
    targets = _targets(plain_table)
    plain_sweep, plain_report, _ = _sweep(ctx, plain_table, targets)

    trace_build = ctx.path("tabulate.spans")
    build, table = _tabulate(ctx, seed, trace_build)
    if not build.ok:
        raise RuntimeError("traced tabulate failed")
    ctx.tally.check(_same_files(plain_table, table),
                    "traced tabulate artifact differs from untraced")
    trace_sweep = ctx.path("sweep.spans")
    sweep, report, _ = _sweep(ctx, table, targets, trace_sweep)
    ctx.tally.check(
        report.exists() and filecmp.cmp(plain_report, report, shallow=False),
        "traced sweep differs from untraced",
    )
    procs_ = [_traced(trace_build, build), _traced(trace_sweep, sweep)]
    overhead = ((build.wall_s + sweep.wall_s)
                / (plain_build.wall_s + plain_sweep.wall_s) - 1.0)
    return procs_, overhead, 0.0


# -- serve_mixed -----------------------------------------------------------------

# One cold query per 500 hits: the mix of an earlier 3,006-request
# prototype of this workload (two cold seeds on each of gpu, cpu and
# edge, and 3,000 hits). Why each traffic choice: perfbench/README.md.
ROUND = 501  # requests per round: one cold query, then cache hits
DEVICES = ("gpu", "cpu", "edge")
DAEMONS = 3  # fresh daemons per run, at least; each is sent every round


class Traffic:
    """The seeded request list every daemon is sent: one round per
    device, each a cold ``POST /query`` on that device's miss key and
    then hits on the warm key, half ``POST /query`` and half
    ``GET /front``. Request ``i`` is a pure function of the seed, ``i``
    and the latency range of the front it asks about (see :meth:`aim`).
    """

    def __init__(self, seed: int):
        self.seed = seed
        self.warm_key = ("edge", random.Random(f"{seed}:warm").randrange(1, 10**6))
        self.keys = [self.warm_key] + [self.miss_key(r) for r in self.rounds]
        self.ranges: Dict[Tuple[str, int], Tuple[float, float]] = {}

    @property
    def rounds(self) -> range:
        return range(len(DEVICES))

    def miss_key(self, r: int) -> Tuple[str, int]:
        return DEVICES[r], self.warm_key[1] + 1 + r

    def aim(self, fronts) -> None:
        """Draw each key's ``target_ms`` from the latency range of its
        front, so every target cuts the front somewhere."""
        for key, (_, front) in fronts.items():
            latencies = [p["latency_ms"] for p in front]
            self.ranges[key] = (min(latencies), max(latencies))

    def request(self, i: int):
        """``(is_miss, method, path, body, signature)``."""
        r, pos = divmod(i, ROUND)
        rng = random.Random(f"{self.seed}:{i}")
        device, seed = self.miss_key(r) if pos == 0 else self.warm_key
        target = round(rng.uniform(*self.ranges[(device, seed)]), 2)
        if pos > 0 and rng.random() < 0.5:
            path = f"/front?device={device}&layout=a&seed={seed}"
            return False, "GET", path, None, (device, seed, None)
        body = {"device": device, "layout": "a", "seed": seed,
                "target_ms": target}
        return pos == 0, "POST", "/query", body, (device, seed, target)


def _http(port: int, method: str, path: str, body, rid: str, timeout: float):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        payload = None if body is None else json.dumps(body).encode()
        headers = {"X-Request-Id": rid}
        if payload is not None:
            headers["Content-Type"] = "application/json"
        conn.request(method, path, body=payload, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


class Daemon:
    """One ``repro.serve`` process with a fresh state directory."""

    def __init__(self, ctx: Context, traffic: Traffic, trace=None):
        self.ctx = ctx
        self.state = ctx.path("state")
        device, seed = traffic.warm_key
        args = ["--quiet", "--workers", "0", "--port", "0",
                "--state-dir", str(self.state),
                "--warm", f"{device}:a:{seed}"]
        self.child = ctx.spawn("repro.serve", args, "daemon", trace)
        self.port = None
        self.ready_at = None

    def wait_ready(self) -> bool:
        """Poll until ``/healthz`` answers 200; returns False on a
        child that exited or a start that took too long."""
        start = self.child.start
        while time.perf_counter() - start < DAEMON_START_TIMEOUT_S:
            if not self.child.running():
                return False
            endpoint = self.state / "endpoint.json"
            try:
                if self.port is None:
                    self.port = json.loads(endpoint.read_text())["port"]
                status, _ = _http(self.port, "GET", "/healthz", None,
                                  "healthz", HIT_TIMEOUT_S)
                if status == 200:
                    self.ready_at = time.perf_counter()
                    return True
            except (OSError, ValueError, KeyError, http.client.HTTPException):
                pass
            time.sleep(0.01)
        return False

    @property
    def setup_s(self) -> float:
        return self.ready_at - self.child.start

    def stop(self) -> procs.Exit:
        """SIGTERM, then a bounded wait for the drain to exit 0."""
        self.child.signal(signal.SIGTERM)
        return self.ctx.finish(self.child, DAEMON_STOP_TIMEOUT_S)


def _start(ctx: Context, traffic: Traffic, trace=None) -> Daemon:
    daemon = Daemon(ctx, traffic, trace)
    if not daemon.wait_ready():
        daemon.stop()
        raise RuntimeError("daemon did not become ready")
    return daemon


class Loop:
    """One closed-loop client walking the request list round by round.

    Each round's cold query is sent alone, then the round's hits in
    order. One client, not two: the daemon answers one request at a
    time under its interpreter lock, so a second client only queued
    behind the first (hit p50 doubled at the same throughput) and made
    the hit tail swing with the host's load (p90 / p50 from 1.4 to 2.2
    between quiet and busy periods of the host, against 1.15–1.53 with
    one client).
    """

    def __init__(self, traffic: Traffic):
        self.traffic = traffic
        self.port = None
        self.lock = threading.Lock()
        self.hits: List[float] = []
        self.misses: List[float] = []
        self.round_qps: List[float] = []
        self.failed = 0
        self.bodies: Dict[tuple, set] = {}
        self.windows: List[Tuple[int, int, str, bool]] = []

    def _send(self, i: int, rid: str = "") -> None:
        miss, method, path, body, sig = self.traffic.request(i)
        rid = rid or f"r{i}"
        start = time.perf_counter_ns()
        try:
            status, payload = _http(
                self.port, method, path, body, rid,
                MISS_TIMEOUT_S if miss else HIT_TIMEOUT_S)
        except (OSError, http.client.HTTPException):
            status, payload = None, b""
        end = time.perf_counter_ns()
        with self.lock:
            if status != 200:
                self.failed += 1
                return
            (self.misses if miss else self.hits).append((end - start) / 1e6)
            self.bodies.setdefault(sig, set()).add(payload)
            self.windows.append((start, end, rid, miss))

    def _twin(self, i: int) -> None:
        """Send request ``i`` from two threads at once."""
        threads = [threading.Thread(target=self._send, args=(i, f"r{i}{tag}"))
                   for tag in ("", "b")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    def run(self, port: int, twin_cold: bool = False) -> float:
        """Send every round to the daemon on ``port``; returns their wall
        time. With ``twin_cold`` the first cold query is sent twice at
        once, so the daemon coalesces the two."""
        self.port = port
        start = time.perf_counter()
        for r in self.traffic.rounds:
            cold = r * ROUND
            if twin_cold and r == 0:
                self._twin(cold)
            else:
                self._send(cold)
            hits_before = len(self.hits)
            hits_start = time.perf_counter()
            for i in range(cold + 1, cold + ROUND):
                self._send(i)
            self.round_qps.append((len(self.hits) - hits_before)
                                  / (time.perf_counter() - hits_start))
        return time.perf_counter() - start


def _fronts(ctx: Context, traffic: Traffic, src: Path) -> dict:
    """The in-process ``front_search`` result of every key the traffic
    asks about, as ``{key: (front, front as JSON)}``; aims the traffic."""
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    from repro.serve.pipeline import (
        build_front_predictor, front_search, space_for_layout)

    fronts = {}
    for device, seed in traffic.keys:
        space = space_for_layout("a")
        predictor = build_front_predictor(space, device, seed)
        result = front_search(space, predictor, seed)
        front = json.loads(json.dumps([p.to_dict() for p in result.front]))
        ctx.tally.check(
            len({(p["accuracy"], p["latency_ms"]) for p in front
                 if p["accuracy"] > 0}) >= 2,
            f"front {device}/a/{seed} has < 2 points with accuracy > 0")
        fronts[(device, seed)] = (result.front, front)
    traffic.aim(fronts)
    return fronts


def _verify(ctx: Context, bodies: Dict[tuple, set], fronts: dict) -> None:
    """Every served body equals the in-process front for its key, and
    its ``best`` equals that front's ``knee_under(target_ms)``."""
    from repro.core import Nsga2Result

    for (device, seed, target), served in sorted(
            bodies.items(), key=lambda kv: repr(kv[0])):
        live, front = fronts[(device, seed)]
        best = None
        if target is not None:
            try:
                best = Nsga2Result(front=list(live)).knee_under(target).to_dict()
            except ValueError:
                pass
            best = json.loads(json.dumps(best))
        for body in served:
            reply = json.loads(body)
            ok = reply["front"] == front and (
                target is None or reply["best"] == best)
            ctx.tally.check(ok, f"served front {device}/a/{seed}@{target}")


def _count_traffic(ctx, loop: Loop) -> None:
    ctx.tally.attempted += len(loop.hits) + len(loop.misses) + loop.failed
    ctx.tally.failed += loop.failed


def serve_mixed(ctx: Context):
    """Fresh daemons, each started (set-up) and then sent every round,
    until ``seconds`` pass (at least ``DAEMONS``); so the traffic
    samples the host over the whole run."""
    traffic = Traffic(ctx.seed)
    fronts = _fronts(ctx, traffic, ctx.root / "src")
    loop = Loop(traffic)
    setup: List[float] = []

    def step(_):
        daemon = _start(ctx, traffic)
        setup.append(daemon.setup_s)
        try:
            loop.run(daemon.port)
        finally:
            daemon.stop()

    _timed_loop(ctx.seconds, DAEMONS, step)
    _count_traffic(ctx, loop)
    _verify(ctx, loop.bodies, fronts)
    every = loop.hits + loop.misses
    if not loop.misses or not loop.hits:
        raise RuntimeError("traffic phase completed no hit or no miss")
    tail_ms, which = M.tail(every)
    result = {
        "setup_s": statistics.median(setup),
        "run_s": statistics.median(loop.misses) / 1e3,
        "p50_ms": statistics.median(every),
        "tail_ms": tail_ms,
        "qps": statistics.median(loop.round_qps),
        "peak_rss_mb": ctx.peak_rss_mb(),
    }
    samples = {"setup_s": len(setup), "run_s": len(loop.misses),
               "p50_ms": len(every), "tail_ms": f"{len(every)} ({which})",
               "qps": f"{len(loop.round_qps)} rounds, {len(loop.hits)} hits",
               "peak_rss_mb": len(ctx.exits)}
    return result, samples


def _serve_once(ctx, traffic, trace=None):
    """One daemon sent every round; its first cold query twice at once."""
    daemon = _start(ctx, traffic, trace)
    loop = Loop(traffic)
    try:
        wall = loop.run(daemon.port, twin_cold=True)
    finally:
        daemon.stop()
    _count_traffic(ctx, loop)
    return daemon, loop, daemon.setup_s + wall


def serve_mixed_traced(ctx: Context):
    traffic = Traffic(ctx.seed)
    fronts = _fronts(ctx, traffic, ctx.root / "src")
    _, plain_loop, plain_wall = _serve_once(ctx, traffic)
    trace = ctx.path("daemon.spans")
    daemon, loop, wall = _serve_once(ctx, traffic, trace)
    bodies = plain_loop.bodies
    for sig, served in loop.bodies.items():
        bodies.setdefault(sig, set()).update(served)
    _verify(ctx, bodies, fronts)
    spans, counters = spanlib.load(str(trace))
    handler = {s.rid: s.duration for s in spans if s.name == "serve.request"}
    transport = [
        (end - start - handler[rid]) / 1e6
        for start, end, rid, miss in loop.windows
        if not miss and rid in handler
    ]
    windows = [(int(daemon.child.start * 1e9), int(daemon.ready_at * 1e9),
                None)]
    windows += [(start, end, rid) for start, end, rid, _ in loop.windows]
    proc = M.TracedProcess(spans, counters, windows, trace.name)
    return [proc], wall / plain_wall - 1.0, statistics.median(transport)


WORKLOADS = {
    "search_a": (search_a, search_a_traced),
    "serve_mixed": (serve_mixed, serve_mixed_traced),
    "tabular_mini": (tabular_mini, tabular_mini_traced),
}
