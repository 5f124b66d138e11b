"""End-to-end benchmark of the ``repro`` CLI and daemon, with a traced mode.

Run from the root of a checkout::

    python3 perfbench/run.py --workload search_a --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run (and writes a Chrome trace-event file
Perfetto opens). The last stdout line is the result object; the line
before it records the host, the sample counts and any wrong output.
Exits non-zero on a wrong output, and without a result when the
checkout holds no ``src/repro`` to measure. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))


def _commit() -> str:
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def host_record(seed: int) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "loadavg_before": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _commit(),
        "src_sha256": _src_digest(),
        "seed": seed,
    }


def main(argv=None) -> int:
    import workloads as W

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import metrics as M
    import spans as spanlib

    # Byte-compile once up front, as an installed package would be, so
    # the first measured interpreter does not pay for it.
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(ROOT / "src")],
        check=True, timeout=300,
    )
    out = ROOT / ".bench_out" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    )
    out.mkdir(parents=True)
    host = host_record(args.seed)
    ctx = W.Context(ROOT, out, args.seed, args.seconds)
    plain, traced = W.WORKLOADS[args.workload]
    samples = None
    # SIGTERM unwinds like an error, so the finally below stops children.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        if args.trace:
            procs, overhead, transport_ms = traced(ctx)
        else:
            values, samples = plain(ctx)
    finally:
        ctx.close()
    if args.trace:
        values = M.per_layer(procs, overhead, transport_ms)
        units = M.per_layer_units()
        events = []
        for pid, proc in enumerate(procs, start=1):
            events += spanlib.chrome_events(proc.spans, pid, proc.label)
        with open(out / "trace.json", "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
    else:
        units = M.END_TO_END
    host["loadavg_after"] = os.getloadavg()

    result = ctx.tally.result(values, units)
    detail = {
        "workload": args.workload, "trace": args.trace, "host": host,
        "samples": samples, "wrong": ctx.tally.wrong,
        "trace_file": str((out / "trace.json").relative_to(ROOT))
        if args.trace else None,
    }
    (out / "result.json").write_text(json.dumps({**detail, **result}, indent=2))
    # Keep logs, results and the Chrome trace; drop bulky run outputs.
    for entry in out.iterdir():
        if entry.is_dir():
            shutil.rmtree(entry)
        elif entry.name.endswith(".spans"):
            entry.unlink()
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
