"""Benchmark of the gbslocc command line.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 40 --trace 0

With `--trace 0` one closed-loop client drives `python -m gbslocc.cli`
(one process at a time, `GBS_LOCC_THREADS` unset) on the workload's seeded
requests for about `--seconds`, checks every output with `oracle`, and
reports the end-to-end metrics.  With `--trace 1` the same requests are
replayed in-process through the package's public functions, once untraced
and once traced, and the per-layer metrics come from the spans (see
`spans`).  `--workload all` runs every workload in turn.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  The full result, and with tracing
the spans, are written under `.perfbench_run/results/`.  The program is
used straight from `src/`; without it the benchmark exits with code 2.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
import oracle

SETUP_LAUNCHES = 7
# Every run must end well inside three minutes, whatever the program does.
RUN_DEADLINE_S = 150.0

END_TO_END = {  # name: unit
    "setup_s": "s",
    "sets_per_s": "sets/s",
    "call_s_p50": "s",
    "call_s_p90": "s",
    "check_call_s_p50": "s",
    "verify_call_s_p50": "s",
    "orbit_call_s_p50": "s",
    "classify_call_s_p50": "s",
    "peak_rss_mb": "MB",
}


class Setup(Exception):
    """The checkout cannot run the benchmark."""


def percentile(values, q):
    """The q-th percentile, interpolated between observed values; 0 when a
    run cut at its deadline has no values."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Client:
    """One closed-loop client: runs one process at a time through the
    launcher and measures it.  Use as a context manager, which stops the
    launcher."""

    def __init__(self, root, deadline):
        self.root = root
        self.deadline = deadline
        self.results = root / ".perfbench_run" / "results"
        self.results.mkdir(parents=True, exist_ok=True)
        self.work = root / ".perfbench_run" / f"tmp-{os.getpid()}"
        self.work.mkdir()
        env = dict(os.environ)
        env.pop("GBS_LOCC_THREADS", None)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        self.launcher = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launcher.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, cwd=root, text=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.launcher.stdin.close()
        self.launcher.wait()
        self.launcher.stdout.close()
        shutil.rmtree(self.work)

    def launch(self, argv):
        """Run argv to completion; returns (exit code, wall s, max RSS MB,
        stdout bytes).  A process still running at the run deadline is
        killed and reported with exit code None."""
        out_path = self.work / "stdout"
        request = {"argv": argv, "stdout": str(out_path),
                   "timeout": self.deadline - time.monotonic()}
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        reply = self.launcher.stdout.readline()
        if not reply:
            raise Setup("the launcher process died")
        reply = json.loads(reply)
        return reply["code"], reply["wall_s"], reply["rss_mb"], out_path.read_bytes()

    def python(self, code):
        return self.launch([sys.executable, "-c", code])

    def cli(self, args):
        return self.launch([sys.executable, "-m", "gbslocc.cli", *args])


def check_checkout(client):
    """Fail unless `src/gbslocc` of this checkout is what gets imported.
    This first import also writes the bytecode cache, before any timing."""
    src = client.root / "src" / "gbslocc"
    if not (src / "cli.py").is_file():
        raise Setup(f"no {src.relative_to(client.root)}/cli.py under {client.root}")
    code, _, _, out = client.python("import gbslocc.cli; print(gbslocc.cli.__file__)")
    if code != 0 or Path(out.decode().strip()).resolve() != (src / "cli.py").resolve():
        raise Setup(f"`import gbslocc.cli` does not load {src}")


def measure_setup(client):
    """Median wall time of fresh-interpreter `import gbslocc.cli` launches."""
    walls = []
    for _ in range(SETUP_LAUNCHES):
        code, wall, _, _ = client.python("import gbslocc.cli")
        if code != 0:
            raise Setup("`import gbslocc.cli` failed")
        walls.append(wall)
    return statistics.median(walls)


def end_to_end(workload, end, client):
    """Send the workload's CLI calls until `end`, then check every output."""
    batch_paths = {}
    for d, batch in workload.batches.items():
        batch_paths[d] = client.work / f"{workload.name}-d{d}.txt"
        batch_paths[d].write_text(batch.text())
    calls, outputs = [], []

    def replay(reqs):
        for req in reqs:
            argv = req.argv(batch_paths.get(req.d))
            code, wall, rss, out = client.cli(argv)
            sets = len(workload.batches[req.d].lines) if req.kind == "batch" else 1
            calls.append({"kind": req.kind, "d": req.d, "argv": argv, "code": code,
                          "wall_s": wall, "rss_mb": rss, "sets": sets,
                          "companion": req.companion})
            outputs.append((req, code, out))
            if code is None:
                raise TimeoutError

    try:
        rounds = inputs.run_schedule(workload, end, client.deadline, replay)
    except TimeoutError:
        rounds = None
    checker = oracle.OutputChecker(workload)
    for call, (req, code, out) in zip(calls, outputs):
        call["problems"] = checker(req, code, out)[:5]

    def p50(*kinds):
        return percentile([c["wall_s"] for c in calls if c["kind"] in kinds], 50)

    checks = [c for c in calls if c["kind"] in ("check", "batch")]
    own = [c["wall_s"] for c in calls if not c["companion"]]
    metrics = {
        "sets_per_s": sum(c["sets"] for c in checks)
        / max(1e-9, sum(c["wall_s"] for c in checks)),
        "call_s_p50": percentile(own, 50),
        "call_s_p90": percentile(own, 90),
        "check_call_s_p50": p50("check", "batch"),
        "verify_call_s_p50": p50("verify"),
        "orbit_call_s_p50": p50("orbit"),
        "classify_call_s_p50": p50("classify"),
        "peak_rss_mb": max((c["rss_mb"] for c in calls), default=0.0),
    }
    return metrics, calls, rounds


def run_workload(name, seed, seconds, trace, root):
    start = time.monotonic()
    with Client(root, start + RUN_DEADLINE_S) as client:
        check_checkout(client)
        workload = inputs.Workload(name, seed)
        if trace:
            import spans
            metrics, units, calls, rounds, span_rows = spans.traced_run(
                workload, start + seconds, client)
        else:
            setup_s = measure_setup(client)
            metrics, calls, rounds = end_to_end(workload, start + seconds, client)
            metrics = {"setup_s": setup_s, **metrics}
            units, span_rows = END_TO_END, None
    failed = sum(1 for c in calls if c["problems"])
    result = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "rounds": rounds, "attempted": len(calls), "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "calls": calls,
    }
    out_dir = client.results
    stem = f"{name}-seed{seed}-trace{trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(result, indent=1))
    if span_rows is not None:
        with open(out_dir / f"{name}-seed{seed}-spans.jsonl", "w") as f:
            for row in span_rows:
                f.write(json.dumps(row) + "\n")
    return result


def print_table(result):
    print(f"workload {result['workload']} (seed {result['seed']}, {result['rounds']} rounds, "
          f"{'traced, per round' if result['trace'] else 'untraced'})")
    for name, m in result["metrics"].items():
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
    ratio = result["failed"] / max(1, result["attempted"])
    print(f"  {'failed_ratio':<40} {ratio:>14.6g} failed/attempted "
          f"({result['failed']} of {result['attempted']})")
    for call in result["calls"]:
        for problem in call["problems"]:
            print(f"  FAILED {' '.join(call['argv'])[:100]}: {problem}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    names = inputs.WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            results.append(run_workload(name, args.seed, args.seconds, args.trace, root))
            print_table(results[-1])
    except Setup as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    prefix = len(results) > 1
    summary = {
        "correct": all(r["failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {(f"{r['workload']}.{k}" if prefix else k): v
                    for r in results for k, v in r["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
