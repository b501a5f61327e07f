"""cubalg benchmark: run one workload's CLI commands in a closed loop.

Run from the repository root:

    python3 perfbench/run.py --workload steenrod --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 45 --trace 1

One caller runs the workload's ops (see workloads.py) through
`cubalg.cli.dispatch` in this process, one after another; the seed only
shuffles their order within each pass.  Every op's exit status and stdout
digest are checked.

With `--trace 0`, passes repeat while the next one is expected to end
within `--seconds` (at least one pass), and the end-to-end metrics are
medians over the passes.  With `--trace 1`, one pass runs every op twice in a
row, untraced and then traced; the per-layer metrics come from the traced
runs, and `trace.overhead_s` sums each op's traced minus untraced wall
time.  `--workload all` runs every workload in its own process
and prints one table.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  The full result, with the
environment it ran in, and the traced run's spans go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
sys.path.insert(0, SRC)

# Set-up is timed in fresh processes: import the CLI and build its parser.
# One round runs before the passes and one after them, so that the median
# spans the whole run.
SETUP_ROUND = 6
SETUP_CODE = ("import time\n"
              "t0 = time.perf_counter()\n"
              "import cubalg.cli\n"
              "cubalg.cli.build_parser()\n"
              "print(repr(time.perf_counter() - t0))\n")
CHILD_TIMEOUT_S = 170


def measure_setup() -> list:
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(SETUP_ROUND):
        out = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                             env=env, capture_output=True, text=True,
                             check=True, timeout=60)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def run_op(cli, op) -> dict:
    """Run one op through `cli.dispatch`; it fails on a wrong exit status,
    an exception or a stdout digest other than the recorded one."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli.dispatch(list(op.argv))
        error = None
    except SystemExit as exc:  # argparse rejected the arguments
        status, error = exc.code, "SystemExit(%r)" % (exc.code,)
    except Exception as exc:  # noqa: BLE001 - a failed op must not end the run
        status, error = None, "%s: %s" % (type(exc).__name__, exc)
    wall = time.perf_counter() - t0
    digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
    ok = (error is None and status == op.exit_status
          and digest == op.stdout_sha256)
    if not ok:
        sys.stderr.write("op failed: %s: status %r, stdout sha256 %s%s\n%s"
                         % (op.label, status, digest,
                            ", " + error if error else "", err.getvalue()))
    return {"op": op.label, "wall_s": wall, "status": status,
            "stdout_sha256": digest, "ok": ok}


def run_pass(cli, ops) -> dict:
    wall0, cpu0 = time.perf_counter(), time.process_time()
    records = [run_op(cli, op) for op in ops]
    return {"wall_s": time.perf_counter() - wall0,
            "cpu_s": time.process_time() - cpu0,
            "op_max_s": max(r["wall_s"] for r in records),
            "ops": records}


def environment(seed: int) -> dict:
    import cubalg
    commit = None  # unknown unless the checkout is a git repository
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"python": platform.python_version(),
            "kernel_backend": cubalg.KERNEL_BACKEND,
            "commit": commit, "nproc": os.cpu_count(), "seed": seed}


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_untraced(cli, ops, rng, seconds: float) -> tuple:
    passes = []
    start = time.perf_counter()
    while True:
        order = list(ops)
        rng.shuffle(order)
        passes.append(run_pass(cli, order))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > seconds:
            break
    med = {k: statistics.median(p[k] for p in passes)
           for k in ("wall_s", "cpu_s", "op_max_s")}
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {"wall_s": metric(med["wall_s"], "s"),
               "cpu_s": metric(med["cpu_s"], "s"),
               "op_max_s": metric(med["op_max_s"], "s"),
               "peak_rss_mb": metric(rss_mb, "MB")}
    return passes, metrics


def run_traced(cli, ops, rng, spans_path: str) -> tuple:
    from spans import Tracer, per_layer_metrics

    order = list(ops)
    rng.shuffle(order)
    tracer = Tracer()
    plain, traced = [], []
    # Each op runs untraced and then traced, back to back, so that each
    # difference in the overhead is taken seconds apart rather than a
    # whole pass apart.
    for i, op in enumerate(order):
        plain.append(run_op(cli, op))
        tracer.op_id = i
        tracer.install()
        try:
            traced.append(run_op(cli, op))
        finally:
            tracer.uninstall()
    # The recorded digests already tie both runs to the same bytes; this
    # compares the two runs of each op directly as well.
    same = all(a["stdout_sha256"] == b["stdout_sha256"]
               for a, b in zip(plain, traced))
    tracer.write_spans(spans_path, [op.label for op in order])
    metrics = {name: metric(value, unit) for name, (value, unit)
               in per_layer_metrics(tracer).items()}
    traced_wall = sum(r["wall_s"] for r in traced)
    metrics["trace.wall_s"] = metric(traced_wall, "s")
    metrics["trace.overhead_s"] = metric(
        traced_wall - sum(r["wall_s"] for r in plain), "s")
    return [{"ops": plain}, {"ops": traced}], metrics, same, len(
        tracer.span_name)


def run_workload(args) -> dict:
    import cubalg.cli as cli

    ops = WORKLOADS[args.workload]

    setup_times = measure_setup()
    rng = random.Random(args.seed)
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, "%s-seed%d-trace%d"
                        % (args.workload, args.seed, args.trace))
    extra = {}
    if args.trace:
        passes, metrics, same, nspans = run_traced(
            cli, ops, rng, stem + ".spans.tsv.gz")
        extra = {"traced_stdout_matches_untraced": same, "spans": nspans}
    else:
        passes, metrics = run_untraced(cli, ops, rng, args.seconds)
        same = True
    setup_s = statistics.median(setup_times + measure_setup())
    if args.trace:
        extra["setup_s"] = setup_s
    else:
        metrics["setup_s"] = metric(setup_s, "s")
    records = [r for p in passes for r in p["ops"]]
    failed = sum(not r["ok"] for r in records)
    result = {"correct": failed == 0 and same, "attempted": len(records),
              "failed": failed, "metrics": metrics}
    detail = dict(result, workload=args.workload,
                  env=environment(args.seed),
                  fail_ratio=failed / len(records), passes=passes, **extra)
    with open(stem + ".json", "w") as fh:
        json.dump(detail, fh, indent=1, sort_keys=True)
    print("env: " + json.dumps(detail["env"], sort_keys=True))
    print_table({args.workload: detail})
    return result


def print_table(details: dict) -> None:
    """Human-readable metrics, one row per workload and metric."""
    for workload, d in details.items():
        rows = [("fail_ratio", d["fail_ratio"], "ratio")]
        rows += [(k, m["value"], m["unit"])
                 for k, m in sorted(d["metrics"].items())]
        if "setup_s" in d:
            rows.append(("setup_s", d["setup_s"], "s"))
        for name, value, unit in rows:
            print("%-10s %-34s %16.6g %s" % (workload, name, value, unit))
        if "traced_stdout_matches_untraced" in d:
            print("%-10s traced stdout matches untraced: %s (%d spans)"
                  % (workload, d["traced_stdout_matches_untraced"],
                     d["spans"]))


def run_all(args) -> dict:
    """Every workload in its own process, one after another."""
    details, metrics = {}, {}
    attempted = failed = 0
    correct = True
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise RuntimeError("workload %s exited with %d"
                               % (name, proc.returncode))
        with open(os.path.join(OUT_DIR, "%s-seed%d-trace%d.json"
                               % (name, args.seed, args.trace))) as fh:
            res = details[name] = json.load(fh)
        correct = correct and res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
        for key, m in res["metrics"].items():
            metrics["%s.%s" % (name, key)] = m
    print("env: " + json.dumps(next(iter(details.values()))["env"],
                               sort_keys=True))
    print_table(details)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isdir(os.path.join(SRC, "cubalg")):
        sys.exit("perfbench: no cubalg sources under %s" % SRC)
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result, sort_keys=True))


if __name__ == "__main__":
    main()
