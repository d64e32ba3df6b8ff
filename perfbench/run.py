"""Benchmark entry point: one run of one workload.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout.  The timed run happens in a fresh
child process (worker.py) so that its set-up time and peak RSS are its
own; set-up is also timed in SETUP_PROBES more fresh processes and
reported as the median.  With --trace 0 the last stdout line carries the
end-to-end metrics, with --trace 1 the per-layer metrics of a traced
round.  A record of the run, and with --trace 1 its spans, go to
perfbench/results/.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
WORKER = os.path.join(HERE, "worker.py")
SETUP_PROBES = 10
WORKER_TIMEOUT_S = 160


def child(args, timeout):
    """Run worker.py with args; return its last stdout line as JSON."""
    proc = subprocess.run(
        [sys.executable, WORKER, "--root", ROOT] + args,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=timeout,
        cwd=ROOT,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker failed with exit code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    probes = [child(["--setup-only"], 60) for _ in range(SETUP_PROBES)]
    res = child(
        ["--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        WORKER_TIMEOUT_S,
    )
    setups = probes + [res["setup"]]
    import_s = statistics.median(p["import_s"] for p in setups)
    load_s = statistics.median(p["load_surfaces_s"] for p in setups)
    setup_s = statistics.median(p["setup_s"] for p in setups)

    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in res["per_layer"].items()}
        metrics["setup.import_s"] = {"value": import_s, "unit": "s"}
        metrics["setup.load_surfaces_s"] = {"value": load_s, "unit": "s"}
        samples = {"setup": len(setups)}
    else:
        m = res["metrics"]
        metrics = {
            "ops_per_s": {"value": m["ops_per_s"], "unit": "op/s"},
            "op_p50_ms": {"value": m["op_p50_ms"], "unit": "ms"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": m["peak_rss_mb"], "unit": "MB"},
        }
        samples = dict(res["samples"], setup_s=len(setups))

    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "attempted": res["attempted"],
        "failed": res["failed"],
        "rounds": res["rounds"],
        "inputs": res["inputs"],
        "ops_per_round": res["ops_per_round"],
        "errors": res["errors"],
        "info": res["info"],
        "record": res["record"],
        "samples": samples,
        "metrics": metrics,
    }
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    if args.trace:
        with open(stem + "-spans.json", "w", encoding="utf-8") as fh:
            json.dump(res["spans"], fh)

    print(
        f"{args.workload} seed={args.seed} rounds={res['rounds']} "
        f"attempted={res['attempted']} failed={res['failed']} samples={samples}"
    )
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
