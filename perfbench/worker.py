"""One timed run of one workload, in a fresh process started by run.py.

    python3 perfbench/worker.py --root . --workload certify --seed 1 --seconds 15 --trace 0
    python3 perfbench/worker.py --root . --setup-only

Set-up (importing walland.cli and loading the surface lattices) is timed
first, before anything else imports the modules walland pulls in.  The
last stdout line is one JSON document for run.py.
"""

import os
import sys
import time

SURFACES = ("p2", "p1xp1_twisted")

# On a shared virtual machine the CPU speed can swing by 1.5-3x over periods
# of 0.1-10 s (as on the 2-vCPU VM this benchmark was built on).  Every
# time is therefore also taken in reference units: divided by the median time
# of a fixed builtins-only loop sampled while it ran, times REF_SPIN_S.
# During timed rounds SIGALRM samples the loop about every SAMPLE_EVERY_S,
# also in the middle of long operations; the sampled time is taken out of
# theirs.
REF_SPIN_S = 1e-4
SAMPLE_EVERY_S = 0.005
BATCH_S = 0.02  # short operations share one speed estimate per batch


def spin():
    """Time of the calibration loop (pure bytecode, no imports)."""
    t = time.perf_counter()
    y, d = 1, {}
    for i in range(1, 1000):
        y = (y * 31 + i) % 1000003
        d[i & 255] = y
    return time.perf_counter() - t


class SpeedSampler:
    """Samples of spin() taken at batch boundaries and, with alarm, on SIGALRM.

    Alarm intervals are drawn from [0.5, 1.5] * SAMPLE_EVERY_S so that the
    samples cannot lock onto a periodic stall of the host.  The traced run
    samples only at boundaries, outside every span.
    """

    def __init__(self, alarm):
        import random
        import signal

        self.signal = signal
        self.alarm = alarm
        self.jitter = random.Random(0)
        self.samples = []

    def sample(self):
        self.samples.append(spin())

    def _on_alarm(self, *_):
        self.sample()
        self._arm()

    def _arm(self):
        delay = SAMPLE_EVERY_S * (0.5 + self.jitter.random())
        self.signal.setitimer(self.signal.ITIMER_REAL, delay)

    def __enter__(self):
        if self.alarm:
            self.old = self.signal.signal(self.signal.SIGALRM, self._on_alarm)
            self._arm()
        return self

    def __exit__(self, *exc):
        if self.alarm:
            self.signal.setitimer(self.signal.ITIMER_REAL, 0)
            self.signal.signal(self.signal.SIGALRM, self.old)


def setup(root):
    """Import the program from <root>/src and load the lattices; time both."""
    spin()
    before = sum(spin() for _ in range(10)) / 10
    t0 = time.perf_counter()
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import walland.cli  # noqa: F401  (the CLI imports every layer)

    t1 = time.perf_counter()
    import walland

    where = os.path.dirname(os.path.abspath(walland.__file__))
    if os.path.dirname(where) != os.path.abspath(src):
        raise SystemExit(f"walland was imported from {where}, not from {src}")
    for name in SURFACES:
        walland.SurfaceLattice.load(os.path.join(root, "surfaces", f"{name}.json"))
    t2 = time.perf_counter()
    after = sum(spin() for _ in range(10)) / 10
    scale = REF_SPIN_S / ((before + after) / 2)
    return {
        "import_s": t1 - t0,
        "load_surfaces_s": t2 - t1,
        "setup_s": (t2 - t0) * scale,
    }


def main(argv):
    # set-up is timed before argparse, json and the rest are imported
    setup_times = setup(argv[argv.index("--root") + 1])
    import argparse

    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args(argv)
    if args.setup_only:
        print(_dumps(setup_times))
        return 0

    import gc
    import random
    import resource

    import checks
    import tracing
    import workloads

    prog = workloads.Program(args.root, SURFACES)
    wl = workloads.WORKLOADS[args.workload](prog, args.seed)
    n = len(wl.inputs)
    order = [i for i, r in enumerate(wl.repeats) for _ in range(r)]
    random.Random(args.seed).shuffle(order)
    docs = [None] * n
    first_error = {}
    latencies = []  # seconds as measured, per execution
    scaled = [[] for _ in range(n)]  # reference units per input, see REF_SPIN_S
    gc.collect()

    def round_(sampler, tracer=None):
        """One pass over the round; returns its time in operations, raw and scaled.

        The sampled loop time inside an operation is taken out of it, and
        each batch of operations is scaled by the median loop time from the
        sample before it to the sample after it.
        """
        busy = busy_scaled = 0.0
        batch = []
        sampler.sample()
        first = len(sampler.samples) - 1
        for pos, i in enumerate(order):
            inp = wl.inputs[i]
            if tracer:
                tracer.begin_op(len(latencies))
            k = len(sampler.samples)
            t = time.perf_counter()
            try:
                out = wl.run(inp)
            except Exception as exc:  # a failed operation, counted below
                out = None
                first_error.setdefault(i, f"{type(exc).__name__}: {exc}")
            dt = time.perf_counter() - t - sum(sampler.samples[k:])
            if tracer:
                tracer.end_op()
            latencies.append(dt)
            busy += dt
            batch.append((i, dt))
            if sum(x for _, x in batch) >= BATCH_S or pos == len(order) - 1:
                sampler.sample()
                scale = REF_SPIN_S / _median(sampler.samples[first:])
                for j, x in batch:
                    scaled[j].append(x * scale)
                    busy_scaled += x * scale
                first, batch = len(sampler.samples) - 1, []
            if out is not None:
                doc = wl.document(inp, out)
                if docs[i] is None:
                    docs[i] = doc
                elif doc != docs[i]:
                    first_error.setdefault(i, "output differs between executions")
        return busy, busy_scaled

    rounds = 0
    busy_total = 0.0
    record = {}
    tracer = None
    if args.trace:
        # untraced, traced, untraced: the overhead is taken against the mean
        # of the two untraced rounds, in scaled time; only the traced
        # round's counts and spans are reported
        tracer = tracing.Tracer(
            {"walls": prog.walls, "traces": prog.traces, "jsonio": prog.jsonio,
             "stability": prog.stability, "plane": sys.modules["walland.plane"],
             "lattice": prog.lattice}
        )
        with SpeedSampler(alarm=False) as sampler:
            before = round_(sampler)
            tracer.install()
            try:
                traced = round_(sampler, tracer)
            finally:
                tracer.uninstall()
            after = round_(sampler)
        rounds = 3
        busy_total = before[0] + traced[0] + after[0]
        overhead = traced[1] / ((before[1] + after[1]) / 2) - 1
        record["round_s"] = {"untraced": [before[0], after[0]], "traced": traced[0]}
    else:
        start = time.perf_counter()
        last = 0.0
        with SpeedSampler(alarm=True) as sampler:
            while rounds == 0 or time.perf_counter() - start + last <= args.seconds:
                r0 = time.perf_counter()
                busy_total += round_(sampler)[0]
                last = time.perf_counter() - r0
                rounds += 1
        record["speed_samples"] = len(sampler.samples)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # checks, after the timed part and outside the peak-RSS reading
    t_check = time.perf_counter()
    info = {}  # per distinct input
    per_round = {}  # weighted by how often each input runs in a round
    for i, inp in enumerate(wl.inputs):
        if i in first_error or docs[i] is None:
            continue
        try:
            for key, val in wl.check(inp, docs[i], i).items():
                info[key] = info.get(key, 0) + val
                per_round[key] = per_round.get(key, 0) + val * wl.repeats[i]
        except checks.CheckFailed as exc:
            first_error[i] = f"check: {exc}"
    record["check_s"] = time.perf_counter() - t_check
    bad = sorted(first_error)
    failed = rounds * sum(wl.repeats[i] for i in bad)
    attempted = rounds * len(order)
    result = {
        "correct": not any(first_error[i].startswith("check") for i in bad),
        "attempted": attempted,
        "failed": failed,
        "rounds": rounds,
        "inputs": n,
        "ops_per_round": len(order),
        "setup": setup_times,
        "errors": {str(i): first_error[i] for i in bad[:10]},
        "info": info,
        "record": record,
    }
    record["raw_ops_per_s"] = len(latencies) / busy_total
    record["raw_op_p50_ms"] = 1000 * _median(latencies)
    if not tracer:
        # one pass over the distinct inputs, each timed by its median execution
        typical = [_median(xs) for xs in scaled if xs]
        result["metrics"] = {
            "ops_per_s": len(typical) / sum(typical),
            "op_p50_ms": 1000 * _hd_median(typical),
            "peak_rss_mb": peak_rss_mb,
        }
        # how far repeated executions of one input disagree, a noise floor
        record["repeat_range"] = _median(
            [(max(xs) - min(xs)) / _median(xs) for xs in scaled if len(xs) > 1] or [0.0]
        )
        execs = sum(len(xs) for xs in scaled)
        result["samples"] = {"ops_per_s": execs, "op_p50_ms": execs, "peak_rss_mb": 1}
    if tracer:
        per_layer = tracer.metrics(per_round.get("nodes", 0), per_round.get("hom_dim", 0))
        per_layer["trace.overhead"] = (overhead, "ratio")
        result["per_layer"] = per_layer
        result["spans"] = tracer.dump()
    print(_dumps(result))
    return 0


def _median(xs):
    xs = sorted(xs)
    m = len(xs) // 2
    return xs[m] if len(xs) % 2 else (xs[m - 1] + xs[m]) / 2


def _hd_median(xs, steps=16):
    """Harrell-Davis estimate of the median: a Beta((n+1)/2, (n+1)/2)
    weighted mean of the order statistics.  It uses every sample near the
    middle, so one noisy sample moves it less than the plain median."""
    import math

    xs = sorted(xs)
    n = len(xs)
    a = (n + 1) / 2
    log_norm = 2 * math.lgamma(a) - math.lgamma(2 * a)

    def density(x):
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return math.exp((a - 1) * (math.log(x) + math.log1p(-x)) - log_norm)

    weights = []
    for i in range(n):
        lo, h = i / n, 1 / (n * steps)
        ys = [density(lo + k * h) for k in range(steps + 1)]
        weights.append(h * (sum(ys) - (ys[0] + ys[-1]) / 2))
    total = sum(weights)
    return sum(w * x for w, x in zip(weights, xs)) / total


def _dumps(obj):
    import json  # not at the top: set-up is timed before walland imports it

    return json.dumps(obj)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
