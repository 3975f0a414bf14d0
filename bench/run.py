"""genusforge benchmark: seeded workloads through the library and its CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --all --seed N --seconds S --out BENCH_label.json
    python3 bench/run.py --compare A.json B.json
    python3 bench/run.py --smoke [--trace 1]

A run sets up (import, input generation and parsing, frozen expectations),
warms up on inputs outside the frozen pool, then runs a fixed prefix of
the pool's rounds one job at a time (a closed loop with one client, no
worker threads).  The prefix is sized from --seconds so that the run
takes about that long on the reference machine, and holds at least 100
jobs; the seed orders the rounds and the jobs inside each.  Every run of
the same --seconds therefore checks the same jobs, whatever the seed or
the speed of the machine, and its attempted and failed counts repeat
exactly.  Every job
is checked: exact results and CLI reports against frozen digests,
numeric values against frozen mpmath references.  The last line of
stdout is one JSON object; the lines above it are a readable table.

--trace 1 runs the same rounds untraced and then traced with every
genusforge layer wrapped (tracer.py), and reports per-layer counts and
self times plus the tracing overhead.  See README.md for the metrics.
"""

import time

T0 = time.perf_counter()  # set-up time counts every import that follows

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
WORK = os.path.join(ROOT, ".bench_work")
DEFAULT_SEED = 1
HELD_OUT_SEED = 2
SETUP_PROBES = 9
MIN_JOBS = 100
E2E_UNITS = {"jobs_per_s": "1/s", "job_p50_ms": "ms", "job_p90_ms": "ms",
             "setup_s": "s", "peak_rss_mb": "MB", "failed_frac": "fraction"}


def _fail(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _check_checkout():
    if not os.path.isfile(os.path.join(SRC, "genusforge", "__init__.py")):
        _fail(f"no genusforge sources under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)


# ---------------------------------------------------------------------------
# environment


def git_commit():
    """The checked-out commit read from .git, or 'unknown' outside a repository."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(ROOT, ".git", name)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(workload, seed, traced):
    from genusforge import _kernels
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "backend": _kernels.BACKEND,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "commit": git_commit(),
        "workload": workload,
        "seed": seed,
        "traced": bool(traced),
    }


# ---------------------------------------------------------------------------
# set-up


def planned_rounds(w, per_round, seconds, traced, smoke):
    """How many pool rounds a run uses: the rounds 0..n-1 of the pool.

    An untraced run takes about `seconds` on the reference machine
    (w.round_s is one round's wall time there) and at least MIN_JOBS jobs;
    a traced run takes 2 * w.trace_rounds rounds, half of them traced.
    Returns (n, capped): capped when the pool holds fewer rounds than asked.
    """
    if traced:
        wanted = 2 if smoke else 2 * w.trace_rounds
    elif smoke:
        wanted = 1
    else:
        wanted = max(math.ceil(seconds / w.round_s), math.ceil(MIN_JOBS / per_round))
    return min(wanted, w.pool_rounds), wanted > w.pool_rounds


class Setup:
    """Everything a run needs before its first timed job."""

    def __init__(self, workload_name, seed, workdir, seconds, traced=False, smoke=False):
        from workloads import DATA, WORKLOADS, digest
        if workload_name not in WORKLOADS:
            _fail(f"unknown workload {workload_name!r}; choose from {sorted(WORKLOADS)}")
        self.workload = w = WORKLOADS[workload_name]
        path = os.path.join(DATA, f"{w.name}.json")
        if not os.path.isfile(path):
            _fail(f"missing frozen data {path}; regenerate it with bench/freeze.py")
        with open(path) as fh:
            self.frozen = json.load(fh)
        w.setup()
        pool = [w.make_round(r) for r in range(w.pool_rounds)]
        flat = [[job.key, job.kind, job.payload] for rnd in pool for job in rnd]
        if digest(flat) != self.frozen["inputs_digest"]:
            _fail(f"{w.name}: the generated pool differs from the frozen one; "
                  "rerun bench/freeze.py after changing the generators")
        used, self.capped = planned_rounds(w, len(pool[0]), seconds, traced, smoke)
        if traced and self.capped:
            _fail(f"{w.name}: the pool is too small for {w.trace_rounds} traced rounds")
        rng = random.Random(f"{w.name}:order:{seed}")
        order = list(range(used))
        rng.shuffle(order)
        self.rounds = []
        for r in order:
            jobs = pool[r]
            rng.shuffle(jobs)
            self.rounds.append(jobs)
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        self.warmup = w.make_round(w.pool_rounds + 1 + seed % 1000)[::4]
        for job in [job for rnd in self.rounds for job in rnd] + self.warmup:
            job.parsed = w.prepare(job, workdir)


def setup_probe(workload, seed, seconds):
    """One cold set-up in this fresh process; prints its seconds."""
    _check_checkout()
    workdir = os.path.join(WORK, f"probe-{os.getpid()}")
    Setup(workload, seed, workdir, seconds)
    elapsed = time.perf_counter() - T0
    shutil.rmtree(workdir, ignore_errors=True)
    print(repr(elapsed))


def cold_setup_seconds(workload, seed, seconds):
    """One cold set-up in a fresh interpreter."""
    from workloads import child_env
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe",
         "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)],
        capture_output=True, text=True, cwd=ROOT, timeout=120, check=True,
        env=child_env(),
    )
    return float(out.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# job execution and checks


class Runner:
    """Executes and checks jobs of one workload; collects per-job records."""

    def __init__(self, setup):
        from workloads import CliRuns
        self.s = setup
        self.w = setup.workload
        self.cli = isinstance(self.w, CliRuns)
        self.tracer = None
        self.records = []
        self.round_no = 0
        self.child_rss_kb = 0
        self.report_bytes = []
        self.trace_aggs = {}
        if self.cli:
            self.env = self.w.env()

    def _execute(self, job):
        """Runs one job; returns (seconds, outcome)."""
        if self.cli:
            trace_file = None
            if self.tracer is not None:
                trace_file = os.path.join(self.s.workdir, f"trace-{job.key}.json")
            cmd = self.w.command(self.w.write_input(job.parsed), trace_file)
            err = os.path.join(self.s.workdir, "stderr.txt")
            start = time.perf_counter()
            code, out, stderr, rss = self.w.spawn(cmd, self.env, err)
            elapsed = time.perf_counter() - start
            self.child_rss_kb = max(self.child_rss_kb, rss)
            self.report_bytes.append(len(out))
            if trace_file is not None and os.path.isfile(trace_file):
                from tracer import merge
                with open(trace_file) as fh:
                    merge(self.trace_aggs, json.load(fh))
            return elapsed, (code, out, stderr)
        if self.tracer is not None:
            self.tracer.job = job.key
        start = time.perf_counter()
        try:
            result = self.w.execute(job)
        except Exception as exc:  # a failing job is a measured outcome, not a crash
            result = exc
        return time.perf_counter() - start, result

    def check(self, job, outcome):
        """(ok, digest or None, detail) against the frozen expectations."""
        from workloads import digest
        expect = self.s.frozen["expect"].get(job.key)
        if isinstance(outcome, Exception):
            return False, None, f"{type(outcome).__name__}: {outcome}"
        if self.cli:
            ok, canon, detail = self.w.verdict(job, outcome)
            if canon is None:
                return ok, None, detail
            got = digest(canon)
            return ok and got == expect, got, detail if got == expect else "digest differs"
        if self.w.name == "numeric-eval":
            ok, detail = self.w.verdict(job, outcome, expect)
            return ok, None, detail
        got = digest(self.w.canonical(job, outcome))
        return got == expect, got, "" if got == expect else "digest differs"

    def run_job(self, job, record=True):
        seconds, outcome = self._execute(job)
        if not record:
            return
        ok, dig, detail = self.check(job, outcome)
        self.records.append({"key": job.key, "kind": job.kind, "ms": seconds * 1e3,
                             "ok": ok, "digest": dig, "detail": detail,
                             "round": self.round_no})

    def run_rounds(self, rounds):
        """Every job of the given rounds; returns the wall time taken."""
        start = time.perf_counter()
        for rnd in rounds:
            for job in rnd:
                self.run_job(job)
            self.round_no += 1
        return time.perf_counter() - start


def _percentile(sorted_ms, q):
    return sorted_ms[max(0, math.ceil(q * len(sorted_ms)) - 1)]


def e2e_metrics(records, rss_kb):
    """jobs_per_s is the median over rounds of correct jobs per second of job
    time: every round holds the whole input mix, and the median keeps a burst
    of machine noise in one round from moving the run's figure."""
    ms = sorted(r["ms"] for r in records)
    good = sum(1 for r in records if r["ok"])
    rounds = {}
    for r in records:
        tally = rounds.setdefault(r["round"], [0, 0.0])
        tally[0] += r["ok"]
        tally[1] += r["ms"] / 1e3
    return {
        "jobs_per_s": statistics.median(n / t for n, t in rounds.values()),
        "job_p50_ms": statistics.median(ms),
        "job_p90_ms": _percentile(ms, 0.9),
        "peak_rss_mb": rss_kb / 1024.0,
        "failed_frac": 1 - good / len(records),
    }


def _per_kind(records):
    """Job count, median and worst latency per job class."""
    by_kind = {}
    for r in records:
        by_kind.setdefault(r["kind"], []).append(r["ms"])
    return {kind: {"jobs": len(ms), "p50_ms": statistics.median(ms), "max_ms": max(ms)}
            for kind, ms in sorted(by_kind.items())}


def summarize_failures(records, frozen):
    """Failures split into those frozen as baseline defects and new ones."""
    baseline = frozen.get("baseline_fail", {})
    known, new, fixed = {}, [], []
    for r in records:
        if not r["ok"]:
            if r["key"] in baseline:
                known[r["kind"]] = known.get(r["kind"], 0) + 1
            else:
                new.append(r)
        elif r["key"] in baseline:
            fixed.append(r["key"])
    return known, new, fixed


# ---------------------------------------------------------------------------
# one workload run


def run_workload(args):
    _check_checkout()
    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    try:
        return _run_workload(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run_workload(args, workdir):
    setup = Setup(args.workload, args.seed, workdir, args.seconds, args.trace, args.smoke_run)
    setup_inprocess = time.perf_counter() - T0
    w = setup.workload
    runner = Runner(setup)
    for job in setup.warmup[:2] if runner.cli else setup.warmup:
        runner.run_job(job, record=False)
    runner.child_rss_kb = 0

    result = {"env": environment(w.name, args.seed, args.trace), "seconds": args.seconds}
    if args.trace:
        metrics, info = _traced(args, setup, runner)
        result.update(info)
    else:
        if args.smoke_run:
            probes, wall = [setup_inprocess], runner.run_rounds(setup.rounds)
        else:
            probes, wall = _run_with_probes(args, setup, runner)
        rss = runner.child_rss_kb if runner.cli else resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss
        metrics = e2e_metrics(runner.records, rss)
        metrics["setup_s"] = statistics.median(probes)
        result.update(rounds=len(setup.rounds), wall_s=wall, setup_probes_s=probes,
                      setup_inprocess_s=setup_inprocess, pool_exhausted=setup.capped)
    records = runner.records
    known, new, fixed = summarize_failures(records, setup.frozen)
    result.update(
        attempted=len(records),
        failed=sum(1 for r in records if not r["ok"]),
        known_failures=known,
        new_failures=[{k: r[k] for k in ("key", "kind", "detail")} for r in new],
        fixed_baseline_failures=fixed,
        digests={r["key"]: r["digest"] for r in records if r["digest"]},
        kinds=_per_kind(records),
        metrics=metrics,
    )
    correct = not new
    _write_result(args, result)
    _print_table(result)
    line = {"correct": correct, "attempted": len(records), "failed": result["failed"],
            "metrics": _reported(metrics, args.trace)}
    print(json.dumps(line))
    return 0


def _run_with_probes(args, setup, runner):
    """The run's rounds in SETUP_PROBES equal slices, each after one cold
    set-up probe: set-up is sampled across the whole run, so a short burst
    of host noise moves one probe rather than all of them.  Returns the
    probe times and the wall time of the rounds alone."""
    rounds, n = setup.rounds, len(setup.rounds)
    probes, wall = [], 0.0
    for k in range(SETUP_PROBES):
        probes.append(cold_setup_seconds(args.workload, args.seed, args.seconds))
        wall += runner.run_rounds(rounds[k * n // SETUP_PROBES:(k + 1) * n // SETUP_PROBES])
    return probes, wall


def _traced(args, setup, runner):
    """Untraced rounds, then as many other rounds traced; per-layer metrics."""
    from tracer import Tracer, layer_metrics
    w = setup.workload
    count = len(setup.rounds) // 2
    plain = setup.rounds[:count]
    traced = setup.rounds[count:2 * count]
    runner.run_rounds(plain)
    plain_records = list(runner.records)
    plain_rate = e2e_metrics(plain_records, 0)["jobs_per_s"]
    tracer = Tracer()
    runner.tracer = tracer
    if not runner.cli:
        tracer.install()
    runner.records = []
    runner.run_rounds(traced)
    traced_records = runner.records
    traced_rate = e2e_metrics(traced_records, 0)["jobs_per_s"]
    agg = runner.trace_aggs if runner.cli else tracer.aggregates()
    metrics = layer_metrics(agg)
    list_ms = [r["ms"] for r in plain_records if r["kind"] == "catalog_list"]
    metrics["cli.startup_s"] = statistics.median(list_ms) / 1e3 if list_ms else 0.0
    metrics["cli.report_bytes"] = (statistics.mean(runner.report_bytes)
                                   if runner.cli and runner.report_bytes else 0.0)
    metrics["trace.jobs_per_s"] = traced_rate
    metrics["trace.untraced_jobs_per_s"] = plain_rate
    metrics["trace.overhead"] = plain_rate / traced_rate if traced_rate else 0.0
    expect = setup.frozen["expect"]
    metrics["trace.digest_mismatches"] = sum(
        1 for r in traced_records
        if r["digest"] is not None and r["digest"] != expect.get(r["key"]))
    runner.records = plain_records + traced_records
    os.makedirs(OUT, exist_ok=True)
    spans = os.path.join(OUT, f"spans_{w.name}_s{args.seed}.jsonl")
    if not runner.cli:
        tracer.write_spans(spans)
    info = {"trace_rounds": count, "spans": agg.get("spans", 0),
            "spans_file": None if runner.cli else os.path.relpath(spans, ROOT)}
    return metrics, info


def _reported(metrics, traced):
    """The metrics BENCHMARK.json declares for this mode, with units."""
    from tracer import metric_units
    if traced:
        units = metric_units()
        return {k: {"value": metrics[k], "unit": units[k]} for k in units}
    names = ("jobs_per_s", "job_p50_ms", "job_p90_ms", "setup_s", "peak_rss_mb")
    return {k: {"value": metrics[k], "unit": E2E_UNITS[k]} for k in names}


def _write_result(args, result):
    path = args.result_file
    if path is None:
        os.makedirs(OUT, exist_ok=True)
        tag = "_trace" if args.trace else ""
        path = os.path.join(OUT, f"BENCH_{args.workload}_s{args.seed}{tag}.json")
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)


def _print_table(result):
    env = result["env"]
    print(f"workload {env['workload']}  seed {env['seed']}  traced {env['traced']}  "
          f"python {env['python']}  backend {env['backend']}  nproc {env['nproc']}  "
          f"commit {env['commit'][:12]}")
    m = result["metrics"]
    if not env["traced"]:
        for name, unit in E2E_UNITS.items():
            extra = f"  ({result['attempted']} samples)" if name == "job_p90_ms" else ""
            print(f"  {name:<14} {m[name]:>12.6g} {unit}{extra}")
    else:
        from tracer import metric_units
        for name, unit in metric_units().items():
            print(f"  {name:<34} {m[name]:>14.6g} {unit}")
    print(f"  attempted {result['attempted']}  failed {result['failed']}  "
          f"known defects {result['known_failures']}  new failures {len(result['new_failures'])}")
    for r in result["new_failures"][:10]:
        print(f"  NEW FAILURE {r['key']} {r['kind']}: {r['detail']}")


# ---------------------------------------------------------------------------
# several workloads, comparisons, smoke


def run_all(args):
    """Every workload in its own process; one combined result file."""
    from workloads import WORKLOADS
    combined = {"workloads": {}}
    status = 0
    os.makedirs(OUT, exist_ok=True)
    for name in WORKLOADS:
        path = os.path.join(OUT, f"BENCH_{name}_s{args.seed}{'_trace' if args.trace else ''}.json")
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--result-file", path]
        if args.smoke:
            cmd.append("--smoke-run")
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        with open(path) as fh:
            combined["workloads"][name] = json.load(fh)
        combined["workloads"][name]["correct"] = line["correct"]
        status = status or (0 if line["correct"] else 1)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(combined, fh, indent=1, sort_keys=True)
    results = combined["workloads"].values()
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {f"{name}.{k}": v for name, r in combined["workloads"].items()
                    for k, v in _reported(r["metrics"], args.trace).items()},
    }))
    return status


def _load_results(path):
    with open(path) as fh:
        data = json.load(fh)
    if "workloads" in data:
        return data["workloads"]
    return {data["env"]["workload"]: data}


def compare(path_a, path_b):
    """Per-workload, per-metric ratios B/A; any digest drift is a failure."""
    a, b = _load_results(path_a), _load_results(path_b)
    drift = 0
    for name in sorted(set(a) & set(b)):
        ra, rb = a[name], b[name]
        ea, eb = ra["env"], rb["env"]
        print(f"{name}: A seed {ea['seed']} commit {ea['commit'][:12]}  |  "
              f"B seed {eb['seed']} commit {eb['commit'][:12]}")
        for key in ("backend", "python"):
            if ea[key] != eb[key]:
                print(f"  WARNING {key} differs: {ea[key]} vs {eb[key]}; "
                      "timings are not comparable")
        print(f"  {'metric':<34} {'A':>14} {'B':>14} {'B/A':>8}")
        for metric in sorted(set(ra["metrics"]) & set(rb["metrics"])):
            va, vb = ra["metrics"][metric], rb["metrics"][metric]
            ratio = f"{vb / va:8.3f}" if va else "       -"
            print(f"  {metric:<34} {va:>14.6g} {vb:>14.6g} {ratio}")
        da, db = ra.get("digests", {}), rb.get("digests", {})
        changed = sorted(k for k in set(da) & set(db) if da[k] != db[k])
        print(f"  digests compared {len(set(da) & set(db))}, differing {len(changed)}")
        for key in changed[:10]:
            print(f"  DIGEST DRIFT {key}: {da[key]} -> {db[key]}")
        drift += len(changed)
    if drift:
        print(f"FAIL: {drift} digest(s) drifted")
        return 1
    return 0


def smoke(args):
    """Every workload at one round, with all checks; for the benchmark's tests."""
    args.smoke = True
    args.out = None
    args.seconds = 1
    return run_all(args)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"input seed (default {DEFAULT_SEED}; held-out seed {HELD_OUT_SEED})")
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--all", action="store_true", help="run every workload")
    p.add_argument("--out", help="combined result file for --all")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"))
    p.add_argument("--smoke", action="store_true", help="one round of every workload")
    p.add_argument("--smoke-run", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--result-file", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    _check_checkout()
    if args.smoke:
        return smoke(args)
    if args.all:
        return run_all(args)
    if not args.workload:
        p.error("--workload is required")
    if args.setup_probe:
        return setup_probe(args.workload, args.seed, args.seconds)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
