"""Regenerate the frozen expectations in bench/data/ (run once per pool change).

    python3 bench/freeze.py [WORKLOAD ...]

For every job of a workload's pool this records:
  * exact workloads and CLI reports: the sha256 of the canonical JSON of the
    current result, so a later change that alters an answer shows as drift;
  * numeric-eval single-point jobs: an mpmath reference from refs.py, which
    never calls the library's evaluators;
  * every job that fails its check today, with the reason, under
    "baseline_fail".  These stay in the pool: they are the measured
    baseline defects (near-floor truncation, malformed-input crashes).
"""

import json
import os
import platform
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from workloads import DATA, WORKLOADS, CliRuns, _cx, digest  # noqa: E402


def freeze(w):
    from genusforge import _kernels
    started = time.perf_counter()
    w.setup()
    pool = [w.make_round(r) for r in range(w.pool_rounds)]
    flat = [[job.key, job.kind, job.payload] for rnd in pool for job in rnd]
    expect, baseline_fail = {}, {}
    workdir = os.path.join(ROOT, ".bench_work", f"freeze-{w.name}")
    os.makedirs(workdir, exist_ok=True)
    try:
        for rnd in pool:
            for job in rnd:
                ok, value, detail = _freeze_job(w, job, workdir)
                if value is not None:
                    expect[job.key] = value
                if not ok:
                    baseline_fail[job.key] = f"{job.kind}: {detail}"
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    data = {
        "workload": w.name,
        "pool_rounds": w.pool_rounds,
        "jobs": len(flat),
        "inputs_digest": digest(flat),
        "generated_with": {"python": platform.python_version(), "backend": _kernels.BACKEND},
        "expect": expect,
        "baseline_fail": baseline_fail,
    }
    with open(os.path.join(DATA, f"{w.name}.json"), "w") as fh:
        json.dump(data, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"{w.name}: {len(flat)} jobs, {len(baseline_fail)} baseline failures, "
          f"{time.perf_counter() - started:.0f} s")


def _freeze_job(w, job, workdir):
    """(ok, frozen value or None, detail) for one pool job."""
    if isinstance(w, CliRuns):
        argv = w.write_input(w.prepare(job, workdir))
        code, out, stderr, _ = w.spawn(w.command(argv), w.env(),
                                       os.path.join(workdir, "stderr.txt"))
        ok, canon, detail = w.verdict(job, (code, out, stderr))
        return ok, None if canon is None else digest(canon), detail
    job.parsed = w.prepare(job, workdir)
    try:
        result = w.execute(job)
    except Exception as exc:
        return False, None, f"{type(exc).__name__}: {exc}"
    if w.name != "numeric-eval":
        return True, digest(w.canonical(job, result)), ""
    ref = None
    if job.kind.startswith("eval."):
        from refs import reference
        ref = _cx(reference(job.payload))
    ok, detail = w.verdict(job, result, ref)
    return ok, ref, detail


def main(names):
    os.makedirs(DATA, exist_ok=True)
    for name in names or list(WORKLOADS):
        if name not in WORKLOADS:
            sys.exit(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
        freeze(WORKLOADS[name])


if __name__ == "__main__":
    main(sys.argv[1:])
