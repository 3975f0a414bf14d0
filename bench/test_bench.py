"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py

They use the smoke mode (one round of every workload, all checks on) and
small hand-made result files; none of them times anything.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          cwd=cwd, timeout=600)


def _last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def test_smoke_checks_every_workload():
    proc = _run(RUN, "--smoke", "--seed", "1")
    assert proc.returncode == 0, proc.stderr
    line = _last_json(proc.stdout)
    assert line["correct"] is True
    from workloads import WORKLOADS
    assert line["attempted"] == sum(len(w.make_round(0)) for w in WORKLOADS.values())
    for name in WORKLOADS:
        assert f"{name}.jobs_per_s" in line["metrics"]


def test_traced_smoke_changes_no_answer():
    proc = _run(RUN, "--smoke", "--seed", "2", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    line = _last_json(proc.stdout)
    assert line["correct"] is True
    from tracer import metric_units
    for name in ("genus-towers", "equivariant-exact", "numeric-eval", "cli-runs"):
        metrics = {k.split(".", 1)[1]: v["value"] for k, v in line["metrics"].items()
                   if k.startswith(name + ".")}
        assert set(metrics) == set(metric_units())
        assert metrics["trace.digest_mismatches"] == 0
        assert metrics["trace.overhead"] > 0
    assert any(v["value"] > 0 for k, v in line["metrics"].items()
               if k.startswith("equivariant-exact.") and k.endswith(".kernels.calls"))


def _result(digests, rate):
    env = {"workload": "genus-towers", "seed": 1, "commit": "x", "backend": "pure",
           "python": "3"}
    return {"env": env, "metrics": {"jobs_per_s": rate}, "digests": digests}


def test_compare_flags_digest_drift(tmp_path):
    a, b, c = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
    a.write_text(json.dumps(_result({"0.1": "aa", "0.2": "bb"}, 10.0)))
    b.write_text(json.dumps(_result({"0.1": "aa", "0.3": "cc"}, 12.0)))
    c.write_text(json.dumps(_result({"0.1": "ff"}, 12.0)))
    same = _run(RUN, "--compare", str(a), str(b))
    assert same.returncode == 0
    assert "1.200" in same.stdout
    drift = _run(RUN, "--compare", str(a), str(c))
    assert drift.returncode == 1
    assert "DIGEST DRIFT 0.1" in drift.stdout


def test_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("bench/run.py", "--workload", "genus-towers", "--seed", "1",
                "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_references_agree_with_the_library_far_from_the_floor():
    from genusforge.equivariant import EquivariantModel, g_eval, h_eval
    from refs import reference
    import random
    from workloads import point_model, static_model, _cx
    rng = random.Random(5)
    for mode in ("foliated", "split", "foliated", "split"):
        for model in (static_model(rng, mode), point_model(rng, mode, 3)):
            fn = "H" if mode == "foliated" else rng.choice(("G", "G1", "G2"))
            t, tau = complex(0.17, 0.02), complex(0.1, 1.2)
            parsed = EquivariantModel.from_json(model)
            got = h_eval(parsed, t, tau) if fn == "H" else g_eval(parsed, fn, t, tau)
            ref = reference({"model": model, "fn": fn, "t": _cx(t), "tau": _cx(tau)})
            assert abs(got - ref) <= 1e-11 * max(1.0, abs(ref))
