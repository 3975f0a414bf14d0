"""The four benchmark workloads: seeded job pools, job execution, result checks.

Every workload is a frozen pool of rounds.  A round is a fixed mix of job
classes whose inputs come from a generator seeded by the round number, so
round r is the same everywhere and its expected results can be frozen in
``data/<workload>.json``.  A run uses the pool's first rounds, as many as
its ``--seconds`` take on the reference machine (``round_s`` is one round's
wall time there), and its ``--seed`` picks their order.  Rounds are
balanced on their own, so a prefix of the pool keeps the stated input mix.

A job is a JSON payload (what a user would hand the library or the CLI),
a parsed form built during set-up, and an ``execute`` step that the
harness times.  The harness then checks the result against the frozen
data: exact results (``canonical``) and CLI reports (``verdict``) by the
sha256 of their canonical JSON, cut to its first 16 hex digits; numeric
values (``verdict``) against independent mpmath references (``refs.py``).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")

NUMERIC_TOL = 1e-9  # the documented evaluation tolerance, relative to max(1, |ref|)
JACOBI_TOL = 1e-8  # the documented Jacobi-law tolerance
TAU_FLOOR, TAU_CEIL = 0.05, 2.0


def child_env():
    """Environment of child interpreters: the checkout's sources, cached bytecode
    allowed as in an installed package, no thread-cap override."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("GENUSFORGE_THREADS", None)
    return env


def digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _frac(x) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def _laurent(lz) -> dict:
    return {str(e): _frac(c) for e, c in lz.items()}


def _series(s, coeff=_frac) -> dict:
    return {"offset": _frac(s.offset), "order": s.order, "coeffs": [coeff(c) for c in s.coeffs]}


class Job:
    __slots__ = ("key", "kind", "payload", "parsed")

    def __init__(self, key, kind, payload):
        self.key = key
        self.kind = kind
        self.payload = payload
        self.parsed = None


# ---------------------------------------------------------------------------
# shared input generators


def _partitions(n, cap):
    """Partitions of n into parts of size at most cap, largest first."""
    if n == 0:
        yield ()
        return
    for k in range(min(n, cap), 0, -1):
        for rest in _partitions(n - k, k):
            yield (k,) + rest


def _mono(parts, bundle=None):
    tag = f"({bundle})" if bundle else ""
    counts = {}
    for k in parts:
        counts[k] = counts.get(k, 0) + 1
    bits = [f"p{k}{tag}" + (f"^{e}" if e > 1 else "") for k, e in sorted(counts.items())]
    return "*".join(bits)


def untagged_monomials(dim):
    return [_mono(p) for p in _partitions(dim // 4, dim // 4)]


def split_monomials(dim, f_pairs, fperp_pairs):
    """Every top-degree p-monomial the splitting supports."""
    weight = dim // 4
    out = []
    for a in range(weight + 1):
        for pf in _partitions(a, f_pairs):
            for pp in _partitions(weight - a, fperp_pairs):
                bits = [b for b in (_mono(pf, "F"), _mono(pp, "Fperp")) if b]
                out.append("*".join(bits))
    return out


def _number(rng):
    return rng.choice([-1, 1]) * rng.randint(1, 99)


def _speed(rng, top):
    return rng.choice([-1, 1]) * rng.randint(1, top)


def point_model(rng, mode, max_points, max_speed=3, max_rank=2, points=None, rank=None):
    """Fixed points sharing one anomaly: the same (rank, |m|) moving F
    block everywhere, with per-point signs, orientations and Fperp speeds.
    Given points and rank fix the point count and both block ranks."""
    if rank is None:
        rank, m = rng.randint(1, max_rank), rng.randint(1, max_speed)
        r = rng.randint(1, max_rank) if mode == "split" else 0
    else:
        m, r = rng.randint(1, max_speed), rank if mode == "split" else 0
    comps = []
    for _ in range(points or rng.randint(1, max_points)):
        comps.append({
            "dim": 0, "orientation": rng.choice([1, -1]),
            "f0_pairs": 0, "fperp0_pairs": 0,
            "moving_f": [{"rank": rank, "m": rng.choice([m, -m])}],
            "moving_fperp": [{"rank": r, "n": _speed(rng, max_speed)}] if r else [],
            "numbers": {"1": rng.choice([1, 1, 1, -1, 2])},
        })
    return {"mode": mode, "p": rank, "r": r, "l": 0, "components": comps}


def static_model(rng, mode):
    """One dim-4 static component with nonzero numbers, no moving blocks."""
    f0 = rng.randint(0, 2)
    numbers = {}
    if f0:
        numbers["p1(F)"] = _number(rng)
    if 2 - f0:
        numbers["p1(Fperp)"] = _number(rng)
    comp = {"dim": 4, "orientation": rng.choice([1, -1]), "f0_pairs": f0,
            "fperp0_pairs": 2 - f0, "moving_f": [], "moving_fperp": [], "numbers": numbers}
    return {"mode": mode, "p": f0, "r": 2 - f0, "l": 0, "components": [comp]}


def _catalog_models():
    from genusforge import catalog
    return {name: catalog.get(name).build().to_json()
            for name in ("s2_rotation", "s2rot_x_t2", "free_point",
                         "free_split_point", "s2xs2_rotation")}


def _log_uniform_strata(rng, count):
    """count values of Im tau, one per log-uniform stratum of [floor, ceil]."""
    span = math.log(TAU_CEIL / TAU_FLOOR)
    slots = list(range(count))
    rng.shuffle(slots)
    return [TAU_FLOOR * math.exp(span * (k + rng.random()) / count) for k in slots]


def _cx(z) -> list:
    return [repr(z.real), repr(z.imag)]


def _uncx(pair) -> complex:
    return complex(float(pair[0]), float(pair[1]))


class Workload:
    """Defaults for a workload that runs in the benchmark's own process."""

    def setup(self):
        """Process-wide preparation before the first job."""

    def prepare(self, job, workdir):
        """The parsed inputs execute() needs; called during set-up."""
        return self.parse(job)


# ---------------------------------------------------------------------------
# genus-towers: charclass / ktheory / genus


class GenusTowers(Workload):
    name = "genus-towers"
    why = ("exact Witten, split R/R1/R2, sub-Dirac, Ahat and L genera on seeded "
           "characteristic-number and split specs: GradedPoly towers, never theta")
    pool_rounds = 40
    round_s = 1.2
    trace_rounds = 3
    DIMS = (4, 8, 12, 16)
    ORDER_BINS = ((6, 10), (11, 15), (16, 20), (21, 24))
    SERIES = ("witten", "R", "R1", "R2", "subdirac")

    def make_round(self, r):
        rng = random.Random(f"{self.name}:{r}")
        jobs = []
        for dim in self.DIMS:
            for fn in self.SERIES:
                for lo, hi in self.ORDER_BINS:
                    order = rng.randint(lo, hi)
                    if fn == "witten":
                        payload = {"fn": fn, "order": order,
                                   "numbers": self._numbers(rng, dim)}
                    else:
                        payload = {"fn": fn, "order": order, "spec": self._spec(rng, dim)}
                    jobs.append((fn, payload))
            for fn in ("ahat", "l"):
                jobs.append((fn, {"fn": fn, "numbers": self._numbers(rng, dim)}))
        return [Job(f"{r}.{i}", kind, p) for i, (kind, p) in enumerate(jobs)]

    @staticmethod
    def _numbers(rng, dim):
        return {"dim": dim, "numbers": {m: _number(rng) for m in untagged_monomials(dim)}}

    @staticmethod
    def _spec(rng, dim):
        p = rng.randint(0, dim // 2)
        r = dim // 2 - p
        return {"dim": dim, "f_pairs": p, "fperp_pairs": r,
                "numbers": {m: _number(rng) for m in split_monomials(dim, p, r)},
                "f_spin": rng.random() < 0.5, "m_spin": True}

    def setup(self):
        import warnings
        from genusforge.genus import IntegralityWarning
        warnings.simplefilter("ignore", IntegralityWarning)

    def parse(self, job):
        from genusforge.charclass import CharNumbers
        from genusforge.genus import SplitManifoldSpec
        p = job.payload
        if "numbers" in p:
            return CharNumbers.from_json(p["numbers"])
        return SplitManifoldSpec.from_json(p["spec"])

    def execute(self, job):
        import genusforge.genus as G
        import genusforge.ktheory as K
        fn, arg, order = job.kind, job.parsed, job.payload.get("order")
        if fn == "witten":
            return G.witten_genus(arg, order)
        if fn == "subdirac":
            psi = K.witten_element(K.KClass.bundle(arg.F, arg.dim), order)
            return G.subdirac_index(arg, psi=psi)
        if fn == "ahat":
            return G.ahat_genus(arg)
        if fn == "l":
            return G.l_genus(arg)
        return G.split_genus(arg, fn, order)

    def canonical(self, job, result):
        if isinstance(result, Fraction):
            return _frac(result)
        return _series(result)


# ---------------------------------------------------------------------------
# equivariant-exact: theta / series / rings.LaurentZ / _kernels


class EquivariantExact(Workload):
    name = "equivariant-exact"
    why = ("exact theta bodies of all four kinds and H/G/G1/G2 w-Laurent series "
           "of seeded fixed-point models: sparse products and dense inversions")
    pool_rounds = 74  # two theta jobs a round over the 4 x 37 distinct (kind, order)
    round_s = 0.6
    trace_rounds = 4
    KINDS = ("theta", "theta1", "theta2", "theta3")
    # (function, order range, fixed points, block rank): weighted toward small
    # orders, each slot narrow enough that every round costs about the same
    MODEL_JOBS = (
        ("H", (12, 14), 4, 2), ("H", (12, 14), 2, 1), ("H", (15, 18), 1, 2),
        ("H", (18, 22), 2, 1), ("H", (22, 28), 1, 1), ("H", (30, 36), 1, 2),
        ("H", (40, 48), 1, 1),
        ("G", (12, 14), 3, 1), ("G1", (12, 14), 2, 1), ("G2", (12, 14), 1, 2),
        ("G", (14, 18), 1, 2), ("G1", (14, 18), 2, 1), ("G2", (18, 22), 1, 1),
        ("G", (22, 26), 1, 1), ("G1", (26, 32), 1, 1),
    )

    def __init__(self):
        combos = [(k, o) for k in self.KINDS for o in range(12, 49)]
        random.Random(f"{self.name}:theta").shuffle(combos)
        self._theta = combos

    def make_round(self, r):
        rng = random.Random(f"{self.name}:{r}")
        jobs = []
        for kind, order in self._theta[2 * r: 2 * r + 2]:
            jobs.append(("theta_qseries", {"fn": "theta_qseries", "kind": kind, "order": order}))
        for fn, (lo, hi), points, rank in self.MODEL_JOBS:
            mode = "foliated" if fn == "H" else "split"
            payload = {"fn": fn, "order": rng.randint(lo, hi),
                       "model": point_model(rng, mode, points, points=points, rank=rank)}
            jobs.append(("h_series" if fn == "H" else "g_series", payload))
        return [Job(f"{r}.{i}", kind, p) for i, (kind, p) in enumerate(jobs)]

    def parse(self, job):
        from genusforge.equivariant import EquivariantModel
        if "model" in job.payload:
            return EquivariantModel.from_json(job.payload["model"])
        return None

    def execute(self, job):
        import genusforge.equivariant as E
        import genusforge.theta as T
        p = job.payload
        if job.kind == "theta_qseries":
            return T.theta_qseries(p["kind"], p["order"])
        if p["fn"] == "H":
            return E.h_series(job.parsed, p["order"])
        return E.g_series(job.parsed, p["fn"], p["order"])

    def canonical(self, job, result):
        if job.kind == "theta_qseries":
            return {"kind": result.kind, "c_power": result.c_power,
                    "q_offset": _frac(result.q_offset), "trig": result.trig,
                    "body": _series(result.body, _laurent)}
        return {"den": _laurent(result.den), "num": _series(result.num, _laurent)}


# ---------------------------------------------------------------------------
# numeric-eval: theta numerics / equivariant evaluators / Jacobi checks


class NumericEval(Workload):
    name = "numeric-eval"
    why = ("H/G/Lefschetz values at seeded points down to the Im tau = 0.05 floor, "
           "Jacobi residual batches and theta transformation grids")
    pool_rounds = 200
    round_s = 0.24
    trace_rounds = 10
    SINGLE = (("catalog", 6), ("point", 8), ("static", 6))
    JACOBI = (("free_point", "H"), ("free_split_point", "G"),
              ("free_split_point", "G1"), ("free_split_point", "G2"))
    JACOBI_SAMPLES = 12
    LAWS = ("S", "T", ["lattice", 2, 0], ["lattice", 0, 2])
    GRID = 16

    def __init__(self):
        self._catalog = None

    def catalog(self):
        if self._catalog is None:
            self._catalog = _catalog_models()
        return self._catalog

    def make_round(self, r):
        rng = random.Random(f"{self.name}:{r}")
        catalog = self.catalog()
        jobs = []
        for source, count in self.SINGLE:
            for im in _log_uniform_strata(rng, count):
                mode = rng.choice(("foliated", "split"))
                if source == "catalog":
                    name = rng.choice(sorted(catalog))
                    model = catalog[name]
                    mode = model["mode"]
                elif source == "point":
                    model = point_model(rng, mode, 4)
                else:
                    model = static_model(rng, mode)
                fn = "H" if mode == "foliated" else rng.choice(("G", "G1", "G2"))
                path = rng.choice(("quotient", "lefschetz"))
                t = complex(rng.uniform(0.05, 0.3), rng.uniform(-0.05, 0.05))
                tau = complex(rng.uniform(-0.5, 0.5), im)
                jobs.append((f"eval.{source}", {"fn": fn, "path": path, "model": model,
                                                "t": _cx(t), "tau": _cx(tau)}))
        name, fn = self.JACOBI[r % len(self.JACOBI)]
        samples = []
        for _ in range(self.JACOBI_SAMPLES):
            t = complex(0.12 + 0.3 * rng.random(), -0.08 + 0.16 * rng.random())
            tau = complex(-0.3 + 0.6 * rng.random(), 0.6 + rng.random())
            samples.append([_cx(t), _cx(tau)])
        jobs.append(("jacobi", {"fn": fn, "model": catalog[name], "samples": samples}))
        for i in range(3):
            combo = (3 * r + i) % (len(self.LAWS) * 4)
            kind = ("theta", "theta1", "theta2", "theta3")[combo // len(self.LAWS)]
            law = self.LAWS[combo % len(self.LAWS)]
            grid = [[_cx(complex(rng.uniform(-0.98, 0.98), rng.uniform(-0.02, 0.02))),
                     _cx(complex(rng.uniform(-0.4, 0.4), rng.uniform(0.5, 2.0)))]
                    for _ in range(self.GRID)]
            jobs.append(("transform", {"kind": kind, "law": law, "samples": grid}))
        return [Job(f"{r}.{i}", kind, p) for i, (kind, p) in enumerate(jobs)]

    def parse(self, job):
        from genusforge.equivariant import EquivariantModel, form_meta
        p = job.payload
        if job.kind == "transform":
            law = tuple(p["law"]) if isinstance(p["law"], list) else p["law"]
            return law, [(_uncx(t), _uncx(tau)) for t, tau in p["samples"]]
        model = EquivariantModel.from_json(p["model"])
        if job.kind == "jacobi":
            samples = [(_uncx(t), _uncx(tau)) for t, tau in p["samples"]]
            return model, form_meta(model, p["fn"]), samples
        return model, _uncx(p["t"]), _uncx(p["tau"])

    def execute(self, job):
        import genusforge.equivariant as E
        import genusforge.theta as T
        p = job.payload
        if job.kind == "transform":
            law, samples = job.parsed
            return T.verify_transform(p["kind"], law, samples)
        if job.kind == "jacobi":
            model, meta, samples = job.parsed
            fn = E.evaluator(model, p["fn"])
            return E.jacobi_residual(fn, meta, samples, tol=JACOBI_TOL)
        model, t, tau = job.parsed
        if p["path"] == "lefschetz":
            return E.lefschetz_eval(model, t, tau, p["fn"])
        if p["fn"] == "H":
            return E.h_eval(model, t, tau)
        return E.g_eval(model, p["fn"], t, tau)

    def verdict(self, job, result, ref):
        """(ok, detail) for a numeric job; ref is the frozen reference."""
        if job.kind == "transform":
            ok = result["pass"] and (not isinstance(job.payload["law"], list)
                                     or result["sign_convention"] == "negative")
            return ok, f"max residual {result['max_residual']:.3g}"
        if job.kind == "jacobi":
            worst = result["max_residual"]
            return bool(result["pass"] and worst < JACOBI_TOL), f"max residual {worst:.3g}"
        ref = _uncx(ref)
        err = abs(result - ref) / max(1.0, abs(ref))
        return err <= NUMERIC_TOL, f"relative error {err:.3g}"


# ---------------------------------------------------------------------------
# cli-runs: fresh genusforge processes


class CliRuns(Workload):
    name = "cli-runs"
    why = ("fresh genusforge processes for the ROADMAP commands, catalog list and "
           "malformed payloads: startup, parsing, validation and rendering")
    pool_rounds = 40
    round_s = 2.0
    trace_rounds = 2
    # payloads that must exit 2 with an error block and no traceback
    MALFORMED = ("dim_x", "numbers_list", "moving_m_a", "missing_numbers", "bad_mode")

    def make_round(self, r):
        # job shares put p50 mid-way through the genus runs and p90 mid-way
        # through the selftests, away from the steps between job classes
        rng = random.Random(f"{self.name}:{r}")
        jobs = []
        for case in self.MALFORMED[:3] + (self.MALFORMED[3 + r % 2],):
            jobs.append((f"malformed.{case}", self._malformed(rng, case)))
        jobs.append(("catalog_list", {"argv": ["catalog", "list"]}))
        for _ in range(3):
            numbers = {"dim": 16, "numbers": {m: _number(rng) for m in untagged_monomials(16)}}
            jobs.append(("genus_witten", {"argv": ["genus", "compute", "--spec", "@input",
                                                   "--genus", "witten", "--order", "20"],
                                          "input": numbers}))
        model = point_model(rng, "split", 1, max_rank=1)
        jobs.append(("equivariant_exact", {"argv": ["equivariant", "G", "--model", "@input",
                                                    "--exact", "--order", "40"],
                                           "input": model}))
        model = point_model(rng, rng.choice(("foliated", "split")), 1, max_speed=1, max_rank=1)
        argv = ["jacobi", "verify", "--model", "@input", "--samples", "16",
                "--seed", str(rng.randint(1, 10**6))]
        if model["mode"] == "split":
            argv += ["--function", rng.choice(("G", "G1", "G2"))]
        jobs.append(("jacobi_verify", {"argv": argv, "input": model}))
        for _ in range(3):
            jobs.append(("selftest", {"argv": ["catalog", "selftest"]}))
        return [Job(f"{r}.{i}", kind, p) for i, (kind, p) in enumerate(jobs)]

    @staticmethod
    def _malformed(rng, case):
        genus = ["genus", "compute", "--spec", "@input", "--genus", "witten", "--order", "4"]
        if case == "dim_x":
            return {"argv": genus, "input": {"dim": "x", "numbers": {"p1": _number(rng)}}}
        if case == "numbers_list":
            return {"argv": genus, "input": {"dim": 4, "numbers": [], "spin": rng.random() < 0.5}}
        if case == "missing_numbers":
            return {"argv": genus, "input": {"dim": 4 * rng.randint(1, 4)}}
        model = point_model(rng, "foliated", 2)
        if case == "moving_m_a":
            model["components"][0]["moving_f"][0]["m"] = "a"
        else:
            model["mode"] = "sideways"
        return {"argv": ["equivariant", "H", "--model", "@input", "--exact", "--order", "6"],
                "input": model}

    def prepare(self, job, workdir):
        """(CLI arguments, payload path, payload text); write_input saves the file."""
        args = list(job.payload["argv"])
        if "input" not in job.payload:
            return args, None, None
        path = os.path.join(workdir, f"{job.key}.json")
        args[args.index("@input")] = path
        return args, path, json.dumps(job.payload["input"])

    @staticmethod
    def write_input(prepared):
        """Save the payload file a CLI job reads; returns the arguments."""
        args, path, text = prepared
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text)
        return args

    @staticmethod
    def command(args, trace_file=None):
        if trace_file is None:
            return [sys.executable, "-m", "genusforge.cli"] + args
        tracer = os.path.join(os.path.dirname(os.path.abspath(__file__)), "tracer.py")
        return [sys.executable, tracer, "--child", trace_file, "--"] + args

    @staticmethod
    def env():
        return child_env()

    @staticmethod
    def spawn(cmd, env, err_path):
        """Run one child; returns (exit code, stdout bytes, stderr text, max RSS in KB)."""
        with open(err_path, "wb") as err:
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=env, cwd=ROOT)
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        with open(err_path, "rb") as fh:
            stderr = fh.read().decode(errors="replace")
        return proc.returncode, out, stderr, usage.ru_maxrss

    def verdict(self, job, outcome):
        """(ok, canonical report or None, detail) for one CLI run."""
        code, out, stderr = outcome
        try:
            report = json.loads(out)
        except ValueError:
            report = None
        if job.kind.startswith("malformed."):
            ok = (code == 2 and isinstance(report, dict) and "error" in report
                  and "Traceback" not in stderr)
            return ok, None, f"exit {code}" + (", traceback" if "Traceback" in stderr else "")
        if code != 0 or report is None:
            return False, None, f"exit {code}"
        return True, canonical_report(report), "exit 0"


_NUMERIC_DETAILS = ("zero numeric", "jacobi", "dual path")


def canonical_report(report):
    """A CLI report without volatile fields: argv, input paths, float residuals."""
    def scrub(x):
        if isinstance(x, float):
            return None
        if isinstance(x, dict):
            return {k: scrub(v) for k, v in x.items()}
        if isinstance(x, list):
            return [scrub(v) for v in x]
        return x
    out = scrub({k: v for k, v in report.items() if k != "argv"})
    for info in out.get("inputs", {}).values():
        info.pop("path", None)
    for entry in out.get("results", {}).get("report", {}).get("entries", []):
        for check in entry.get("checks", []):
            if check["check"].startswith(_NUMERIC_DETAILS):
                check.pop("detail", None)
    return out


WORKLOADS = {w.name: w for w in (GenusTowers(), EquivariantExact(), NumericEval(), CliRuns())}
