"""Per-layer tracing for the benchmark's traced runs.

``Tracer.install()`` rebinds the public functions and methods of every
genusforge module with timing wrappers, everywhere they are bound by name
(``series.convolve_trunc``, ``charclass.convolve_trunc`` and
``rings.convolve_full`` are all the one kernel).  Each wrapped call is a
frame on one stack; a layer's self time is its calls' durations minus the
time their child calls cover, where a child's cover includes the
tracer's own bookkeeping for it, so that cost lands on no layer.

Calls at API boundaries are also kept as spans (name, start, end, parent
span, job id) in memory and written out by ``write_spans``.  Per-
coefficient operations (Laurent and graded-polynomial arithmetic, the
kernels, series arithmetic) are only counted and timed, since a span per
coefficient would cost more than the work.

Run as a script with ``--child FILE -- ARGS`` it traces one ``genusforge``
command line and writes its aggregates to FILE; the cli-runs workload
uses that for its traced child processes.
"""

from __future__ import annotations

import bisect
import itertools
import json
import os
import sys
import time
from collections import Counter, defaultdict
from fractions import Fraction

perf = time.perf_counter
SPAN_CAP = 300_000

# group names: a layer, or "<layer>.<part>" where the layer splits its self time;
# metric names start with a letter, so the _kernels module reports as "kernels"
KERNEL_FUNCS = ("convolve_trunc", "convolve_full", "series_inv")


def _targets(gf):
    """(owner, attribute names, group, counter, keep spans) for every wrapped callable."""
    c, r, s, k, t, g, e, cat, cli = (gf.charclass, gf.rings, gf.series, gf.ktheory,
                                      gf.theta, gf.genus, gf.equivariant, gf.catalog, gf.cli)
    return [
        (gf._kernels, KERNEL_FUNCS, "kernels", "kernels.calls", False),
        (r.LaurentZ, ("__mul__", "__rmul__", "__pow__"), "rings", "rings.laurent_mul.calls", False),
        (r.LaurentZ, ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "subst_pow",
                      "__call__"), "rings", None, False),
        (s.QSeries, ("__mul__",), "series", "series.mul.calls", False),
        (s.QSeries, ("inv",), "series", "series.inv.calls", False),
        (s.QSeries, ("exp",), "series", "series.exp.calls", False),
        (s.QSeries, ("__add__", "__sub__", "__neg__", "log", "map_coefficients", "truncated",
                     "shifted", "normalized", "alternate_half_signs"), "series", None, False),
        (c.GradedPoly, ("__mul__",), "charclass", "charclass.poly_mul.calls", False),
        (c.GradedPoly, ("__add__", "__sub__", "__rsub__", "__neg__", "__pow__", "substitute"),
         "charclass", None, False),
        (c, ("pair_fundamental",), "charclass", "charclass.pair.calls", False),
        (c, ("genus_sequence", "to_pontryagin", "ahat_factor", "l_factor", "power_sums",
             "power_sum_in_pontryagin", "ser_mul", "ser_inv"), "charclass", None, False),
        (k, ("sym_total", "lambda_total", "witten_element", "r_variants"), "ktheory",
         "ktheory.tower.calls", True),
        (k, ("ch_scaled", "ch", "ch_tensor_pair"), "ktheory", None, False),
        (t, ("theta_qseries", "euler_product", "theta_prime0_series"), "theta.exact",
         "theta.exact.calls", True),
        (t.ThetaSeries, ("expanded",), "theta.exact", None, True),
        (t, ("theta_eval", "theta_prime0", "euler_eval"), "theta.eval", "theta.eval.calls", True),
        (t, ("verify_transform",), "theta.eval", None, True),
        (g, ("ahat_poly", "l_poly", "index_density", "subdirac_index", "ahat_genus", "l_genus",
             "witten_genus", "split_genus"), "genus", "genus.calls", True),
        (e, ("h_series", "g_series"), "equivariant.exact", "equivariant.exact.calls", True),
        (e.ExactSeries, ("__add__", "__sub__", "__neg__", "__mul__"), "equivariant.exact",
         None, False),
        (e, ("h_eval", "g_eval"), "equivariant.numeric", "equivariant.numeric.calls", True),
        (e.ExactSeries, ("eval",), "equivariant.numeric", None, True),
        (e, ("lefschetz_eval",), "equivariant.lefschetz", "equivariant.lefschetz.calls", True),
        (e, ("jacobi_residual",), "equivariant.jacobi", "equivariant.jacobi.calls", True),
        (cat, ("selftest",), "catalog", "catalog.selftest.calls", True),
        (cat, ("get", "list_entries"), "catalog", None, True),
        (cli, ("run",), "cli.run", None, True),
        (cli, ("main",), "cli.render", None, True),
    ]


# counts reported for every traced workload, zero where a layer never ran
COUNTERS = (
    "kernels.calls", "kernels.coeff_mults", "kernels.coeff_bits_max",
    "rings.laurent_mul.calls",
    "series.mul.calls", "series.inv.calls", "series.exp.calls", "series.slots",
    "charclass.poly_mul.calls", "charclass.pair.calls", "charclass.terms_max",
    "ktheory.tower.calls", "theta.exact.calls", "theta.eval.calls", "genus.calls",
    "equivariant.exact.calls", "equivariant.numeric.calls", "equivariant.lefschetz.calls",
    "equivariant.jacobi.calls", "equivariant.jacobi.evals", "catalog.selftest.calls",
)
SELF_TIMES = (
    "kernels", "rings", "series", "charclass", "ktheory", "theta.exact", "theta.eval",
    "genus", "equivariant.exact", "equivariant.numeric", "equivariant.lefschetz",
    "equivariant.jacobi", "catalog",
)
LAYERS = ("kernels", "rings", "series", "charclass", "ktheory", "theta", "genus",
          "equivariant", "catalog", "cli")
DISTINCT = ("ktheory.tower", "theta.exact")
MAXED = ("kernels.coeff_bits_max", "charclass.terms_max")


def metric_units() -> dict:
    """Every per-layer metric of a traced run, in report order, with its unit."""
    units = {}
    for name in COUNTERS:
        units[name] = "bits" if name.endswith("bits_max") else "count"
    for group in SELF_TIMES:
        units[f"{group}.self_s"] = "s"
    for label in DISTINCT:
        units[f"{label}.distinct_ratio"] = "ratio"
    units.update({"cli.startup_s": "s", "cli.run.self_s": "s", "cli.render_s": "s",
                  "cli.report_bytes": "bytes"})
    for layer in LAYERS:
        units[f"{layer}.errors"] = "count"
    units.update({"trace.jobs_per_s": "1/s", "trace.untraced_jobs_per_s": "1/s",
                  "trace.overhead": "ratio", "trace.digest_mismatches": "count"})
    return units


def _bits(x) -> int:
    if isinstance(x, Fraction):
        return max(x.numerator.bit_length(), x.denominator.bit_length())
    if isinstance(x, int):
        return x.bit_length()
    coeffs = getattr(x, "coeffs", None)  # LaurentZ
    if coeffs is not None:
        return max((_bits(c) for c in coeffs), default=0)
    terms = getattr(x, "terms", None)  # GradedPoly
    if isinstance(terms, dict):
        return max((_bits(c) for c in terms.values()), default=0)
    return 0


def _arg_key(arg):
    try:
        hash(arg)
    except TypeError:  # KClass defines __eq__ without __hash__
        return repr(arg)
    return arg


def _kernel_mults(name, args):
    """Nonzero coefficient products implied by the arguments' sparsity."""
    if name == "convolve_full":
        a, b = args[0], args[1]
        return sum(1 for x in a if x) * sum(1 for x in b if x)
    if name == "convolve_trunc":
        a, b, n = args[0], args[1], args[2]
        nz_b = [j for j, x in enumerate(b) if x]
        return sum(bisect.bisect_left(nz_b, n - i) for i in range(min(len(a), n)) if a[i])
    a, n = args[0], args[1]
    return sum(n - j for j in range(1, min(len(a), n)) if a[j])


class Tracer:
    """Frames, aggregates and spans of one traced process."""

    def __init__(self):
        self.frames = [[0.0, None]]  # per open call: child cover, layer
        self.span_stack = [None]
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.maxes = Counter()
        self.errors = Counter()
        self.keys = defaultdict(set)
        self.key_calls = Counter()
        self.jacobi_depth = 0
        self.spans = []
        self.ids = itertools.count()
        self.dropped = 0
        self.job = None

    # -- wrapping -------------------------------------------------------

    def wrap(self, fn, name, group, counter, keep_span):
        layer = group.split(".")[0]
        frames, span_stack, spans = self.frames, self.span_stack, self.spans
        self_s, counts, errors = self.self_s, self.counts, self.errors
        post = self._post_hook(name, group)
        ids = self.ids
        jacobi = group == "equivariant.jacobi"
        evaluation = counter in ("equivariant.numeric.calls", "equivariant.lefschetz.calls")
        tracer = self

        def wrapper(*args, **kwargs):
            t0 = perf()
            frame = [0.0, layer]
            frames.append(frame)
            if keep_span:
                sid = next(ids)
                parent = span_stack[-1]
                span_stack.append(sid)
            if jacobi:
                tracer.jacobi_depth += 1
            elif evaluation and tracer.jacobi_depth:
                counts["equivariant.jacobi.evals"] += 1
            ok = False
            start = perf()
            try:
                result = fn(*args, **kwargs)
                ok = True
            except BaseException:
                if frames[-2][1] != layer:  # count once, where it leaves the layer
                    errors[layer] += 1
                raise
            finally:
                end = perf()
                frames.pop()
                self_s[group] += (end - start) - frame[0]
                if jacobi:
                    tracer.jacobi_depth -= 1
                if keep_span:
                    span_stack.pop()
                    if len(spans) < SPAN_CAP:
                        spans.append((sid, name, start, end, parent, tracer.job))
                    else:
                        tracer.dropped += 1
                if counter:
                    counts[counter] += 1
                if ok and post is not None:
                    post(args, result)
                frames[-1][0] += perf() - t0
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _post_hook(self, name, group):
        counts, maxes = self.counts, self.maxes
        if group == "kernels":
            kernel = name.split(".")[-1]

            def post(args, result):
                counts["kernels.coeff_mults"] += _kernel_mults(kernel, args)
                bits = max((_bits(x) for x in result), default=0)
                if bits > maxes["kernels.coeff_bits_max"]:
                    maxes["kernels.coeff_bits_max"] = bits
            return post
        if name in ("QSeries.__mul__", "QSeries.inv", "QSeries.exp"):
            def post(args, result):
                counts["series.slots"] += result.order
            return post
        if name == "GradedPoly.__mul__":
            def post(args, result):
                size = len(getattr(result, "terms", ()))
                if size > maxes["charclass.terms_max"]:
                    maxes["charclass.terms_max"] = size
            return post
        label = {"ktheory.sym_total": "ktheory.tower", "ktheory.lambda_total": "ktheory.tower",
                 "ktheory.witten_element": "ktheory.tower", "ktheory.r_variants": "ktheory.tower",
                 "theta.theta_qseries": "theta.exact", "theta.euler_product": "theta.exact",
                 "theta.theta_prime0_series": "theta.exact"}.get(name)
        if label is not None:
            keys, key_calls = self.keys[label], self.key_calls

            def post(args, result):
                keys.add((name,) + tuple(_arg_key(a) for a in args))
                key_calls[label] += 1
            return post
        return None

    def install(self):
        import genusforge
        import genusforge.cli  # noqa: F401  (imports every layer)
        gf = genusforge
        swapped = {}
        for owner, names, group, counter, keep in _targets(gf):
            owner_name = owner.__name__.split(".")[-1]
            for attr in names:
                orig = getattr(owner, attr)
                if id(orig) not in swapped:
                    new = self.wrap(orig, f"{owner_name}.{attr}", group, counter, keep)
                    swapped[id(orig)] = (orig, new)
                setattr(owner, attr, swapped[id(orig)][1])
        for mod_name, module in list(sys.modules.items()):
            if not mod_name.startswith("genusforge") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                hit = swapped.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    # -- results --------------------------------------------------------

    def aggregates(self) -> dict:
        """Plain counts, maxima, self times, errors and distinct-key tallies."""
        return {
            "counts": dict(self.counts),
            "maxes": dict(self.maxes),
            "self_s": dict(self.self_s),
            "errors": dict(self.errors),
            "distinct": {k: len(v) for k, v in self.keys.items()},
            "key_calls": dict(self.key_calls),
            "spans": len(self.spans) + self.dropped,
        }

    def write_spans(self, path):
        with open(path, "w") as fh:
            for sid, name, start, end, parent, job in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "job": job}) + "\n")


def merge(into: dict, agg: dict):
    """Add one process's aggregates into a running total."""
    for part in ("counts", "self_s", "errors", "distinct", "key_calls"):
        for k, v in agg.get(part, {}).items():
            into.setdefault(part, {})
            into[part][k] = into[part].get(k, 0) + v
    for k, v in agg.get("maxes", {}).items():
        into.setdefault("maxes", {})
        into["maxes"][k] = max(into["maxes"].get(k, 0), v)
    into["spans"] = into.get("spans", 0) + agg.get("spans", 0)


def layer_metrics(agg: dict) -> dict:
    """The per-layer metric values (without cli.* and trace.*) from aggregates."""
    counts, maxes = agg.get("counts", {}), agg.get("maxes", {})
    self_s, errors = agg.get("self_s", {}), agg.get("errors", {})
    out = {}
    for name in COUNTERS:
        out[name] = (maxes if name in MAXED else counts).get(name, 0)
    for group in SELF_TIMES:
        out[f"{group}.self_s"] = self_s.get(group, 0.0)
    for label in DISTINCT:
        calls = agg.get("key_calls", {}).get(label, 0)
        distinct = agg.get("distinct", {}).get(label, 0)
        out[f"{label}.distinct_ratio"] = distinct / calls if calls else 0.0
    out["cli.run.self_s"] = self_s.get("cli.run", 0.0)
    out["cli.render_s"] = self_s.get("cli.render", 0.0)
    for layer in LAYERS:
        out[f"{layer}.errors"] = errors.get(layer, 0)
    return out


def _child(argv):
    """Trace one genusforge command line; aggregates go to argv[0]."""
    out_path = argv[0]
    args = argv[2:] if argv[1:2] == ["--"] else argv[1:]
    tracer = Tracer()
    tracer.install()
    import genusforge.cli as cli
    code = 1
    try:
        code = cli.main(args)
    finally:
        sys.stdout.flush()
        with open(out_path, "w") as fh:
            json.dump(tracer.aggregates(), fh)
    return code


if __name__ == "__main__":
    if sys.argv[1:2] != ["--child"] or len(sys.argv) < 3:
        sys.exit("usage: tracer.py --child AGGREGATES_FILE -- GENUSFORGE_ARGS...")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    sys.exit(_child(sys.argv[2:]))
