"""The layer boundaries the traced run wraps, and the per-layer metrics
aggregated from their spans.

Each layer is a ``ballharm`` module; a span is named after the module and
the boundary it crosses.  ``targets`` needs the imported package; the
aggregation works on plain spans, so it can be tested without it.
"""

import hashlib
import inspect

import numpy as np

from spans import ancestors_of, outermost, self_times

# per-layer metric names, in the order they are reported, with their units
PER_LAYER = [
    ("zonalseries.abs_mean.calls", "count"),
    ("zonalseries.abs_mean.self_s", "s"),
    ("zonalseries.abs_mean.degree_sum", "count"),
    ("zonalseries.abs_mean.degree_max", "count"),
    ("zonalseries.abs_mean.kdeg_per_s", "1000/s"),
    ("zonalseries.abs_mean.failed", "count"),
    ("zonalseries.values.calls", "count"),
    ("zonalseries.values.self_s", "s"),
    ("zonalseries.values.point_degrees", "count"),
    ("zonalseries.values.pdeg_per_s", "1/s"),
    ("multipliers.condition2.s", "s"),
    ("multipliers.condition2.self_s", "s"),
    ("multipliers.probe.s", "s"),
    ("multipliers.probe.self_s", "s"),
    ("multipliers.curve_hit_frac", "fraction"),
    ("expansion.basis.calls", "count"),
    ("expansion.basis.self_s", "s"),
    ("expansion.basis.entries", "count"),
    ("expansion.basis.entries_per_s", "1/s"),
    ("expansion.basis.distinct_frac", "fraction"),
    ("expansion.evaluate.calls", "count"),
    ("expansion.evaluate.self_s", "s"),
    ("expansion.io.s", "s"),
    ("quadrature.sphere_rule.calls", "count"),
    ("quadrature.sphere_rule.self_s", "s"),
    ("quadrature.sphere_rule.distinct_frac", "fraction"),
    ("quadrature.radial_rule.calls", "count"),
    ("quadrature.radial_rule.self_s", "s"),
    ("quadrature.norm.s", "s"),
    ("quadrature.norm.self_s", "s"),
    ("scipy.roots_jacobi.calls", "count"),
    ("scipy.roots_jacobi.self_s", "s"),
    ("scipy.roots_jacobi.distinct_frac", "fraction"),
    ("specfun.calls", "count"),
    ("specfun.self_s", "s"),
    ("lemmas.check.s", "s"),
    ("lemmas.check.self_s", "s"),
    ("reports.calls", "count"),
    ("reports.self_s", "s"),
    ("reports.bytes", "count"),
    ("cli.main.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.other_self_s", "s"),
    ("proc.cpu_s", "s"),
    ("proc.trace_overhead_frac", "fraction"),
]


def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def _digest(array):
    data = np.ascontiguousarray(np.asarray(array, dtype=float)).tobytes()
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def _abs_mean_counts(args, kwargs, result):
    return {"degree": len(_arg(args, kwargs, 1, "zcoeffs"))}


def _values_counts(args, kwargs, result):
    points = np.size(_arg(args, kwargs, 2, "t"))
    return {"point_degrees": points * len(_arg(args, kwargs, 1, "zcoeffs"))}


def _basis_counts(args, kwargs, result):
    points = _arg(args, kwargs, 2, "points")
    key = (_arg(args, kwargs, 0, "dim"), _arg(args, kwargs, 1, "max_degree"), _digest(points))
    return {"entries": 0 if result is None else int(result.size), "key": repr(key)}


def _key_counts(*names):
    def counts(args, kwargs, result):
        return {"key": repr(tuple(_arg(args, kwargs, i, n) for i, n in enumerate(names)))}

    return counts


def _condition2_counts(args, kwargs, result):
    g = _arg(args, kwargs, 0, "g")
    return {"eligible": int(getattr(g, "kind", "zonal") != "full")}


def _probe_counts(args, kwargs, result):
    return {"eligible": int(_arg(args, kwargs, 2, "family", "qm_kernels") == "qm_kernels")}


def _dumps_counts(args, kwargs, result):
    return {"bytes": 0 if result is None else len(result.encode("utf-8"))}


def targets(ballharm_modules, scipy_special):
    """(span name, module, attribute, counts) for every wrapped boundary."""
    m = ballharm_modules
    out = [
        ("zonalseries.abs_mean", m["_zonalseries"], "zonal_abs_power_mean", _abs_mean_counts),
        ("zonalseries.values", m["_zonalseries"], "zonal_series_values", _values_counts),
        ("multipliers.condition2", m["multipliers"], "condition2_sup", _condition2_counts),
        ("multipliers.probe", m["multipliers"], "probe_operator_norm", _probe_counts),
        ("expansion.basis", m["expansion"], "_basis_matrix", _basis_counts),
        ("expansion.evaluate", m["expansion"], "evaluate", None),
        ("quadrature.sphere_rule", m["quadrature"], "sphere_rule", _key_counts("n", "resolution")),
        ("quadrature.radial_rule", m["quadrature"], "radial_rule", None),
        ("quadrature.norm", m["quadrature"], "mixed_norm", None),
        ("quadrature.norm", m["quadrature"], "_mixed_norm_levels", None),
        ("quadrature.norm", m["cli"], "_direct_pnorm", None),
        ("scipy.roots_jacobi", scipy_special, "roots_jacobi", _key_counts("n", "alpha", "beta")),
        ("reports", m["reports"], "dumps", _dumps_counts),
        ("reports", m["reports"], "loads", None),
        ("reports", m["reports"], "dump_to", None),
        ("reports", m["reports"], "load_from", None),
        ("cli.main", m["cli"], "main", None),
    ]
    for attr in ("load_expansion", "load_multiplier", "save_expansion", "save_multiplier"):
        out.append(("expansion.io", m["expansion"], attr, None))
    for i in range(1, 7):
        out.append(("lemmas.check", m["lemmas"], f"check_lemma{i}", None))
    specfun = m["specfun"]
    for attr, fn in inspect.getmembers(specfun, inspect.isfunction):
        if fn.__module__ == specfun.__name__:
            out.append(("specfun", specfun, attr, None))
    return out


def _ratio(num, den):
    return num / den if den > 0 else 0.0


def aggregate(spans):
    """Per-layer metrics from a traced pass (all but the proc.* metrics)."""
    self_t = self_times(spans)
    by_name = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span.name, []).append(i)

    def idx(name):
        return by_name.get(name, [])

    def calls(name):
        return len(idx(name))

    def self_s(name):
        return sum(self_t[i] for i in idx(name))

    def inclusive_s(name):
        return sum(spans[i].duration for i in idx(name) if outermost(spans, i))

    def total(name, key):
        return sum(spans[i].counts.get(key, 0) for i in idx(name))

    def distinct_frac(name):
        keys = {spans[i].counts.get("key") for i in idx(name)}
        return _ratio(len(keys), calls(name))

    out = {}
    name = "zonalseries.abs_mean"
    degrees = [spans[i].counts.get("degree", 0) for i in idx(name)]
    out[name + ".calls"] = calls(name)
    out[name + ".self_s"] = self_s(name)
    out[name + ".degree_sum"] = sum(degrees)
    out[name + ".degree_max"] = max(degrees, default=0)
    out[name + ".kdeg_per_s"] = _ratio(sum(degrees) / 1000.0, self_s(name))
    out[name + ".failed"] = sum(1 for i in idx(name) if spans[i].failed)

    name = "zonalseries.values"
    out[name + ".calls"] = calls(name)
    out[name + ".self_s"] = self_s(name)
    out[name + ".point_degrees"] = total(name, "point_degrees")
    out[name + ".pdeg_per_s"] = _ratio(total(name, "point_degrees"), self_s(name))

    for name in ("multipliers.condition2", "multipliers.probe"):
        out[name + ".s"] = inclusive_s(name)
        out[name + ".self_s"] = self_s(name)
    # a curve hit: an eligible call that ran no zonal series below it
    eligible = [
        i
        for name in ("multipliers.condition2", "multipliers.probe")
        for i in idx(name)
        if spans[i].counts.get("eligible")
    ]
    series_parents = ancestors_of(spans, "zonalseries.")
    hits = sum(1 for i in eligible if i not in series_parents)
    out["multipliers.curve_hit_frac"] = _ratio(hits, len(eligible))

    name = "expansion.basis"
    out[name + ".calls"] = calls(name)
    out[name + ".self_s"] = self_s(name)
    out[name + ".entries"] = total(name, "entries")
    out[name + ".entries_per_s"] = _ratio(total(name, "entries"), self_s(name))
    out[name + ".distinct_frac"] = distinct_frac(name)
    out["expansion.evaluate.calls"] = calls("expansion.evaluate")
    out["expansion.evaluate.self_s"] = self_s("expansion.evaluate")
    out["expansion.io.s"] = inclusive_s("expansion.io")

    name = "quadrature.sphere_rule"
    out[name + ".calls"] = calls(name)
    out[name + ".self_s"] = self_s(name)
    out[name + ".distinct_frac"] = distinct_frac(name)
    out["quadrature.radial_rule.calls"] = calls("quadrature.radial_rule")
    out["quadrature.radial_rule.self_s"] = self_s("quadrature.radial_rule")
    out["quadrature.norm.s"] = inclusive_s("quadrature.norm")
    out["quadrature.norm.self_s"] = self_s("quadrature.norm")

    name = "scipy.roots_jacobi"
    out[name + ".calls"] = calls(name)
    out[name + ".self_s"] = self_s(name)
    out[name + ".distinct_frac"] = distinct_frac(name)

    out["specfun.calls"] = calls("specfun")
    out["specfun.self_s"] = self_s("specfun")
    out["lemmas.check.s"] = inclusive_s("lemmas.check")
    out["lemmas.check.self_s"] = self_s("lemmas.check")
    out["reports.calls"] = calls("reports")
    out["reports.self_s"] = self_s("reports")
    out["reports.bytes"] = total("reports", "bytes")
    out["cli.main.self_s"] = self_s("cli.main")
    out["trace.wall_s"] = sum(spans[i].duration for i in idx("request"))
    out["trace.other_self_s"] = self_s("request")
    return out


def self_time_by_layer(spans):
    """Self time summed per span name; the values add up to trace.wall_s."""
    out = {}
    for span, t in zip(spans, self_times(spans)):
        out[span.name] = out.get(span.name, 0.0) + t
    return out
