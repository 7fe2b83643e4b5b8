"""Seeded request lists for the three benchmark workloads.

A workload is a fixed list of requests plus the coefficient and multiplier
files they read.  The seed chooses parameter values and file contents, never
the shape of the list, so every seed asks for the same amount of work.  The
program only ever sees the requests (command-line argv or a direct call of a
public function) and the files; what the oracle expects of each answer
stays here, in ``Workload.expect``.
"""

import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("zonal-deep", "full-kind", "sweep-small")

# sweep-small: probe degrees of the random-polynomial probe (see README)
PROBE_SIZES = (4, 8)
# sweep-small: J = 8 mult-check cells per multiplier family, then repeats of
# those cells (the same parameters, so the growth curves come from the cache).
# With the kernel evaluations, these counts put req_p50_s among the repeats
# and req_p90_s inside one group of alike requests, away from the jumps
# between groups (see README).
CELLS_PER_FAMILY = 4
REPEATS_PER_FAMILY = 40
KERNEL_EVALS = 80
# full-kind: the seeded random-block dim-3 multiplier
RANDOM_BLOCK_DEGREE = 10
RANDOM_BLOCK_DIRECTIONS = 1
RANDOM_BLOCK_REQUESTS = 10
FULL_J_LEVELS = [3, 4, 5, 6]


@dataclass
class Workload:
    name: str
    seed: int
    workdir: str
    files: dict = field(default_factory=dict)  # relative path -> JSON payload
    requests: list = field(default_factory=list)  # timed, in order
    expect: dict = field(default_factory=dict)  # request id -> expectation
    references: list = field(default_factory=list)  # untimed oracle requests

    def path(self, name):
        return f"{self.workdir}/{name}"

    def add(self, request, expect):
        request = dict(request, id=len(self.requests))
        self.requests.append(request)
        self.expect[request["id"]] = expect
        return request["id"]

    def cli(self, argv, expect, out=None, report="out"):
        argv = [str(a) for a in argv]
        if out is not None:
            argv += ["--out", out]
        return self.add({"kind": "cli", "argv": argv, "out": out, "report": report}, expect)


def sph_dim(n, k):
    """Dimension of the degree-k spherical harmonics in R^n."""
    if k == 0:
        return 1
    return math.comb(k + n - 1, n - 1) - math.comb(k + n - 3, n - 1)


def _unit_vector(rng, dim):
    while True:
        v = [rng.gauss(0.0, 1.0) for _ in range(dim)]
        norm = math.sqrt(sum(x * x for x in v))
        if norm > 0.1:
            return [x / norm for x in v]


def _verdict_params(rng, t, gap_lo, gap_hi):
    """(p, alpha, beta, bounded) inside the theorem window, with beta at
    least gap_lo away from the threshold alpha - t of the verdict (every
    beta > 0 is bounded when the threshold is negative)."""
    p = rng.choice([1.0, 0.9, 0.8])
    alpha = round(rng.uniform(0.2, 0.9), 3)
    gap = round(rng.uniform(gap_lo, gap_hi), 3)
    if rng.random() < 0.5 and alpha - t - gap > 0.05:
        return p, alpha, round(alpha - t - gap, 3), False
    return p, alpha, round(max(alpha - t, 0.0) + gap, 3), True


def _mult_check(wl, family, t, m, J, p, alpha, beta, bounded, tag):
    argv = ["mult-check", "--dim", 3, "--p", p, "--m", m, "--alpha", alpha, "--beta", beta,
            "--multiplier", family, "--rho-levels", J]
    expect = {"check": "verdict", "bounded": bounded, "equivalence": True}
    return wl.cli(argv, expect, out=wl.path(f"{tag}.json"))


def zonal_deep(seed, workdir):
    """The reference mult-check, then a seeded J = 8 request whose
    (family, m) differs from every curve the reference built."""
    rng = random.Random(f"zonal-deep:{seed}")
    wl = Workload("zonal-deep", seed, workdir)
    _mult_check(wl, "powerlaw:0.5", 0.5, 2, 10, 1, 0.5, 0.25, True, "reference")
    t = rng.choice([0.25, 0.75, 1.0])
    m = rng.choice([1.5, 2.5, 3.0])
    p, alpha, beta, bounded = _verdict_params(rng, t, 0.2, 0.4)
    _mult_check(wl, f"powerlaw:{t:g}", t, m, 8, p, alpha, beta, bounded, "seeded")
    return wl


def _full_file(dim, blocks):
    return {"dim": dim, "kind": "full", "coeffs": blocks}


def _zonal_file(dim, coeffs, pole=None):
    payload = {"dim": dim, "kind": "zonal"}
    if pole is not None:
        payload["pole"] = pole
    payload["coeffs"] = coeffs
    return payload


def _condition2(wl, name, payload, params, direction_count=None, reference=None):
    wl.files[wl.path(name)] = payload
    request = {
        "kind": "condition2_sup",
        "multiplier": wl.path(name),
        "params": params,
        "j_levels": FULL_J_LEVELS,
        "direction_count": direction_count,
    }
    expect = {"check": "verdict", "bounded": True, "equivalence": False}
    rid = wl.add(request, expect)
    if reference is not None:
        # the same multiplier as a zonal sequence: the raw integrals must agree
        ref_name = "zonal-" + name
        wl.files[wl.path(ref_name)] = _zonal_file(payload["dim"], reference)
        wl.references.append(dict(request, id=f"ref{rid}", multiplier=wl.path(ref_name),
                                  direction_count=None))
        expect["reference"] = f"ref{rid}"
    return rid


def full_kind(seed, workdir):
    """condition2_sup on full-kind multiplier files (mult-check refuses them).

    Ten short seeded random-block requests, half before and half after
    the ROADMAP reference, and one constant-block dim-2 request among them.
    The median and 90th-percentile request times are order statistics of
    the random-block requests, sampled at both ends of the pass rather than
    in one window of the machine's speed drift."""
    rng = random.Random(f"full-kind:{seed}")
    wl = Workload("full-kind", seed, workdir)

    def params(dim):
        alpha = round(rng.uniform(0.3, 0.8), 3)
        return {"p": rng.choice([1.0, 0.9]), "alpha": alpha,
                "beta": round(rng.uniform(0.2, 1.0), 3), "m": 2.0, "dim": dim}

    def random_block(i):
        blocks = [[round(rng.uniform(-1.0, 1.0), 6) for _ in range(sph_dim(3, k))]
                  for k in range(RANDOM_BLOCK_DEGREE + 1)]
        _condition2(wl, f"random-d3-k{RANDOM_BLOCK_DEGREE}-{i}.json", _full_file(3, blocks),
                    params(3), direction_count=RANDOM_BLOCK_DIRECTIONS)

    def constant_block(i):
        consts = [round(rng.uniform(0.5, 1.5), 6) for _ in range(33)]
        blocks = [[c] * sph_dim(2, k) for k, c in enumerate(consts)]
        _condition2(wl, f"const-d2-k32-{i}.json", _full_file(2, blocks), params(2),
                    reference=consts)

    half = RANDOM_BLOCK_REQUESTS // 2
    for i in range(half):
        random_block(i)
        if i == half // 2 - 1:
            constant_block(0)
    reference_params = {"p": 1.0, "alpha": 0.5, "beta": 0.25, "m": 2.0, "dim": 3}
    ones = [[1.0] * sph_dim(3, k) for k in range(9)]
    _condition2(wl, "ones-d3-k8.json", _full_file(3, ones), reference_params,
                reference=[1.0] * 9)
    for i in range(half, RANDOM_BLOCK_REQUESTS):
        random_block(i)
    return wl


def _norm_closed_form(payload, alpha):
    """Definition-convention norm at p = q = 2:
    (sum_k |c_k|^2 B(k + n/2, alpha + 1) / 2)^(1/2)."""
    n = payload["dim"]
    total = 0.0
    for k, c in enumerate(payload["coeffs"]):
        sq = c * c * sph_dim(n, k) if payload["kind"] == "zonal" else sum(x * x for x in c)
        log_beta = math.lgamma(k + n / 2) + math.lgamma(alpha + 1) - math.lgamma(k + n / 2 + alpha + 1)
        total += sq * math.exp(log_beta) / 2.0
    return math.sqrt(total)


def sweep_small(seed, workdir):
    """At least 100 short requests in one process: norms, lemmas, a
    random-polynomial probe, a J = 8 mult-check grid and kernel values."""
    rng = random.Random(f"sweep-small:{seed}")
    wl = Workload("sweep-small", seed, workdir)
    poisson = wl.path("poisson.json")
    wl.cli(["kernel", "--dim", 3], {"check": "ok"}, out=poisson, report=None)
    marks = [len(wl.requests)]

    files = {
        "zonal-k16.json": _zonal_file(3, [rng.gauss(0, 1) for _ in range(17)], _unit_vector(rng, 3)),
        "full-d3-k6.json": _full_file(3, [[rng.gauss(0, 1) for _ in range(sph_dim(3, k))]
                                          for k in range(7)]),
        "full-d2-k8.json": _full_file(2, [[rng.gauss(0, 1) for _ in range(sph_dim(2, k))]
                                          for k in range(9)]),
        "zonal-k64.json": _zonal_file(3, [rng.gauss(0, 1) / (k + 1) for k in range(65)],
                                      _unit_vector(rng, 3)),
    }
    alpha = round(rng.uniform(0.2, 0.8), 3)
    for name, payload in files.items():
        wl.files[wl.path(name)] = payload
        for conv in ("definition", "theorem"):
            for q in (2, 1):
                closed = _norm_closed_form(payload, alpha) if (q, conv) == (2, "definition") else None
                wl.cli(["norm", "--input", wl.path(name), "--p", q, "--q", q, "--alpha", alpha,
                        "--convention", conv],
                       {"check": "norm", "closed_form": closed},
                       out=wl.path(f"norm-{len(wl.requests)}.json"))
    wl.cli(["norm", "--input", poisson, "--p", 1, "--q", 1, "--alpha", alpha],
           {"check": "norm", "closed_form": None}, out=wl.path("norm-poisson.json"))
    marks.append(len(wl.requests))

    for lemma_id in range(1, 7):
        wl.cli(["lemma", "--id", lemma_id, "--fast", "--seed", rng.randrange(1, 10**6)],
               {"check": "lemma"}, out=wl.path(f"lemma-{lemma_id}.json"))
    marks.append(len(wl.requests))

    t = rng.choice([0.25, 0.5, 0.75])
    alpha = round(rng.uniform(0.3, 0.7), 3)
    wl.add({"kind": "probe", "multiplier": f"powerlaw:{t:g}",
            "params": {"p": 1.0, "alpha": alpha, "beta": round(alpha - t + 0.5, 3), "m": 2.0, "dim": 3},
            "family": "random_polynomials", "sizes": list(PROBE_SIZES),
            "seed": rng.randrange(1, 10**6)},
           {"check": "verdict", "bounded": True, "equivalence": False})
    marks.append(len(wl.requests))

    t2 = rng.choice([0.25, 0.5, 0.75])
    cells = []
    for i in range(CELLS_PER_FAMILY):
        for family, t_fam in (("ones", 0.0), (f"powerlaw:{t2:g}", t2)):
            cells.append((family, t_fam, *_verdict_params(rng, t_fam, 0.15, 0.4)))
    for i in range(len(cells) + 2 * REPEATS_PER_FAMILY):
        family, t_fam, p, a, b, bounded = cells[i % len(cells)]
        _mult_check(wl, family, t_fam, 2, 8, p, a, b, bounded, f"cell-{len(wl.requests)}")
    marks.append(len(wl.requests))

    for i in range(KERNEL_EVALS):
        dim = 2 + i % 3
        r_max = round(rng.uniform(0.5, 0.95), 3)
        r = round(r_max * rng.uniform(0.1, 1.0), 4)
        cos = round(rng.uniform(-1.0, 1.0), 4)
        argv = ["kernel", "--dim", dim, "--r-max", r_max, "--eval-r", r, "--eval-t", cos]
        if i % 2:
            argv += ["--m", rng.choice([0.5, 1, 2])]
            expect = {"check": "kernel", "value": None}
        else:
            expect = {"check": "kernel",
                      "value": (1 - r * r) / (1 - 2 * r * cos + r * r) ** (dim / 2)}
        wl.cli(argv, expect, report="stdout")
    marks.append(len(wl.requests))
    _interleave(wl, marks)
    return wl


def _interleave(wl, marks):
    """Spread each group of requests (wl.requests[marks[i]:marks[i+1]]) evenly
    over the pass.  Machine speed drifts over tens of seconds, so a group run
    back to back would put its share of the per-request quantiles into one
    window of that drift.  The order depends only on the group sizes."""
    head = list(range(marks[0]))
    keyed = []
    for g, (lo, hi) in enumerate(zip(marks, marks[1:])):
        keyed += [((i - lo + 0.5) / (hi - lo), g, i) for i in range(lo, hi)]
    order = head + [i for _, _, i in sorted(keyed)]
    wl.requests = [dict(wl.requests[old], id=new) for new, old in enumerate(order)]
    wl.expect = {new: wl.expect[old] for new, old in enumerate(order)}


BUILDERS = {"zonal-deep": zonal_deep, "full-kind": full_kind, "sweep-small": sweep_small}


def build(name, seed, workdir):
    return BUILDERS[name](seed, workdir)
