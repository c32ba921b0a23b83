"""Seeded request generators and known answers for the three workloads.

Every generated bundle is valid by construction.  Chart i carries a unit
h_i built from primes it inverts, and

    u_i = c * t * h_i^n,    g_ij = h_j / h_i,

so g_ij^n = u_j / u_i and g_ij * g_jk = g_ik hold by algebra.  The known
answer of each request is derived from that construction alone, never from a
verdict of the program under test:

* canonical class, p | n, t not dividing h: nontrivial through the
  s-functional with value 1 (s reads the dv/v coordinate of (0, 1));
* coboundary of units: trivial, with a re-verified witness;
* ``cover``: exit 0 when du/u glues, else exit 1 naming the gluing failure.
  dlog(g^n) = n * dlog(g) vanishes when p | n; when p does not divide n every
  transition here carries a private prime of one chart with exponent 1, so
  dlog(g) != 0 and du/u cannot glue.

Inputs depend only on (workload, seed, request index), so the same seed gives
byte-identical bundle JSON.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path

# Monic irreducibles of degree >= 2 with F_p coefficients, per field (p, e).
# One that is irreducible over F_p stays irreducible over F_{p^e} exactly when
# gcd(degree, e) = 1; test_perfbench checks both facts without the program.
EXTRA_PRIMES = {
    (2, 1): [
        "t^2 + t + 1", "t^3 + t + 1", "t^3 + t^2 + 1", "t^4 + t + 1", "t^4 + t^3 + 1",
        "t^5 + t^2 + 1", "t^5 + t^3 + 1",
    ],
    (3, 1): ["t^2 + 1", "t^2 + t + 2", "t^2 + 2*t + 2"],
    (2, 2): ["t^3 + t + 1", "t^3 + t^2 + 1", "t^5 + t^2 + 1", "t^5 + t^3 + 1"],
    (5, 1): ["t^2 + 2", "t^2 + 3", "t^2 + t + 1", "t^2 + t + 2"],
    (2, 3): ["t^2 + t + 1", "t^4 + t + 1", "t^4 + t^3 + 1"],
}

# Fixed request shapes, cycled in order; the first five cover every field.
# The seed picks which primes of the given degrees, and which constants, fill
# a shape; it never changes the shape, so every run sees the same size mix.
# An odd number of shapes keeps the median latency inside one shape's cluster
# instead of on the edge between two.
#
# wide-cover-class: (p, e, n, charts, degrees of each chart's own primes);
# p | n, and h_i is the first own prime of chart i.
WIDE_SHAPES = [
    (2, 1, 4, 1, (1, 2)),
    (3, 1, 3, 2, (1,)),
    (2, 2, 4, 1, (1, 1)),
    (5, 1, 5, 1, (1, 2)),
    (2, 3, 4, 1, (1, 1)),
    (3, 1, 6, 1, (1,)),
    (2, 1, 4, 2, (3,)),
    (2, 2, 2, 2, (1,)),
    (5, 1, 5, 2, (1,)),
    (2, 1, 6, 1, (1,)),
    (3, 1, 6, 2, (1,)),
]

# many-chart-glue: (p, e, n, charts, private degree, shared degree, shared
# exponent).  Chart i inverts t, one private prime and one shared prime, and
# h_i = private_i * shared^k.  Orders are both divisible by p and prime to p.
GLUE_SHAPES = [
    (2, 1, 4, 2, 3, 4, 3),
    (3, 1, 4, 3, 2, 1, 3),
    (2, 2, 3, 3, 1, 3, 2),
    (5, 1, 5, 4, 1, 2, 2),
    (2, 3, 2, 5, 1, 4, 2),
    (3, 1, 6, 2, 2, 2, 4),
    (2, 1, 5, 2, 5, 4, 2),
    (5, 1, 3, 3, 1, 2, 4),
    (2, 2, 4, 3, 1, 5, 2),
    (2, 3, 3, 4, 1, 2, 3),
    (5, 1, 4, 2, 1, 2, 3),
]


def field_elem(coeffs: tuple[int, ...]) -> str:
    """Bundle-JSON spelling of sum(c_k * a^k); the prime field omits ``a``."""
    terms = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        if k == 0:
            terms.append(str(c))
        else:
            var = "a" if k == 1 else f"a^{k}"
            terms.append(var if c == 1 else f"{c}*{var}")
    return " + ".join(terms) if terms else "0"


def prime_pools(p: int, e: int) -> dict[int, list[str]]:
    """Monic irreducibles other than t, by degree: every t + alpha, then extras."""
    pools: dict[int, list[str]] = {1: []}
    for value in range(1, p**e):
        alpha = field_elem(tuple((value // p**k) % p for k in range(e)))
        pools[1].append(f"t + {alpha}" if e == 1 else f"t + ({alpha})")
    for pi in EXTRA_PRIMES[(p, e)]:
        degree = int(pi.split("^")[1].split()[0])
        pools.setdefault(degree, []).append(pi)
    return pools


def _draw(pools: dict[int, list[str]], rng: random.Random, degree: int) -> str:
    """Remove and return a random prime of the given degree."""
    pool = pools[degree]
    return pool.pop(rng.randrange(len(pool)))


def _nonzero_const(rng: random.Random, p: int, e: int) -> str:
    value = rng.randrange(1, p**e)
    return field_elem(tuple((value // p**k) % p for k in range(e)))


def _monomial(primes: dict[str, int]) -> str:
    """Product of (prime)^k for positive k; "1" when empty."""
    parts = [f"({pi})" if k == 1 else f"({pi})^{k}" for pi, k in primes.items() if k]
    return "*".join(parts) if parts else "1"


def _ratio(num: dict[str, int], den: dict[str, int]) -> str:
    return f"{_monomial(num)}/({_monomial(den)})"


def _bundle(p, e, n, inverted, h, const) -> dict:
    """Bundle JSON for u_i = const * t * h_i^n and g_ij = h_j / h_i."""
    charts = [{"inverted": list(inv)} for inv in inverted]
    u = []
    for hi in h:
        powered = {pi: k * n for pi, k in hi.items()}
        u.append(f"({const})*t*{_monomial(powered)}")
    g = {}
    for i in range(len(h)):
        for j in range(i + 1, len(h)):
            g[f"({i},{j})"] = _ratio(h[j], h[i])
    return {"field": {"p": p, "e": e}, "n": n, "charts": charts, "g": g, "u": u}


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


@dataclass(frozen=True)
class WideRequest:
    """Bundle plus per-chart coboundary units; both decisions are known."""

    bundle: dict
    units: list[str]


def wide_request(seed: int, index: int) -> WideRequest:
    """1-2 charts, p | n, low-degree h; a fresh cover for every index."""
    p, e, n, n_charts, degrees = WIDE_SHAPES[index % len(WIDE_SHAPES)]
    rng = _rng("wide-cover-class", seed, index)
    pools = prime_pools(p, e)
    inverted, h = [], []
    for _ in range(n_charts):
        own = [_draw(pools, rng, d) for d in degrees]
        inverted.append(["t", *own])
        h.append({own[0]: 1})
    bundle = _bundle(p, e, n, inverted, h, _nonzero_const(rng, p, e))
    units = []
    for inv in inverted:
        num, den = {}, {}
        for pi in inv:
            k = rng.randint(-2, 2)
            (num if k > 0 else den)[pi] = abs(k)
        units.append(f"({_nonzero_const(rng, p, e)})*{_ratio(num, den)}")
    return WideRequest(bundle, units)


@dataclass(frozen=True)
class GlueRequest:
    """Bundle whose cover verdict is fixed by whether p divides n."""

    bundle: dict
    du_u_glues: bool


def glue_request(seed: int, index: int) -> GlueRequest:
    """2-5 charts, nonconstant transitions, high-degree unit numerators."""
    p, e, n, n_charts, private_deg, shared_deg, k = GLUE_SHAPES[index % len(GLUE_SHAPES)]
    rng = _rng("many-chart-glue", seed, index)
    pools = prime_pools(p, e)
    shared = _draw(pools, rng, shared_deg)
    inverted, h = [], []
    for _ in range(n_charts):
        private = _draw(pools, rng, private_deg)
        inverted.append(["t", shared, private])
        # The private prime has exponent 1, so every g_ij has nonzero dlog.
        h.append({private: 1, shared: k})
    bundle = _bundle(p, e, n, inverted, h, _nonzero_const(rng, p, e))
    return GlueRequest(bundle, n % p == 0)


def bundle_text(bundle: dict) -> str:
    return json.dumps(bundle, sort_keys=True)


# -- request execution and checking


def run_cli(main, argv: list[str]) -> tuple[int, dict]:
    """Run the CLI in-process; returns (exit code, parsed JSON stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, json.loads(buf.getvalue())


def catalog_seed(seed: int, pass_index: int) -> int:
    """Fresh sample seed per catalog pass, derived from the workload seed."""
    return random.Random(f"catalog-report:{seed}:{pass_index}").randrange(2**31)


def check_catalog(code: int, out: dict, name: str) -> bool:
    fixtures = out.get("fixtures", [])
    return (
        code == 0
        and len(fixtures) == 1
        and fixtures[0]["fixture"] == name
        and fixtures[0]["matches_expected"] is True
    )


def check_canonical(verdict: dict) -> bool:
    return (
        verdict["trivial"] is False
        and verdict["obstruction"] == "s-functional"
        and verdict["details"]["s_value"] == "1"
    )


def check_coboundary(verdict: dict) -> bool:
    return verdict["trivial"] is True and verdict.get("witness_verified") is True


def check_validate(code: int, out: dict) -> bool:
    return code == 0 and out.get("valid") is True


def check_cover(code: int, out: dict, glues: bool) -> bool:
    if glues:
        return code == 0 and out.get("passed") is True
    return (
        code == 1
        and out.get("kind") == "failed-verification"
        and "du/u does not glue" in out.get("error", "")
    )


class Workload:
    """One workload: ``load`` prepares inputs, ``request(k)`` runs request k.

    ``request`` returns True when every verdict matches the known answer.
    """

    name = ""
    # Warm-up requests use another seed, so they share no inputs with the run.
    warm_up_requests = 5

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def load(self) -> None:
        """Import the program and read the inputs it needs before request 0."""

    def request(self, index: int) -> bool:
        raise NotImplementedError

    def warm_up(self) -> None:
        """Fill the program's caches on inputs the timed requests do not use."""
        seed = self.seed
        self.seed = -1 - seed
        try:
            for index in range(self.warm_up_requests):
                self.request(index)
        finally:
            self.seed = seed


class CatalogReport(Workload):
    """``report --fixture NAME --seed S`` cycling through the catalog."""

    name = "catalog-report"

    def load(self) -> None:
        from taucover import catalog, cli

        # Module references, not function references, so that a tracer that
        # rebinds cli.main sees the calls.
        self.cli = cli
        self.names = [fixture.name for fixture in catalog.load_all()]

    @property
    def pass_size(self) -> int:
        return len(self.names)

    def request(self, index: int) -> bool:
        name = self.names[index % len(self.names)]
        sample_seed = catalog_seed(self.seed, index // len(self.names))
        argv = ["report", "--fixture", name, "--seed", str(sample_seed)]
        return check_catalog(*run_cli(self.cli.main, argv), name)

    def warm_up(self) -> None:
        """Every fixture once, with fewer random sections than a request."""
        for name in self.names:
            run_cli(self.cli.main, ["report", "--fixture", name, "--seed", "-1", "--samples", "5"])


class WideCoverClass(Workload):
    """Build the cover, decide the canonical class and a coboundary."""

    name = "wide-cover-class"
    pass_size = len(WIDE_SHAPES)

    def load(self) -> None:
        # is_trivial_class is not exported from the package root.
        from taucover import connections, covers

        self.connections, self.covers = connections, covers

    def request(self, index: int) -> bool:
        connections, covers = self.connections, self.covers
        req = wide_request(self.seed, index)
        cover = covers.Cover(covers.TorsionBundle.from_json(req.bundle))
        canonical = connections.is_trivial_class(cover)
        cochain = connections.coboundary_class(cover, req.units)
        coboundary = connections.is_trivial_class(cover, cochain)
        return check_canonical(canonical) and check_coboundary(coboundary)


class ManyChartGlue(Workload):
    """Serialize the bundle, then CLI ``validate`` and ``cover --json FILE``."""

    name = "many-chart-glue"
    pass_size = len(GLUE_SHAPES)

    def load(self) -> None:
        from taucover import cli

        self.cli = cli
        self.path = self.workdir / "bundle.json"

    def request(self, index: int) -> bool:
        req = glue_request(self.seed, index)
        self.path.write_text(bundle_text(req.bundle))
        path = str(self.path)
        validated = run_cli(self.cli.main, ["validate", "--json", path])
        covered = run_cli(self.cli.main, ["cover", "--json", path])
        return check_validate(*validated) and check_cover(*covered, req.du_u_glues)


WORKLOADS = {w.name: w for w in (CatalogReport, WideCoverClass, ManyChartGlue)}
