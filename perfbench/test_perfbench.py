"""Self-checks of the benchmark.  Run with: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from taucover import TorsionBundle, load_all  # noqa: E402

CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYER_MAP = json.loads((HERE / "layer_map.json").read_text())
GENERATORS = {
    "wide-cover-class": (workloads.wide_request, len(workloads.WIDE_SHAPES)),
    "many-chart-glue": (workloads.glue_request, len(workloads.GLUE_SHAPES)),
}


def generated(name: str, seed: int) -> list:
    make, count = GENERATORS[name]
    return [make(seed, index) for index in range(count)]


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_same_seed_gives_identical_bundle_json(name):
    first = [workloads.bundle_text(r.bundle) for r in generated(name, 7)]
    again = [workloads.bundle_text(r.bundle) for r in generated(name, 7)]
    other = [workloads.bundle_text(r.bundle) for r in generated(name, 8)]
    assert first == again
    assert first != other


@pytest.mark.parametrize("name", sorted(GENERATORS))
@pytest.mark.parametrize("seed", [1, 2])
def test_every_generated_bundle_validates(name, seed):
    for req in generated(name, seed):
        bundle = TorsionBundle.from_json(json.loads(workloads.bundle_text(req.bundle)))
        assert bundle.validate()["valid"] is True


def _int_poly(text: str, p: int) -> list[int]:
    """Coefficients, low degree first, of a sum of c*t^k terms."""
    coeffs: dict[int, int] = {}
    for term in text.replace(" ", "").split("+"):
        m = re.fullmatch(r"(?:(\d+)\*?)?(t(?:\^(\d+))?)?", term)
        c = int(m.group(1) or 1)
        k = (int(m.group(3) or 1)) if m.group(2) else 0
        coeffs[k] = (coeffs.get(k, 0) + c) % p
    return [coeffs.get(k, 0) for k in range(max(coeffs) + 1)]


def _has_factor(poly: list[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree 1 .. deg/2 over F_p."""
    deg = len(poly) - 1
    for d in range(1, deg // 2 + 1):
        for value in range(p**d):
            div = [(value // p**i) % p for i in range(d)] + [1]
            rem = list(poly)
            for shift in range(deg - d, -1, -1):
                c = rem[shift + d]
                for i in range(d + 1):
                    rem[shift + i] = (rem[shift + i] - c * div[i]) % p
            if not any(rem):
                return True
    return False


@pytest.mark.parametrize("field", sorted(workloads.EXTRA_PRIMES))
def test_extra_primes_are_irreducible_over_the_field(field):
    p, e = field
    for text in workloads.EXTRA_PRIMES[field]:
        poly = _int_poly(text, p)
        assert poly[-1] == 1
        assert not _has_factor(poly, p), text
        assert math.gcd(len(poly) - 1, e) == 1, text


def test_shapes_match_the_documented_ranges():
    for shape in workloads.WIDE_SHAPES:
        assert shape[2] % shape[0] == 0
    glue_divisible = {s[2] % s[0] == 0 for s in workloads.GLUE_SHAPES}
    assert glue_divisible == {True, False}

    observed = {
        name: [TorsionBundle.from_json(r.bundle) for seed in (1, 2) for r in generated(name, seed)]
        for name in GENERATORS
    }
    observed["catalog-report"] = [fixture.bundle() for fixture in load_all()]

    for name, bundles in observed.items():
        doc = LAYER_MAP["workloads"][name]
        for key, values in (
            ("p", [b.scheme.field.p for b in bundles]),
            ("e", [b.scheme.field.e for b in bundles]),
            ("n", [b.n for b in bundles]),
            ("charts", [b.scheme.n_charts for b in bundles]),
            ("unit_degree", [max(u.num.deg for u in b.u) for b in bundles]),
        ):
            assert doc[key] == [min(values), max(values)], (name, key)
        assert doc["tail_percentile"] == run.TAIL_PCT[name]


def test_benchmark_json_is_well_formed():
    assert set(CONFIG) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in CONFIG["workloads"]] == list(workloads.WORKLOADS)
    assert set(run.TAIL_PCT) == set(workloads.WORKLOADS)
    for w in CONFIG["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    for m in CONFIG["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    setup = next(m for m in CONFIG["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in CONFIG["end_to_end"])
    names = [m["name"] for m in CONFIG["end_to_end"] + CONFIG["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert set(LAYER_MAP["layers"]) == {m["name"] for m in CONFIG["per_layer"]}


def test_end_to_end_metrics_are_all_printed():
    latencies = [0.1 * (i + 1) for i in range(50)]
    fake = {"raw": latencies, "latencies": latencies, "failed": 0, "elapsed": 20.0}
    metrics = run.end_to_end("wide-cover-class", fake, 0.2, 20.0)
    declared = {m["name"]: m["unit"] for m in CONFIG["end_to_end"]}
    assert {k: unit for k, (_, unit) in metrics.items()} == declared


def test_request_floor_leaves_ten_samples_beyond_the_tail():
    for pct in run.TAIL_PCT.values():
        for pass_size in (7, 10):
            count = run.min_requests(pct, pass_size)
            assert count % pass_size == 0
            assert run.len_beyond(count, pct) >= run.BEYOND
            assert run.len_beyond(count - pass_size, pct) < run.BEYOND


def test_wrong_known_answer_raises_error_rate(monkeypatch, tmp_path):
    real = workloads.glue_request

    def flipped(seed, index):
        req = real(seed, index)
        return workloads.GlueRequest(req.bundle, not req.du_u_glues)

    monkeypatch.setattr(workloads, "glue_request", flipped)
    workload = workloads.ManyChartGlue(3, tmp_path)
    workload.load()
    result = run.closed_loop(workload, seconds=0, floor=1)
    metrics = run.end_to_end(workload.name, result, 0.2, 20.0)
    assert result["failed"] == len(result["latencies"]) == workload.pass_size
    assert metrics["success_rate"][0] == 0.0


_COUNTS = """
import json, sys
sys.path[:0] = [{here!r}, {src!r}]
from pathlib import Path
import workloads
from tracing import Tracer
workload = workloads.WORKLOADS["wide-cover-class"](5, Path({work!r}))
workload.load()
tracer = Tracer()
tracer.install()
for index in (0, 1, 7):
    tracer.request = index
    assert workload.request(index)
tracer.uninstall()
print(json.dumps({{k: v for k, (v, _) in tracer.metrics().items()}}))
"""


def test_traced_counts_repeat_exactly(tmp_path):
    code = _COUNTS.format(here=str(HERE), src=str(ROOT / "src"), work=str(tmp_path))
    runs = []
    for hash_seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, env=env)
        runs.append(json.loads(out.stdout.splitlines()[-1]))
    counts = [k for k in runs[0] if k.endswith("_calls") or k == "pidmod.snf_cells"]
    assert runs[0]["pidmod.snf_calls"] > 0
    assert {k: runs[0][k] for k in counts} == {k: runs[1][k] for k in counts}


def test_traced_run_prints_every_per_layer_metric():
    argv = [sys.executable, str(HERE / "run.py"), "--workload", "many-chart-glue",
            "--seed", "4", "--seconds", "1", "--trace", "1"]
    out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in CONFIG["per_layer"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == declared
    # many-chart-glue never reaches the normal-form engine.
    pidmod = {k: m["value"] for k, m in result["metrics"].items() if k.startswith("pidmod.")}
    assert set(pidmod.values()) == {0}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    argv = [sys.executable, "perfbench/run.py", "--workload", "many-chart-glue",
            "--seed", "1", "--seconds", "1", "--trace", "0"]
    out = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert "correct" not in out.stdout
