"""Fuzz of the bundle schema through the CLI: small bundles, some with
type-mangled fields, each answered by every bundle command with one JSON
document and exit 0, 1 or 2 within a bounded time."""

import json
import time

from hypothesis import HealthCheck, given, settings, strategies as st

from taucover.cli import main

COMMANDS = [
    ["validate"],
    ["cover"],
    ["class"],
    ["connection", "--samples", "20"],
    ["omega-l", "--degree", "1"],
    ["omega-l", "--degree", "2"],
    ["verify", "--sequence", "2.7"],
    ["verify", "--sequence", "2.10"],
    ["verify", "--sequence", "2.11"],
]
EXPRESSIONS = ["t", "t + 1", "t + 2", "2*t + 1", "t^2 + 1", "t^2 + t + 1", "t^3 + t + 1"]
UNITS = ["1", "2", "t", "t^2", "t + 1", "(t + 1)^2", "t*(t + 1)", "1/t", "t^3", "-t"]
MANGLED = st.one_of(
    st.text(max_size=6),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-3, 3),
    st.none(),
    st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(st.sampled_from(["p", "e", "inverted", "t"]), st.integers(0, 3), max_size=2),
)


def t_power(k: int) -> str:
    return "1" if k == 0 else (f"t^{k}" if k > 0 else f"1/t^{-k}")


@st.composite
def bundles(draw):
    """A small bundle, valid by construction or drawn freely; with some
    probability one field then gets a value of the wrong type."""
    k, n = draw(st.integers(1, 3)), draw(st.integers(1, 8))
    p = draw(st.sampled_from([2, 3, 5]))
    bundle = {"field": {"p": p, "e": draw(st.integers(1, 2))}, "n": n}
    if draw(st.booleans()):
        # u_j = c * t^(a + n*x_j) and g(i,j) = t^(x_j - x_i) satisfy both identities
        c, a = draw(st.integers(1, p - 1)), draw(st.integers(-2, 3))
        x = [0] + [draw(st.integers(-2, 2)) for _ in range(k - 1)]
        extra = st.lists(st.sampled_from(["t + 1", "t^2 + t + 1"]), max_size=1)
        bundle["charts"] = [{"inverted": ["t", *draw(extra)]} for _ in range(k)]
        bundle["u"] = [f"{c}*{t_power(a + n * xj)}" for xj in x]
        bundle["g"] = {
            f"({i},{j})": t_power(x[j] - x[i]) for i in range(k) for j in range(i + 1, k)
        }
    else:
        bundle["charts"] = [
            {"inverted": draw(st.lists(st.sampled_from(EXPRESSIONS), max_size=2, unique=True))}
            for _ in range(k)
        ]
        bundle["u"] = [draw(st.sampled_from(UNITS)) for _ in range(k)]
        bundle["g"] = {
            f"({i},{j})": draw(st.sampled_from(UNITS)) for i in range(k) for j in range(i + 1, k)
        }
    if draw(st.booleans()):
        return bundle
    spot = draw(st.sampled_from(["n", "p", "e", "field", "charts", "chart", "inverted",
                                 "u", "unit", "g", "transition", "bundle"]))
    bad = draw(MANGLED)
    if spot == "bundle":
        return bad
    if spot in ("field", "n", "charts", "u", "g"):
        bundle[spot] = bad
    elif spot in ("p", "e"):
        bundle["field"][spot] = bad
    elif spot == "chart":
        bundle["charts"][0] = bad
    elif spot == "inverted":
        bundle["charts"][0]["inverted"] = bad
    elif spot == "unit":
        bundle["u"][0] = bad
    elif spot == "transition" and bundle["g"]:
        bundle["g"]["(0,1)"] = bad
    return bundle


@settings(
    max_examples=80,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(bundle=bundles())
def test_any_bundle_gets_one_json_document_and_a_contract_exit_code(capsys, tmp_path, bundle):
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(bundle))
    for command in COMMANDS:
        start = time.perf_counter()
        code = main([*command, "--json", str(path)])
        elapsed = time.perf_counter() - start
        json.loads(capsys.readouterr().out)  # raises unless exactly one document
        assert code in (0, 1, 2), (command, bundle)
        assert elapsed < 10.0, (command, bundle)
