"""Byte pin of the CLI over the benchmark's generated bundles.

Every bundle that ``perfbench/workloads.py`` generates for many-chart-glue
(``glue_request``) and wide-cover-class (``wide_request``), seeds 1-3 and all
11 shapes of each, is written to a file and run through ``validate``,
``cover``, ``class`` and ``omega-l --degree 1``.  One sha256 covers every
exit code and every stdout, in that order, so any change to a verdict, a
message or a printed element fails it.  A second command tuple, with its own
sha256, runs ``omega-l --degree 2``, ``verify --sequence 2.7`` and
``connection --samples 20`` over the same bundles.  A third, with its own
sha256, runs ``connection`` at its default 200 samples, about 2 s over the
corpus.  The workload file is imported by path and not edited.

``verify 2.10`` and ``2.11`` stay out: their relation witnesses depend on the
pivot order of the block SNF.
"""

import hashlib
import importlib.util
import sys
from pathlib import Path

from taucover.cli import main

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
SEEDS = (1, 2, 3)
COMMANDS = (
    ["validate"],
    ["cover"],
    ["class"],
    ["omega-l", "--degree", "1"],
)
CORPUS_SHA256 = "417ceb3e46f704c6ef3ac68ecc066db57ea9bfffee0ea18e0faea10962a284a1"
MORE_COMMANDS = (
    ["omega-l", "--degree", "2"],
    ["verify", "--sequence", "2.7"],
    ["connection", "--samples", "20"],
)
MORE_SHA256 = "d1398fdb05620fc0c3cd0fb89a19f0c054145197ec0889084846638112bbe325"
FULL_SAMPLE_COMMANDS = (["connection"],)
FULL_SAMPLE_SHA256 = "f1063033464282a4a3e09f05f94482258b6be4adc30f872a07575c1e00d212ac"


def load_workloads():
    spec = importlib.util.spec_from_file_location("corpus_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def corpus(workloads) -> list[str]:
    """Bundle JSON texts in a fixed order: glue then wide, by seed and shape."""
    texts = []
    for make, shapes in (
        (workloads.glue_request, workloads.GLUE_SHAPES),
        (workloads.wide_request, workloads.WIDE_SHAPES),
    ):
        for seed in SEEDS:
            for index in range(len(shapes)):
                texts.append(workloads.bundle_text(make(seed, index).bundle))
    return texts


def pin(texts, commands, tmp_path, capsys) -> str:
    """sha256 over the exit code and stdout of each command on each bundle."""
    digest = hashlib.sha256()
    path = tmp_path / "bundle.json"
    for text in texts:
        path.write_text(text)
        for command in commands:
            code = main([*command, "--json", str(path)])
            digest.update(f"{code}\n".encode())
            digest.update(capsys.readouterr().out.encode())
    return digest.hexdigest()


def test_cli_output_on_the_benchmark_bundles_is_pinned(tmp_path, capsys):
    texts = corpus(load_workloads())
    assert len(texts) == 2 * len(SEEDS) * 11
    assert pin(texts, COMMANDS, tmp_path, capsys) == CORPUS_SHA256


def test_more_cli_output_on_the_benchmark_bundles_is_pinned(tmp_path, capsys):
    texts = corpus(load_workloads())
    assert len(texts) == 2 * len(SEEDS) * 11
    assert pin(texts, MORE_COMMANDS, tmp_path, capsys) == MORE_SHA256


def test_full_sample_connection_on_the_benchmark_bundles_is_pinned(tmp_path, capsys):
    texts = corpus(load_workloads())
    assert len(texts) == 2 * len(SEEDS) * 11
    assert pin(texts, FULL_SAMPLE_COMMANDS, tmp_path, capsys) == FULL_SAMPLE_SHA256
