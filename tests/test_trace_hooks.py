"""The span tracer of the benchmark harness still fits the package.

``perfbench/tracing.py`` patches the functions and methods named in its
``TRACE_POINTS`` by module and name.  A rename or a method moved to a base
class breaks a traced benchmark run; this test catches it in the test suite.
"""

import importlib.util
from pathlib import Path

from corpusgen import block_corpus

import clusterlm.cli  # noqa: F401 - the tracer patches every clusterlm module
from clusterlm import SuiteConfig, evaluate

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_point_installs_records_and_restores():
    tracing = load_tracing()
    originals = [
        tracing._resolve(owner).__dict__[attr] for owner, attr, _, _ in tracing.TRACE_POINTS
    ]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        sents = block_corpus(60, seed=3)
        cfg = SuiteConfig(clusters=2, max_iterations=2, methods=("back_cl", "clust_adapt"))
        evaluate.experiment_suite(sents, sents[:30], sents[30:], [60], cfg)
    finally:
        tracer.restore()
    names = {span[0] for span in tracer.spans}
    for expected in ("evaluate.suite", "exchange.run", "criterion.std.candidates",
                     "criterion.ada.candidates", "criterion.combine",
                     "classmodel.estimate", "evaluate.perplexity"):
        assert expected in names
    restored = [
        tracing._resolve(owner).__dict__[attr] for owner, attr, _, _ in tracing.TRACE_POINTS
    ]
    assert all(a is b for a, b in zip(originals, restored))
