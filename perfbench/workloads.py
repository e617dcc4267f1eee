"""The benchmark workloads: seeded inputs, one timed repetition, output checks.

Every workload builds its corpora with ``tests/corpusgen.py`` from the run's
seed (background ``seed``, adaptation ``seed + 1``, held-out ``seed + 2``)
and drives ``clusterlm`` only through its public API or its command line,
called in-process through ``clusterlm.cli.main``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import corpusgen
from steady import SteadyTimer
from tracing import TREND_SIZES

from clusterlm import BackoffModel, ClassModel, SuiteConfig, cli, evaluate, write_records

NORMALIZATION_CONTEXTS = 16
NORMALIZATION_TOLERANCE = 1e-9


class Ops:
    """Operations attempted and failed.  A failure is recorded, never raised."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def check(self, label: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{label}: {detail}" if detail else label)
        return ok


@dataclass
class Rep:
    """One timed repetition of a workload's pipeline.

    ``steps`` maps each step of the pipeline, in order, to its time in
    reference seconds (see ``steady.py``); the steps partition the
    repetition, and the names of scoring steps start with ``eval``.
    """

    steps: dict[str, float]
    plain_wall_s: float  # wall seconds of the steps, without the timer's scaling
    eval_tokens: int
    pp: dict[str, float]
    fingerprint: str
    models: list = field(default_factory=list)  # (label, loader) pairs


def run_cli(ops: Ops, label: str, argv: list[str], timer: SteadyTimer) -> tuple[float, float]:
    """Run one CLI command in-process; returns its (reference, wall) seconds.

    A non-zero exit status, an exception or an argument error counts as a
    failed operation.  The command's own output is swallowed so that the
    result line stays last on standard output.
    """
    out, err = io.StringIO(), io.StringIO()
    started = timer.start()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli.main(argv)
    except (Exception, SystemExit) as exc:  # noqa: BLE001 - counted, not fatal
        status = f"{type(exc).__name__}: {exc}"
    times = timer.stop(started)
    ops.check(label, status == 0, f"status {status!r} {err.getvalue().strip()}")
    return times


def check_perplexity(ops: Ops, label: str, value: float) -> None:
    ops.check(f"pp {label}", math.isfinite(value) and value > 1.0, f"PP={value!r}")


def check_normalized(ops: Ops, label: str, load, rng) -> None:
    """Sum of p(w | v) over the vocabulary is 1 for a seeded sample of v."""
    try:
        model = load()
    except Exception as exc:  # noqa: BLE001 - counted, not fatal
        ops.check(f"normalization {label}", False, f"load failed: {exc!r}")
        return
    size = model.vocab_size
    contexts = rng.sample(range(size), min(NORMALIZATION_CONTEXTS, size))
    worst = max(abs(sum(model.prob(v, w) for w in range(size)) - 1.0) for v in contexts)
    ops.check(
        f"normalization {label}", worst <= NORMALIZATION_TOLERANCE,
        f"worst deviation {worst:.3e}",
    )


def write_corpus(path: Path, sentences) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(" ".join(sent) + "\n" for sent in sentences)


def _digest(paths) -> str:
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


class Trend:
    """``experiment_suite`` at the sizes of the acceptance trend fixture."""

    name = "trend"
    MIN_REPS = 1  # one repetition already outlasts the run time
    SCALES = {
        "full": dict(back=100_000, adapt=26_000, heldout=10_000, topic=300,
                     clusters=100, max_iterations=8),
        "toy": dict(back=3_000, adapt=26_000, heldout=1_000, topic=20,
                    clusters=6, max_iterations=2),
    }
    SIZES = list(TREND_SIZES)  # the per-slice metrics are named after them

    def __init__(self, scale: str, timer: SteadyTimer):
        self.size = self.SCALES[scale]
        self.timer = timer

    def setup(self, seed: int, inputs: Path) -> None:
        s = self.size
        self.back = corpusgen.domain_corpus("back", seed, s["back"], topic_size=s["topic"])
        self.adapt = corpusgen.domain_corpus("target", seed + 1, s["adapt"], topic_size=s["topic"])
        self.heldout = corpusgen.domain_corpus("target", seed + 2, s["heldout"], topic_size=s["topic"])

    def run(self, rep_dir: Path, ops: Ops) -> Rep:
        """One ``experiment_suite`` call, split into steps by timing each
        exchange run and each perplexity evaluation inside it."""
        timer = self.timer
        steps: dict[str, float] = {}
        wall_steps = 0.0
        tokens = 0
        models = []
        inner_exchange, inner_perplexity = evaluate.run_exchange, evaluate.perplexity

        def timed(label, fn, *args, **kwargs):
            nonlocal wall_steps
            started = timer.start()
            try:
                return fn(*args, **kwargs)
            finally:
                steps[f"{label}#{len(steps)}"], wall = timer.stop(started)
                wall_steps += wall

        def timed_exchange(*args, **kwargs):
            return timed("exchange", inner_exchange, *args, **kwargs)

        def timed_perplexity(prob_fn, *args, **kwargs):
            nonlocal tokens
            report = timed("eval", inner_perplexity, prob_fn, *args, **kwargs)
            tokens += report.tokens_scored
            models.append((report.model_id, prob_fn.__self__))
            return report

        cfg = SuiteConfig(
            clusters=self.size["clusters"], max_iterations=self.size["max_iterations"]
        )
        evaluate.run_exchange, evaluate.perplexity = timed_exchange, timed_perplexity
        started = timer.start()
        overhead = timer.overhead_s
        try:
            result = evaluate.experiment_suite(
                self.back, self.adapt, self.heldout, self.SIZES, cfg
            )
        except Exception as exc:  # noqa: BLE001 - counted, not fatal
            result = None
            error = f"{type(exc).__name__}: {exc}"
        finally:
            inner_overhead = timer.overhead_s - overhead
            seconds, wall = timer.stop(started)
            evaluate.run_exchange, evaluate.perplexity = inner_exchange, inner_perplexity
        # The rest of the call: suite time outside the timed steps and
        # outside the timer's own reference loops, at the suite's scale.
        plain_wall = wall - inner_overhead
        steps["rest"] = (plain_wall - wall_steps) * seconds / wall
        if not ops.check("experiment_suite", result is not None, "" if result else error):
            return Rep(steps, plain_wall, tokens, {}, "")

        records = rep_dir / "records.json"
        write_records(result, records)
        pp = {rep.model_id: rep.perplexity for rep in result.baseline.values()}
        for reports in result.adapted.values():
            pp.update({rep.model_id: rep.perplexity for rep in reports.values()})
        return Rep(
            steps, plain_wall, tokens, pp, _digest([records]),
            [(label, (lambda m=model: m)) for label, model in models],
        )


class CliWorkload:
    """A pipeline of ``clusterlm`` commands over corpus files."""

    name = ""
    MIN_REPS = 3
    SCALES: dict[str, dict] = {}
    EVALS: tuple[str, ...] = ()

    def __init__(self, scale: str, timer: SteadyTimer):
        self.size = self.SCALES[scale]
        self.timer = timer

    def setup(self, seed: int, inputs: Path) -> None:
        s = self.size
        self.inputs = inputs
        for name, domain, offset in (
            ("back", "back", 0), ("adapt", "target", 1), ("heldout", "target", 2)
        ):
            sents = corpusgen.domain_corpus(domain, seed + offset, s[name], topic_size=s["topic"])
            write_corpus(inputs / f"{name}.txt", sents)

    def commands(self, d: Path) -> list[tuple[str, list[str]]]:
        raise NotImplementedError

    def common_commands(self, d: Path) -> list[tuple[str, list[str]]]:
        i = self.inputs
        vocab = str(d / "vocab.txt")
        return [
            ("vocab", ["vocab", "--adaptation", str(i / "adapt.txt"),
                       "--background", str(i / "back.txt"), "--out", vocab]),
            ("counts back", ["counts", "--vocab", vocab, "--corpus", str(i / "back.txt"),
                             "--out", str(d / "back.counts")]),
            ("counts adapt", ["counts", "--vocab", vocab, "--corpus", str(i / "adapt.txt"),
                              "--out", str(d / "adapt.counts")]),
        ]

    def eval_commands(self, d: Path) -> list[tuple[str, list[str]]]:
        return [
            (f"eval {m}", ["eval", "--model", str(d / f"{m}.model"),
                           "--vocab", str(d / "vocab.txt"),
                           "--heldout", str(self.inputs / "heldout.txt"),
                           "--model-id", m, "--out", str(d / f"{m}.eval.json")])
            for m in self.EVALS
        ]

    def loader(self, path: Path):
        raise NotImplementedError

    def run(self, rep_dir: Path, ops: Ops) -> Rep:
        timed = {
            label: run_cli(ops, label, argv, self.timer)
            for label, argv in self.commands(rep_dir) + self.eval_commands(rep_dir)
        }
        steps = {label: seconds for label, (seconds, _) in timed.items()}
        plain_wall = sum(wall for _, wall in timed.values())
        pp: dict[str, float] = {}
        tokens = 0
        outputs = []
        for m in self.EVALS:
            path = rep_dir / f"{m}.eval.json"
            if path.exists():
                report = json.loads(path.read_text(encoding="utf-8"))
                pp[m] = report["perplexity"]
                tokens += report["tokens_scored"]
                outputs.append(path)
        outputs += list(rep_dir.glob("*.clusters"))
        models = [
            (m, (lambda p=rep_dir / f"{m}.model": self.loader(p))) for m in self.EVALS
        ]
        return Rep(steps, plain_wall, tokens, pp, _digest(outputs), models)


class BackoffCli(CliWorkload):
    """Backoff and fill-up models through the CLI; no exchange clustering."""

    name = "backoff_cli"
    SCALES = {
        "full": dict(back=1_000_000, adapt=50_000, heldout=400_000, topic=3000),
        "toy": dict(back=20_000, adapt=2_000, heldout=2_000, topic=40),
    }
    EVALS = ("back_bo", "adapt_bo", "fillup")

    def commands(self, d: Path) -> list[tuple[str, list[str]]]:
        vocab = str(d / "vocab.txt")
        return self.common_commands(d) + [
            ("train back_bo", ["train", "--method", "back_bo", "--vocab", vocab,
                               "--counts", str(d / "back.counts"),
                               "--out", str(d / "back_bo.model")]),
            ("train adapt_bo", ["train", "--method", "adapt_bo", "--vocab", vocab,
                                "--counts", str(d / "adapt.counts"),
                                "--out", str(d / "adapt_bo.model")]),
            ("adapt fillup", ["adapt", "--method", "fillup", "--vocab", vocab,
                              "--counts", str(d / "adapt.counts"),
                              "--model", str(d / "back_bo.model"),
                              "--out", str(d / "fillup.model")]),
        ]

    def loader(self, path: Path):
        return BackoffModel.load(path)


class ClassCli(CliWorkload):
    """Class models and clustered adaptation through the CLI, two exchange
    iterations each."""

    name = "class_cli"
    SCALES = {
        "full": dict(back=300_000, adapt=25_000, heldout=500_000, topic=1000, clusters=300),
        "toy": dict(back=8_000, adapt=1_500, heldout=1_500, topic=30, clusters=12),
    }
    EVALS = ("back_cl", "clust_adapt")

    def commands(self, d: Path) -> list[tuple[str, list[str]]]:
        vocab = str(d / "vocab.txt")
        k = str(self.size["clusters"])
        return self.common_commands(d) + [
            ("train back_cl", ["train", "--method", "back_cl", "--vocab", vocab,
                               "--counts", str(d / "back.counts"), "--clusters", k,
                               "--max-iterations", "2",
                               "--clusters-out", str(d / "back.clusters"),
                               "--out", str(d / "back_cl.model")]),
            ("adapt clust_adapt", ["adapt", "--method", "clust_adapt", "--vocab", vocab,
                                   "--counts", str(d / "adapt.counts"),
                                   "--back-counts", str(d / "back.counts"),
                                   "--init-clusters", str(d / "back.clusters"),
                                   "--max-iterations", "2",
                                   "--clusters-out", str(d / "adapt.clusters"),
                                   "--out", str(d / "clust_adapt.model")]),
        ]

    def loader(self, path: Path):
        return ClassModel.load(path)


WORKLOADS = {w.name: w for w in (Trend, BackoffCli, ClassCli)}
