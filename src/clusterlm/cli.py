"""Command-line front end: vocab/counts/train/adapt/eval/report subcommands."""

from __future__ import annotations

import argparse
import json
import logging
import sys

from .artifact import read_magic
from .backoff import BACKOFF_MAGIC, BackoffModel
from .classmodel import CLASSMODEL_MAGIC, ClassModel, load_clusters, save_clusters
from .corpus import CountTable, Vocabulary, build_vocabulary, count_events
from .errors import ClusterLMError, ConfigError, FormatError, VocabMismatchError
from .evaluate import (
    SuiteConfig,
    adapt_class_model,
    fillup_model,
    perplexity,
    train_backoff_model,
    train_class_model,
)


def read_config(path) -> dict[str, str]:
    """key=value lines, each key once; blank lines and # comments are skipped."""
    out: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value")
            key, value = (part.strip() for part in line.split("=", 1))
            if key in out:
                raise ConfigError(f"{path}:{lineno}: repeated key {key!r}")
            out[key] = value
    return out


def _discount(raw: str) -> float | None:
    return None if raw == "auto" else float(raw)


def _lambda_grid(raw: str) -> tuple[float, ...]:
    return tuple(float(p) for p in raw.split(",") if p.strip() != "")


# Settings a flag or the config file may give, each with its parser.
SETTINGS = {
    "vocab_size": int,
    "clusters": int,
    "cutoff": int,
    "discount": _discount,
    "max_iterations": int,
    "lambda_grid": _lambda_grid,
}


def suite_config(args: argparse.Namespace, config: dict[str, str]) -> SuiteConfig:
    """Flags first, then the config file, then the ``SuiteConfig`` defaults."""
    unknown = sorted(set(config) - set(SETTINGS))
    if unknown:
        raise ConfigError(f"unknown settings {unknown}")
    values = {}
    for key, parse in SETTINGS.items():
        raw = getattr(args, key, None)
        if raw is None:
            raw = config.get(key)
        if raw is not None:
            try:
                values[key] = parse(raw)
            except ValueError as exc:
                raise ConfigError(f"bad {key} {raw!r}: {exc}") from exc
    return SuiteConfig(**values)


def _load_model(path, vocab: Vocabulary):
    """The backoff or class model in ``path``, checked against ``vocab``."""
    magic = read_magic(path)
    if magic == BACKOFF_MAGIC:
        model = BackoffModel.load(path)
    elif magic == CLASSMODEL_MAGIC:
        model = ClassModel.load(path)
    else:
        raise ConfigError(f"{path}: unrecognized model file")
    if model.vocab_md5 and model.vocab_md5 != vocab.checksum():
        raise VocabMismatchError(f"{path}: model was trained on a different vocabulary")
    if model.vocab_size != len(vocab):
        raise VocabMismatchError(f"{path}: vocabulary size mismatch")
    return model


def _save_run(args, vocab: Vocabulary, result) -> None:
    """The applied moves of an exchange run, one line each (``--trace``), and
    the clusters it ended with (``--clusters-out``).  Callers save the model
    after these, so that a run that fails here leaves no model behind."""
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            fh.writelines("%d %d %s %d %d %r %r\n" % move for move in result.moves)
    if args.clusters_out:
        meta = {"iteration": len(result.iterations), "score": result.score}
        if result.lam is not None:
            meta["lambda"] = result.lam
        save_clusters(args.clusters_out, vocab, result.cluster_map, metadata=meta)


def cmd_vocab(args, cfg: SuiteConfig) -> int:
    adapt, back = args.adaptation or [], args.background or []
    if not adapt and not back:
        raise ConfigError("need at least one of --adaptation/--background")
    vocab = build_vocabulary(adapt, back, cfg.vocab_size)
    vocab.save(args.out)
    print(f"wrote {len(vocab)} words to {args.out}")
    return 0


def cmd_counts(args, cfg: SuiteConfig) -> int:
    vocab = Vocabulary.load(args.vocab)
    table = count_events(args.corpus, vocab)
    table.save(args.out, vocab_md5=vocab.checksum())
    n_bigrams = len(table.cells()[2])
    print(f"wrote {n_bigrams} bigrams ({table.total_tokens} events) to {args.out}")
    return 0


def cmd_train(args, cfg: SuiteConfig) -> int:
    vocab = Vocabulary.load(args.vocab)
    counts = CountTable.load(args.counts, vocab)
    if args.method in ("back_bo", "adapt_bo"):
        model = train_backoff_model(counts, vocab, cfg)
        model.save(args.out)
        print(f"trained {args.method} model (b={model.b:.4f}) -> {args.out}")
        return 0
    notes: list[str] = []
    model, result = train_class_model(counts, vocab, cfg.clusters, cfg, args.method, notes)
    sys.stderr.writelines(f"note: {note}\n" for note in notes)
    _save_run(args, vocab, result)
    model.save(args.out)
    print(
        f"trained {args.method} model in {len(result.iterations)} iterations "
        f"(score {result.score:.4f}) -> {args.out}"
    )
    return 0


def cmd_adapt(args, cfg: SuiteConfig) -> int:
    vocab = Vocabulary.load(args.vocab)
    adapt_counts = CountTable.load(args.counts, vocab)
    if args.method == "fillup":
        if not args.model:
            raise ConfigError("fillup needs --model (background model)")
        background = _load_model(args.model, vocab)
        if not isinstance(background, BackoffModel):
            raise ConfigError("fillup adapts a backoff model")
        fillup_model(adapt_counts, background, cfg).save(args.out)
        print(f"fillup model -> {args.out}")
        return 0
    if not args.back_counts or not args.init_clusters:
        raise ConfigError("clust_adapt needs --back-counts and --init-clusters")
    back_counts = CountTable.load(args.back_counts, vocab)
    init, _ = load_clusters(args.init_clusters, vocab)
    model, result = adapt_class_model(adapt_counts, back_counts, init, vocab, cfg)
    _save_run(args, vocab, result)
    model.save(args.out)
    print(
        f"adapted model (lambda {result.lam:.2f}, "
        f"{len(result.iterations)} iterations) -> {args.out}"
    )
    return 0


def cmd_eval(args, cfg: SuiteConfig) -> int:
    vocab = Vocabulary.load(args.vocab)
    model = _load_model(args.model, vocab)
    label = getattr(model, "label", None) or getattr(model, "kind", "model")
    report = perplexity(
        model.probs, args.heldout, vocab,
        score_oov=args.score_oov,
        model_id=args.model_id or label,
        vocab_md5=vocab.checksum(),
    )
    line = (
        f"{report.model_id}: PP {report.perplexity:.3f} "
        f"({report.tokens_scored} tokens, {100 * report.oov_rate:.2f}% OOV)"
    )
    print(line)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report.__dict__, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


# Record fields the report reads, each with the types it accepts.
REPORT_FIELDS = {
    "model_id": str, "perplexity": (int, float), "oov_rate": (int, float),
    "tokens_scored": (int, float), "size": (int, float, type(None)),
}


def read_records(path) -> list[dict]:
    """Evaluation records of a JSON file: one record, a list of them, or
    ``{"records": [...]}`` as the suite writes it."""
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: not valid JSON ({exc})") from None
    if isinstance(payload, dict):
        payload = payload["records"] if "records" in payload else [payload]
    if not isinstance(payload, list) or not all(isinstance(r, dict) for r in payload):
        raise FormatError(f"{path}: expected a record or a list of records")
    for record in payload:
        for key, types in REPORT_FIELDS.items():
            if key in record and not isinstance(record[key], types):
                raise FormatError(f"{path}: bad {key} {record[key]!r} in a record")
    return payload


def cmd_report(args, cfg: SuiteConfig) -> int:
    rows = [r for path in args.records for r in read_records(path)]
    if not rows:
        raise ConfigError("no evaluation records given")
    rows.sort(key=lambda r: (str(r.get("model_id", "")), r.get("size") or 0))
    lines = [f"{'model':<24} {'PP':>12} {'OOV%':>7} {'tokens':>9}"]
    for r in rows:
        lines.append(
            f"{r.get('model_id', '?'):<24} {r.get('perplexity', float('nan')):>12.3f} "
            f"{100 * r.get('oov_rate', 0.0):>6.2f}% {r.get('tokens_scored', 0):>9}"
        )
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clusterlm",
        description="class bigram language models with exchange clustering",
    )
    parser.add_argument("--config", help="key=value settings file")
    parser.add_argument("--verbose", action="store_true", help="log progress")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("vocab", help="build a vocabulary from corpora")
    p.add_argument("--adaptation", help="adaptation corpus (takes priority)")
    p.add_argument("--background", help="background corpus")
    p.add_argument("--vocab-size")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_vocab)

    p = sub.add_parser("counts", help="count bigram events")
    p.add_argument("--vocab", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_counts)

    p = sub.add_parser("train", help="train a model from counts")
    p.add_argument(
        "--method", required=True,
        choices=["back_bo", "back_cl", "adapt_bo", "adapt_cl"],
    )
    p.add_argument("--vocab", required=True)
    p.add_argument("--counts", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--clusters")
    p.add_argument("--cutoff")
    p.add_argument("--discount")
    p.add_argument("--max-iterations")
    p.add_argument("--clusters-out")
    p.add_argument("--trace")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("adapt", help="adapt a background model")
    p.add_argument("--method", required=True, choices=["fillup", "clust_adapt"])
    p.add_argument("--vocab", required=True)
    p.add_argument("--counts", required=True, help="adaptation counts")
    p.add_argument("--model", help="background backoff model (fillup)")
    p.add_argument("--back-counts")
    p.add_argument("--init-clusters")
    p.add_argument("--out", required=True)
    p.add_argument("--discount")
    p.add_argument("--max-iterations")
    p.add_argument("--lambda-grid")
    p.add_argument("--clusters-out")
    p.add_argument("--trace")
    p.set_defaults(func=cmd_adapt)

    p = sub.add_parser("eval", help="perplexity on held-out text")
    p.add_argument("--model", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--heldout", required=True)
    p.add_argument("--score-oov", action="store_true")
    p.add_argument("--model-id")
    p.add_argument("--out", help="write the report as JSON")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("report", help="tabulate evaluation records")
    p.add_argument("records", nargs="+")
    p.add_argument("--out")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.verbose:
        logging.basicConfig(level=logging.INFO, format="%(message)s")
    try:
        config = read_config(args.config) if args.config else {}
        return args.func(args, suite_config(args, config))
    except (ClusterLMError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
