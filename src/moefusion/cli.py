"""Command-line entry points.

Exit codes: 0 success; 1 the argument parser rejects the arguments: an
unknown or missing flag, or a value its flag's type refuses (each check of
a flag value is in that type); 2 everything after parsing: a value that
parses but fails validation further in (a ConfigError such as
`flops --dim 100`), missing or corrupt inputs, numeric divergence. All
subcommands are deterministic for a fixed --seed.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .accounting import count_params_flops
from .adafactor import LR_SCHEDULES, AdafactorHyper
from .checkpoint import load_checkpoint
from .fusion import (
    CheckpointLmScorer, FusionConfig, decode_utterances, read_decodes, write_decodes,
)
from .model import MoeLmConfig
from .synthetic import ENTITIES, gen_synthetic
from .tokenizer import Vocab, encode, read_corpus, train_wordpiece
from .trainer import train
from .wer import aggregate, emit_report, read_utt_file, report_from_json, wer

__all__ = ["main", "build_parser"]


def _at_least(low, cast=int):
    """argparse type: a finite cast(text) no smaller than low, so a bad value
    is a usage error naming its flag before anything is written."""
    def parse(text: str):
        try:
            value = cast(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {cast.__name__} value: {text!r}") from None
        if not low <= value < math.inf:
            raise argparse.ArgumentTypeError(f"must be finite and >= {low:g}, got {text!r}")
        return value
    return parse


def _lambda(text: str) -> float:
    """argparse type of a fusion weight: _at_least(0.0, float), with -0 read as 0."""
    return _at_least(0.0, float)(text) + 0.0


def _lambdas(text: str) -> list[float]:
    """argparse type of --values: comma-separated lambdas, each a _lambda,
    no two of one name (the `:g` form names a sweep's files and rows)."""
    values = [_lambda(item) for item in text.split(",")]
    names = [f"{lam:g}" for lam in values]
    for i, name in enumerate(names):
        if name in names[:i]:
            raise argparse.ArgumentTypeError(f"lists lambda {name} twice")
    return values


def _require_file(path: str, what: str) -> Path:
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"{what} not found: {p}")
    return p


def cmd_train_tokenizer(args) -> int:
    manifest = _require_file(args.manifest, "corpus manifest")
    sentences = [s for _, s in read_corpus(manifest)]
    vocab = train_wordpiece(sentences, args.vocab_size)
    vocab.save(args.output)
    print(f"wrote {vocab.size}-piece vocab to {args.output}")
    return 0


# train-lm settings: key -> (argparse type, default), each the flag --key
# (dashed); bool is a switch. max_seq_len >= 3 fits BOS, a token and EOS.
_TRAIN_SETTINGS = {
    "layers": (int, 2), "dim": (int, 64), "heads": (int, 2), "head_dim": (int, 32),
    "ffn_mult": (int, 4), "experts": (int, 4), "experts_per_token": (int, 2),
    "max_seq_len": (_at_least(3), 128), "aux_loss_weight": (float, 0.01),
    "untied": (bool, False), "lr": (float, 0.05), "warmup": (int, 100),
    "lr_schedule": (str, "inverse_sqrt"), "steps": (_at_least(1), 200),
    "batch_size": (_at_least(1), 8), "packing_factor": (_at_least(1), 4),
}
# Model-dimension flag (argparse dest) -> MoeLmConfig field, for train-lm and flops.
_MODEL_FLAGS = {
    "layers": "num_layers", "dim": "model_dim", "heads": "num_heads", "head_dim": "head_dim",
    "ffn_mult": "ffn_multiplier", "experts": "num_experts",
    "experts_per_token": "experts_per_token", "max_seq_len": "max_seq_len",
}


def cmd_train_lm(args) -> int:
    manifest = _require_file(args.manifest, "corpus manifest")
    vocab = Vocab.load(_require_file(args.vocab, "vocab file"))
    config = MoeLmConfig(
        vocab_size=vocab.size, aux_loss_weight=args.aux_loss_weight,
        tied_embeddings=not args.untied,
        **{field: getattr(args, key) for key, field in _MODEL_FLAGS.items()},
    )
    hyper = AdafactorHyper(learning_rate=args.lr, warmup_steps=args.warmup,
                           lr_schedule=args.lr_schedule)

    sentences = [encode(text, vocab) for _, text in read_corpus(manifest)]
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ckpt, log = train(
        sentences, config, hyper, steps=args.steps, seed=args.seed,
        batch_size=args.batch_size, packing_factor=args.packing_factor,
        checkpoint_dir=out_dir,
    )
    log.write_csv(out_dir / "train_log.csv")
    first, last = log.steps[0], log.steps[-1]
    print(f"trained {last.step} steps: loss {first.loss:.4f} -> {last.loss:.4f}"
          + (" (plateau stop)" if log.stopped_early else ""))
    print(f"checkpoint written to {out_dir}")
    return 0


def cmd_decode(args) -> int:
    vocab = Vocab.load(_require_file(args.vocab, "vocab file"))
    lattice_dir = _require_file(args.lattice_dir, "lattice directory")
    lm = CheckpointLmScorer(load_checkpoint(_require_file(args.lm, "LM checkpoint"))) \
        if args.lm else None
    config = FusionConfig(
        lam=args.lam, beam_size=args.beam, max_len=args.max_len,
        length_normalize=args.length_normalize,
    )
    (rows,) = decode_utterances(lattice_dir, lm, [config], vocab)
    write_decodes(rows, args.output)
    print(f"decoded {len(rows)} utterances to {args.output}")
    return 0


def _read_hyps(path: Path) -> dict[str, str]:
    """utt_id -> text from a 3-column utt file or a 5-column decode file.

    The format is told by the tab count of the first non-blank line, read
    from the raw bytes, so only the chosen reader decodes the file.
    """
    first = next((ln for ln in path.read_bytes().splitlines() if ln.strip()), b"")
    if first.count(b"\t") == 4:
        return {row.utt_id: row.text for row in read_decodes(path)}
    return {utt: text for utt, (_, text) in read_utt_file(path).items()}


def _read_refs(path: Path) -> dict[str, tuple[str, str]]:
    """read_utt_file of a reference file, in which every text has a word."""
    refs = read_utt_file(path)
    empty = next((utt for utt, (_, text) in refs.items() if not text.split()), None)
    if empty is not None:
        raise ValueError(f"{path}: reference {empty!r} has no words")
    return refs


def _check_ids(refs: dict[str, tuple[str, str]], utt_ids: list[str]) -> None:
    """Fail unless utt_ids name exactly refs' utterances; missing ids first."""
    missing = sorted(set(refs) - set(utt_ids))
    if missing:
        raise ValueError(f"hypotheses missing for {len(missing)} utterances, "
                         f"first: {missing[0]!r}")
    unknown = [utt for utt in utt_ids if utt not in refs]
    if unknown:
        raise ValueError(f"hypothesis for unknown utterance {unknown[0]!r}")


def _evaluate(refs: dict[str, tuple[str, str]], hyps: dict[str, str]):
    """Per-locale WER breakdowns of hyps (utt_id -> text) against refs
    (utt_id -> (locale, text))."""
    _check_ids(refs, sorted(hyps))
    per_locale: dict[str, list] = {}
    for utt in sorted(refs):
        locale, ref_text = refs[utt]
        per_locale.setdefault(locale, []).append(wer(ref_text, hyps[utt]))
    return per_locale


def cmd_evaluate(args) -> int:
    refs_path = _require_file(args.refs, "reference file")
    hyps_path = _require_file(args.hyps, "hypothesis file")
    refs = _read_refs(refs_path)
    per_locale = _evaluate(refs, _read_hyps(hyps_path))
    baseline = None
    if args.baseline:
        base_report = report_from_json(_require_file(args.baseline, "baseline report"))
        baseline = {loc: e.wer for loc, e in base_report.locales.items()}
    report = aggregate(per_locale, baseline=baseline,
                       baseline_name=args.baseline_name)
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    emit_report(report, out_dir)
    for loc in sorted(report.locales):
        e = report.locales[loc]
        extra = f"  (baseline {e.baseline_wer:.4f}, werr {e.werr:+.2%})" \
            if e.werr is not None else ""
        print(f"{loc}: wer {e.wer:.4f}{extra}")
    print(f"macro avg {report.macro_avg_wer:.4f}, micro avg {report.micro_avg_wer:.4f}")
    if report.improved is not None:
        print(f"improved {report.improved}, tied {report.tied}, "
              f"regressed {report.regressed}")
    return 0


def cmd_flops(args) -> int:
    config = MoeLmConfig(vocab_size=args.vocab_size,
                         **{field: getattr(args, key) for key, field in _MODEL_FLAGS.items()})
    report = count_params_flops(config, context_len=args.context_len)
    for line in report.lines():
        print(line)
    return 0


def cmd_sweep_lambda(args) -> int:
    vocab = Vocab.load(_require_file(args.vocab, "vocab file"))
    lattice_dir = _require_file(args.lattice_dir, "lattice directory")
    refs = _read_refs(_require_file(args.refs, "reference file"))
    lm = CheckpointLmScorer(load_checkpoint(_require_file(args.lm, "LM checkpoint")))
    configs = [FusionConfig(lam=lam, beam_size=args.beam, max_len=args.max_len)
               for lam in args.values]
    decodes = decode_utterances(lattice_dir, lm, configs, vocab,
                                check_ids=lambda ids: _check_ids(refs, ids))
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = ["lambda,macro_wer,micro_wer"]
    best = None
    for lam, rows in zip(args.values, decodes):
        write_decodes(rows, out_dir / f"decodes_lambda{lam:g}.tsv")
        per_locale = _evaluate(refs, {row.utt_id: row.text for row in rows})
        report = aggregate(per_locale)
        lines.append(f"{lam:g},{report.macro_avg_wer:.17g},{report.micro_avg_wer:.17g}")
        print(f"lambda {lam:g}: macro wer {report.macro_avg_wer:.4f}, "
              f"micro wer {report.micro_avg_wer:.4f}")
        if best is None or report.micro_avg_wer < best[1]:
            best = (lam, report.micro_avg_wer)
    (out_dir / "sweep.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"best lambda {best[0]:g} (micro wer {best[1]:.4f})")
    return 0


def cmd_gen_synthetic(args) -> int:
    paths = gen_synthetic(
        args.output_dir, seed=args.seed,
        sentences_per_locale=args.sentences,
        eval_per_locale=args.eval_utts,
        vocab_size=args.vocab_size,
    )
    print(f"synthetic task written under {paths.root}")
    print(f"  LM manifest:        {paths.lm_manifest}")
    print(f"  tokenizer manifest: {paths.tokenizer_manifest}")
    print(f"  vocab:              {paths.vocab}")
    print(f"  references:         {paths.refs}")
    print(f"  lattices:           {paths.lattice_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moefusion",
        description="Sparse MoE language model with shallow-fusion decoding.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train-tokenizer", help="induce a wordpiece vocab")
    p.add_argument("--manifest", required=True)
    p.add_argument("--vocab-size", type=_at_least(5), required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_train_tokenizer)

    p = sub.add_parser("train-lm", help="train the MoE language model")
    p.add_argument("--manifest", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--output-dir", required=True)
    p.add_argument("--seed", type=_at_least(0), default=0)
    for key, (typ, default) in _TRAIN_SETTINGS.items():
        flag = "--" + key.replace("_", "-")
        if typ is bool:
            p.add_argument(flag, action="store_true", default=default)
        else:
            p.add_argument(flag, type=typ, default=default,
                           choices=LR_SCHEDULES if key == "lr_schedule" else None)
    p.set_defaults(func=cmd_train_lm)

    p = sub.add_parser("decode", help="shallow-fusion beam decode lattices")
    p.add_argument("--lattice-dir", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--lm", help="LM checkpoint directory (omit for no LM)")
    p.add_argument("--lambda", dest="lam", type=_lambda, required=True)
    p.add_argument("--beam", type=_at_least(1), default=8)
    p.add_argument("--max-len", type=_at_least(0), default=None)
    p.add_argument("--length-normalize", action="store_true")
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("evaluate", help="score hypotheses against references")
    p.add_argument("--refs", required=True)
    p.add_argument("--hyps", required=True)
    p.add_argument("--output-dir", required=True)
    p.add_argument("--baseline", help="baseline report.json for WERR")
    p.add_argument("--baseline-name", default="baseline")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("flops", help="closed-form parameter and FLOP report")
    full_scale = MoeLmConfig()
    for key, field in {**_MODEL_FLAGS, "vocab_size": "vocab_size"}.items():
        p.add_argument("--" + key.replace("_", "-"), type=int, default=getattr(full_scale, field))
    p.add_argument("--context-len", type=int, default=None)
    p.set_defaults(func=cmd_flops)

    p = sub.add_parser("sweep-lambda", help="decode+evaluate across LM weights")
    p.add_argument("--lattice-dir", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--lm", required=True)
    p.add_argument("--refs", required=True)
    p.add_argument("--values", type=_lambdas, required=True,
                   help="comma-separated lambdas, e.g. 0,0.1,0.2,0.3")
    p.add_argument("--beam", type=_at_least(1), default=8)
    p.add_argument("--max-len", type=_at_least(0), default=None)
    p.add_argument("--output-dir", required=True)
    p.set_defaults(func=cmd_sweep_lambda)

    p = sub.add_parser("gen-synthetic", help="write the synthetic decoding task")
    p.add_argument("--output-dir", required=True)
    p.add_argument("--seed", type=_at_least(0), default=0)
    # Each entity must occur in the LM text to become a single piece.
    p.add_argument("--sentences", type=_at_least(min(map(len, ENTITIES.values()))),
                   default=400, help="LM sentences per locale")
    p.add_argument("--eval-utts", type=_at_least(1), default=30)
    p.add_argument("--vocab-size", type=int, default=512)
    p.set_defaults(func=cmd_gen_synthetic)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except BrokenPipeError:
        return 2
    except Exception as exc:  # runtime failures map to exit 2
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
