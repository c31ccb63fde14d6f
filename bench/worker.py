"""One process of a benchmark run: the set-up, or the timed pass, of a workload.

    python3 bench/worker.py setup --workload W --seed N --dir D --repeats K --trace T
    python3 bench/worker.py timed --workload W --seed N --dir D --seconds S --trace T

Every program step goes through the command-line entry point
`moefusion.cli.main`, called in this process. The result is written as JSON
to D/<mode>.json. run.py starts this file with src/ on PYTHONPATH and the
BLAS thread count fixed in the environment.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

import moefusion.cli as cli
from moefusion import autodiff, fusion, model, synthetic, trainer
from moefusion.accounting import count_params_flops
from moefusion.adafactor import adafactor_step
from moefusion.model import init_params
from moefusion.packing import pack_batches
from moefusion.tokenizer import EOS_ID, Vocab, encode, read_corpus

import checks
from spans import Tracer

# Inputs of every workload come from gen-synthetic at the run's seed. Ten
# evaluation utterances per locale keep one sweep pass near two seconds.
EVAL_UTTS = 10
# The fusion LM of decode and sweep: the tests' config (d=32, L=2, E=4).
FUSION_LM_FLAGS = ["--layers", "2", "--dim", "32", "--heads", "2", "--head-dim", "16",
                   "--experts", "4", "--experts-per-token", "2", "--max-seq-len", "64",
                   "--steps", "40", "--warmup", "50"]
# The larger training config; one pass is TRAIN_STEPS steps from scratch.
TRAIN_STEPS = 8
TRAIN_FLAGS = ["--layers", "4", "--dim", "128", "--heads", "4", "--head-dim", "32",
               "--experts", "16", "--experts-per-token", "2", "--max-seq-len", "64",
               "--batch-size", "8", "--packing-factor", "4",
               "--steps", str(TRAIN_STEPS), "--warmup", "100"]
DECODE_LAMBDA = "0.3"
SWEEP_LAMBDAS = "0,0.1,0.2,0.3,0.4,0.5"
BEAM = "8"
# decode lattices: DECODE_UTTS transcripts of 10 to DECODE_MAX_PIECES pieces.
# The LM sees BOS plus up to DECODE_MAX_PIECES tokens, under its 64.
DECODE_UTTS = 16
DECODE_MIN_PIECES = 10
DECODE_MAX_PIECES = 60
AMBIGUOUS_ROW_SHARE = 0.1

AUTODIFF_OPS = ("matmul", "gelu", "softmax", "log_softmax", "add", "mul",
                "take_rows", "gather_pairs", "scatter_add_rows")
# Per-layer metrics of the traced mode and their units; a layer the workload
# does not run reads 0.
PER_LAYER = {
    "trainer.step_ms": "ms", "model.build_forward_ms": "ms",
    "autodiff.backward_ms": "ms", "adafactor.step_ms": "ms",
    **{f"autodiff.{op}_ms": "ms" for op in AUTODIFF_OPS},
    "autodiff.nodes_per_step": "count", "autodiff.step_peak_mb": "MB",
    "accounting.fwd_gflop_per_step": "GFLOP", "model.fwd_gflop_per_s": "GFLOP/s",
    "packing.pack_ms": "ms", "tokenizer.encode_ms": "ms", "checkpoint.save_ms": "ms",
    "model.lm_score_step_calls": "count", "model.lm_score_step_us": "us",
    "model.positional_table_calls": "count", "model.gate_topk_us": "us",
    "model.kv_bytes_copied": "bytes",
    "fusion.utt_ms_p50": "ms", "fusion.search_self_ms": "ms",
    "fusion.lm_calls_per_utt": "count", "fusion.lm_unique_prefix_ratio": "ratio",
    "fusion.load_lattice_ms": "ms", "fusion.lattice_check_ms": "ms",
    "checkpoint.load_ms": "ms",
    "wer.wer_calls": "count", "wer.wer_ms": "ms", "wer.aggregate_ms": "ms",
    "synthetic.gen_s": "s", "tokenizer.train_wordpiece_s": "s", "trainer.setup_train_s": "s",
    "trace.tok_per_s": "1/s",
}


def run_cli(argv: list[str], log: Path) -> int:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli.main([str(a) for a in argv])
    with open(log, "a", encoding="utf-8") as fh:
        fh.write(f"$ moefusion {' '.join(map(str, argv))}\n{out.getvalue()}exit {code}\n")
    return code


def checked_cli(argv, log: Path) -> None:
    if run_cli(argv, log) != 0:
        raise RuntimeError(f"moefusion {argv[0]} failed; see {log}")


# --- inputs -----------------------------------------------------------------

def _decode_words() -> list[str]:
    words = {w for t in synthetic.TEMPLATES for w in t.split() if w != "{e}"}
    for ents in synthetic.ENTITIES.values():
        words.update(ents)
    return sorted(words)


def _lattice_rows(ids: list[int], vocab_size: int, rng) -> np.ndarray:
    """Truth-dominant rows; on a share of them a random rival piece comes close."""
    rows = np.empty((len(ids) + 1, vocab_size))
    for t, tok in enumerate(ids + [None]):
        p = np.zeros(vocab_size)
        if tok is None:
            p[EOS_ID] = 0.97
        else:
            if rng.random() < AMBIGUOUS_ROW_SHARE:
                rival = int(rng.integers(4, vocab_size - 1))
                rival += rival >= tok
                p[tok], p[rival] = 0.50, 0.35
            else:
                p[tok] = 0.88
            p[EOS_ID] = 1e-8
        rest = p == 0.0
        p[rest] = (1.0 - p.sum()) / rest.sum()
        rows[t] = np.log(p)
    return rows.astype(np.float32)


def build_decode_inputs(vocab_path: Path, out: Path, seed: int) -> None:
    """Binary lattices plus decode_refs.tsv (utt, text, piece ids).

    Lengths rise evenly from DECODE_MIN_PIECES to DECODE_MAX_PIECES pieces and
    no two transcripts share their first two words, so beam hypotheses share
    prefixes within an utterance but not across utterances.
    """
    vocab = Vocab.load(vocab_path)
    words = _decode_words()
    # encode() splits on spaces and encodes word by word, so a word's piece
    # count after the first word is fixed; lengths can be hit exactly.
    mid_pieces = {w: len(encode(f"a {w}", vocab).ids) - len(encode("a", vocab).ids)
                  for w in words}
    rng = np.random.default_rng([seed, 0xDEC0])
    lat_dir = out / "lattices"
    lat_dir.mkdir(parents=True)
    heads: set[tuple[str, str]] = set()
    refs = []
    for i in range(DECODE_UTTS):
        target = DECODE_MIN_PIECES + round(
            i * (DECODE_MAX_PIECES - DECODE_MIN_PIECES) / (DECODE_UTTS - 1))
        head = None
        while head is None or head in heads:
            head = tuple(words[j] for j in rng.integers(len(words), size=2))
        heads.add(head)
        text = " ".join(head)
        n = len(encode(text, vocab).ids)
        while n < target:
            fits = [w for w in words if mid_pieces[w] <= target - n]
            word = fits[int(rng.integers(len(fits)))]
            text, n = f"{text} {word}", n + mid_pieces[word]
        ids = encode(text, vocab).ids
        if len(ids) != target:
            raise RuntimeError(f"transcript {text!r} has {len(ids)} pieces, wanted {target}")
        checks.write_binary_lattice(lat_dir / f"utt{i:03d}.lat",
                                    _lattice_rows(ids, vocab.size, rng))
        refs.append(f"utt{i:03d}\t{text}\t{' '.join(map(str, ids))}")
    (out / "decode_refs.tsv").write_text("\n".join(refs) + "\n", encoding="utf-8")


def setup_once(workload: str, seed: int, d: Path, log: Path) -> None:
    task = d / "task"
    checked_cli(["gen-synthetic", "--output-dir", task, "--seed", seed,
                 "--eval-utts", EVAL_UTTS], log)
    if workload in ("decode", "sweep"):
        checked_cli(["train-lm", "--manifest", task / "lm_manifest.tsv",
                     "--vocab", task / "vocab.wpv", "--output-dir", d / "lm",
                     "--seed", seed, *FUSION_LM_FLAGS], log)
    if workload == "decode":
        build_decode_inputs(task / "vocab.wpv", d / "decode", seed)


def timed_plan(workload: str, seed: int, d: Path):
    """(argv, work units per pass, operations per pass, outputs to digest)."""
    s, out = d / "setup", d / "out"
    task = s / "task"
    out.mkdir(exist_ok=True)
    if workload == "train":
        argv = ["train-lm", "--manifest", task / "lm_manifest.tsv",
                "--vocab", task / "vocab.wpv", "--output-dir", out / "lm",
                "--seed", seed, *TRAIN_FLAGS]
        # Live loss positions of the steps one pass runs. The trainer packs
        # epoch 0 with seed*1000 and takes its batches in order.
        vocab = Vocab.load(task / "vocab.wpv")
        sentences = [encode(t, vocab) for _, t in read_corpus(task / "lm_manifest.tsv")]
        batches, _ = pack_batches(sentences, max_seq_len=64, batch_size=8,
                                  packing_factor=4, seed=seed * 1000)
        if len(batches) < TRAIN_STEPS:
            raise RuntimeError("corpus too small for one pass within epoch 0")
        units = int(sum(b.loss_mask.sum() for b in batches[:TRAIN_STEPS]))
        return argv, units, TRAIN_STEPS, [out / "lm" / "manifest.json", out / "lm" / "weights.bin"]
    if workload == "decode":
        lat_dir = s / "decode" / "lattices"
        argv = ["decode", "--lattice-dir", lat_dir, "--vocab", task / "vocab.wpv",
                "--lm", s / "lm", "--lambda", DECODE_LAMBDA, "--beam", BEAM,
                "--output", out / "decode.tsv"]
        paths = sorted(lat_dir.glob("*.lat"))
        rows = sum(checks.read_binary_lattice(p).shape[0] for p in paths)
        return argv, rows, len(paths), [out / "decode.tsv"]
    lambdas = SWEEP_LAMBDAS.split(",")
    argv = ["sweep-lambda", "--lattice-dir", task / "lattices", "--vocab", task / "vocab.wpv",
            "--lm", s / "lm", "--refs", task / "refs.tsv", "--values", SWEEP_LAMBDAS,
            "--beam", BEAM, "--output-dir", out / "sweep"]
    paths = sorted((task / "lattices").glob("*.lat"))
    rows = sum(checks.read_text_lattice(p).shape[0] for p in paths)
    outputs = [out / "sweep" / "sweep.csv"] + [
        out / "sweep" / f"decodes_lambda{float(x):g}.tsv" for x in lambdas]
    return argv, rows * len(lambdas), len(paths) * len(lambdas), outputs


def digest(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes())
    return h.hexdigest()


# --- tracing ----------------------------------------------------------------

def _count_nodes(root) -> int:
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def _lm_step_info(args, out, info):
    """(prefix scored, KV bytes the step wrote) for one lm_score_step call."""
    state, token = args[2], args[3]
    prefix = getattr(state, "_bench_prefix", ()) + (int(token),)
    new_state = out[0]
    new_state._bench_prefix = prefix
    kv = sum(k.nbytes + v.nbytes for k, v in zip(new_state.keys, new_state.values))
    return prefix, kv


def install(tracer: Tracer) -> None:
    w = tracer.wrap
    # Training: a step runs from the loss call to the end of the optimizer step.
    w(trainer, "batch_loss", "trainer.batch_loss", counter="step")
    w(trainer, "build_forward", "model.build_forward",
      after=lambda a, out, info: (a[2], np.asarray(a[1]).shape))
    w(autodiff, "backward", "autodiff.backward", before=lambda a, k: _count_nodes(a[0]))
    w(trainer, "adafactor_step", "adafactor.step")
    for op in AUTODIFF_OPS:
        w(autodiff, op, f"autodiff.{op}")
    w(trainer, "pack_batches", "packing.pack")
    w(cli, "encode", "tokenizer.encode")
    w(trainer, "save_checkpoint", "checkpoint.save")
    w(cli, "train", "trainer.train", before=lambda a, k: (a, k))
    # Decoding and scoring.
    w(fusion, "beam_search_fusion", "fusion.search", counter="utt")
    w(fusion, "lm_score_step", "model.lm_score_step", after=_lm_step_info)
    w(model, "positional_table", "model.positional_table")
    w(model, "gate_topk", "model.gate_topk")
    w(fusion, "load_lattice", "fusion.load_lattice")
    w(fusion, "LatticeSource", "fusion.lattice_check")
    w(cli, "load_checkpoint", "checkpoint.load")
    w(cli, "wer", "wer.wer")
    w(cli, "aggregate", "wer.aggregate")
    # Set-up.
    w(cli, "gen_synthetic", "synthetic.gen")
    w(synthetic, "train_wordpiece", "tokenizer.train_wordpiece")


def _median(xs) -> float:
    xs = list(xs)
    return float(statistics.median(xs)) if xs else 0.0


def _per_round(tracer: Tracer, name: str) -> list[float]:
    sums: dict[int, float] = {}
    for s in tracer.named(name):
        sums[s.round] = sums.get(s.round, 0.0) + s.dur
    return list(sums.values())


def step_peak_mb(train_call) -> float:
    """tracemalloc peak of one training step (loss, backward, optimizer)."""
    (sentences, config, hyper), kw = train_call
    batches, _ = pack_batches(sentences, max_seq_len=config.max_seq_len,
                              batch_size=kw["batch_size"],
                              packing_factor=kw["packing_factor"], seed=kw["seed"] * 1000)
    params = init_params(config, kw["seed"])
    tracemalloc.start()
    try:
        var_params = {n: autodiff.Var(v) for n, v in params.items()}
        loss, _ = trainer.batch_loss(var_params, batches[0], config)
        autodiff.backward(loss)
        grads = {n: v.grad if v.grad is not None else np.zeros_like(v.value)
                 for n, v in var_params.items()}
        adafactor_step(params, grads, 1, hyper)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 1e6


def training_metrics(tracer: Tracer) -> dict[str, float]:
    starts = {s.step: s.start for s in tracer.named("trainer.batch_loss")}
    if not starts:
        return {}
    ends = {s.step: s.end for s in tracer.named("adafactor.step")}
    ms = lambda name: 1e3 * _median(s.dur for s in tracer.named(name))  # noqa: E731
    m = {
        "trainer.step_ms": 1e3 * _median(ends[k] - starts[k] for k in starts if k in ends),
        "model.build_forward_ms": ms("model.build_forward"),
        "autodiff.backward_ms": ms("autodiff.backward"),
        "adafactor.step_ms": ms("adafactor.step"),
        "autodiff.nodes_per_step": _median(s.info for s in tracer.named("autodiff.backward")),
    }
    for op in AUTODIFF_OPS:
        per_step = dict.fromkeys(starts, 0.0)
        for s in tracer.named(f"autodiff.{op}"):
            if s.step in per_step:
                per_step[s.step] += s.self_s
        m[f"autodiff.{op}_ms"] = 1e3 * _median(per_step.values())
    forwards = tracer.named("model.build_forward")
    config, (b, t) = forwards[0].info
    gflop = count_params_flops(config, context_len=t).total_flops * b * t / 1e9
    m["accounting.fwd_gflop_per_step"] = gflop
    m["model.fwd_gflop_per_s"] = gflop / _median(s.dur for s in forwards)
    for name, key in (("packing.pack", "packing.pack_ms"),
                      ("tokenizer.encode", "tokenizer.encode_ms"),
                      ("checkpoint.save", "checkpoint.save_ms")):
        m[key] = 1e3 * _median(_per_round(tracer, name))
    return m


def decoding_metrics(tracer: Tracer) -> dict[str, float]:
    searches = tracer.named("fusion.search")
    if not searches:
        return {}
    first = searches[0].round  # every pass repeats the same calls
    in_first = lambda name: [s for s in tracer.named(name) if s.round == first]  # noqa: E731
    mean_us = lambda name: 1e6 * float(np.mean([s.dur for s in tracer.named(name)]))  # noqa: E731
    lm = in_first("model.lm_score_step")
    utts = in_first("fusion.search")
    m = {
        "model.lm_score_step_calls": len(lm),
        "model.lm_score_step_us": mean_us("model.lm_score_step"),
        "model.positional_table_calls": len(in_first("model.positional_table")),
        "model.gate_topk_us": mean_us("model.gate_topk"),
        "model.kv_bytes_copied": sum(s.info[1] for s in lm),
        "fusion.utt_ms_p50": 1e3 * _median(s.dur for s in searches),
        "fusion.search_self_ms": 1e3 * _median(s.self_s for s in searches),
        "fusion.lm_calls_per_utt": len(lm) / len(utts),
        "fusion.lm_unique_prefix_ratio": len({s.info[0] for s in lm}) / len(lm),
        "fusion.load_lattice_ms": 1e3 * _median(_per_round(tracer, "fusion.load_lattice")),
        "fusion.lattice_check_ms": 1e3 * _median(_per_round(tracer, "fusion.lattice_check")),
        "checkpoint.load_ms": 1e3 * _median(_per_round(tracer, "checkpoint.load")),
    }
    if tracer.named("wer.wer"):
        m["wer.wer_calls"] = len(in_first("wer.wer"))
        m["wer.wer_ms"] = 1e3 * _median(_per_round(tracer, "wer.wer"))
        m["wer.aggregate_ms"] = 1e3 * _median(_per_round(tracer, "wer.aggregate"))
    return m


def layer_metrics(tracer: Tracer, mode: str) -> dict[str, float]:
    m = training_metrics(tracer)
    m.update(decoding_metrics(tracer))
    if mode == "setup":
        m["synthetic.gen_s"] = _median(_per_round(tracer, "synthetic.gen"))
        m["tokenizer.train_wordpiece_s"] = _median(_per_round(tracer, "tokenizer.train_wordpiece"))
        m["trainer.setup_train_s"] = _median(_per_round(tracer, "trainer.train"))
    train_calls = tracer.named("trainer.train")
    tracer.restore()
    if "trainer.step_ms" in m:
        m["autodiff.step_peak_mb"] = step_peak_mb(train_calls[0].info)
    return m


# --- modes ------------------------------------------------------------------

def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def peak_rss_mb() -> float:
    """High-water RSS of this process since exec (VmHWM), in MB."""
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / 1e6
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def mode_setup(a, tracer: Tracer | None) -> dict:
    d = a.dir / "setup"
    log = a.dir / "setup.log"
    times = []
    for r in range(a.repeats):
        shutil.rmtree(d, ignore_errors=True)
        if tracer is not None:
            tracer.round = r + 1
        t0 = time.perf_counter()
        setup_once(a.workload, a.seed, d, log)
        times.append(time.perf_counter() - t0)
    result = {"seconds": times}
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, "setup")
    return result


def mode_timed(a, tracer: Tracer | None) -> dict:
    argv, units, ops, outputs = timed_plan(a.workload, a.seed, a.dir)
    log = a.dir / "timed.log"
    rounds = []
    elapsed = 0.0
    while not rounds or elapsed < a.seconds:
        if tracer is not None:
            tracer.round += 1
        t0, c0 = time.perf_counter(), time.process_time()
        code = run_cli(argv, log)
        dt, cpu = time.perf_counter() - t0, time.process_time() - c0
        elapsed += dt
        rounds.append({"seconds": dt, "cpu_seconds": cpu, "exit": code,
                       "digest": digest(outputs) if code == 0 else None})
    result = {"rounds": rounds, "units_per_round": units, "ops_per_round": ops,
              "peak_rss_mb": peak_rss_mb(), "machine": machine()}
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, "timed")
    return result


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("mode", choices=["setup", "timed"])
    p.add_argument("--workload", choices=["train", "decode", "sweep"], required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dir", type=Path, required=True)
    p.add_argument("--repeats", type=int, default=1)
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = p.parse_args()
    tracer = None
    if a.trace:
        tracer = Tracer()
        install(tracer)
    result = (mode_setup if a.mode == "setup" else mode_timed)(a, tracer)
    (a.dir / f"{a.mode}.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
