"""End-to-end benchmark of moefusion: train-lm, decode and sweep-lambda.

    python3 bench/run.py --workload {train,decode,sweep} --seed N --seconds S --trace {0,1}

Run from the root of a source tree; the program is imported from src/. Each
workload runs its set-up in one fresh process and its timed pass in another
(bench/worker.py), both through `moefusion.cli.main`. This process then checks
the outputs against bench/checks.py and prints, as its last line, one JSON
object: `correct`, `attempted`, `failed` and `metrics`. With --trace 0 the
metrics are the end-to-end ones; with --trace 1 the per-layer ones from a run
whose program functions are wrapped by bench/spans.py. See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

# The program is single-threaded; pin BLAS so timings do not depend on how
# many cores a pool would find. Set before numpy is imported anywhere.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_REPEATS = {"train": 15, "decode": 3, "sweep": 3}


class RunError(Exception):
    pass


def child(mode: str, a, work: Path, **extra) -> dict:
    argv = [sys.executable, str(BENCH / "worker.py"), mode, "--workload", a.workload,
            "--seed", str(a.seed), "--dir", str(work), "--trace", str(a.trace)]
    for key, value in extra.items():
        argv += [f"--{key}", str(value)]
    env = dict(os.environ, **BLAS_ENV, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    timeout = 60 if mode == "setup" else a.seconds + 60
    log = work / f"{mode}.out"
    with open(log, "w") as fh:
        try:
            proc = subprocess.run(argv, env=env, cwd=ROOT, stdout=fh,
                                  stderr=subprocess.STDOUT, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise RunError(f"{mode} process ran past {timeout} s") from None
    if proc.returncode != 0:
        raise RunError(f"{mode} process exited {proc.returncode}:\n{log.read_text()[-3000:]}")
    return json.loads((work / f"{mode}.json").read_text())


# --- output checks ----------------------------------------------------------

# Sentences of the corpus the trained checkpoint is scored on, by the
# program's forward and by the benchmark's own.
PROBE_SENTENCES = 8


def check_train(out: Path, seed: int) -> list[str]:
    import numpy as np
    from moefusion.accounting import count_params_flops
    from moefusion.checkpoint import load_checkpoint
    from moefusion.model import MoeLmConfig, init_params, lm_forward
    from moefusion.tokenizer import Vocab, encode, read_corpus

    import checks

    lm, task = out / "lm", out.parent / "setup" / "task"
    rows = [ln.split(",") for ln in (lm / "train_log.csv").read_text().splitlines()[1:]]
    first_ce = float(rows[0][2])
    vocab_size = len(checks.read_vocab(task / "vocab.wpv"))
    errors = []
    # Initialisation is near-uniform: the first CE sits within 0.25 nat of
    # ln V (over 30 seeds it ranged ln V - 0.093 .. ln V + 0.097).
    if abs(first_ce - math.log(vocab_size)) > 0.25:
        errors.append(f"first-step CE {first_ce:.4f} is not near ln V = {math.log(vocab_size):.4f}")
    ckpt = load_checkpoint(lm)
    config, tensors = checks.read_checkpoint(lm)
    model_config = MoeLmConfig.from_dict(config)
    elements = sum(t.size for t in tensors.values())
    expected = count_params_flops(model_config).total_params
    if elements != expected or sum(t.size for t in ckpt.tensors.values()) != expected:
        errors.append(f"checkpoint holds {elements} elements, accounting says {expected}")

    # The trained checkpoint scores the first corpus sentences the same under
    # the program's forward and the benchmark's own, and better than the
    # initial weights (train-lm starts from init_params at the same seed).
    # The logged losses are not compared: they are taken before each update,
    # and the optimizer can overshoot on one step and recover on the next.
    vocab = Vocab.load(task / "vocab.wpv")
    initial = init_params(model_config, seed)
    nll_final, nll_initial = [], []
    for _, text in read_corpus(task / "lm_manifest.tsv")[:PROBE_SENTENCES]:
        seq = [checks.BOS_ID] + encode(text, vocab).ids[: model_config.max_seq_len - 2] + [checks.EOS_ID]
        ref = checks.reference_log_probs(config, tensors, seq[:-1])
        gap = float(np.abs(ref - lm_forward(ckpt.tensors, seq[:-1], ckpt.config)).max())
        if gap > 1e-5:
            errors.append(f"trained LM forward differs from the reference by {gap:.3g}")
        ref_initial = checks.reference_log_probs(config, initial, seq[:-1])
        nll_final += [-ref[t, tok] for t, tok in enumerate(seq[1:])]
        nll_initial += [-ref_initial[t, tok] for t, tok in enumerate(seq[1:])]
    ce_final, ce_initial = float(np.mean(nll_final)), float(np.mean(nll_initial))
    print(f"train: probe CE {ce_initial:.4f} at initialisation, {ce_final:.4f} after training")
    if not ce_final < ce_initial:
        errors.append(f"training did not lower the probe CE: {ce_initial:.4f} -> {ce_final:.4f}")
    return errors


def _read_decodes(path: Path) -> dict[str, tuple[str, float, float, float]]:
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        utt, text, e2e, lm, combined = line.split("\t")
        out[utt] = (text, float(e2e), float(lm), float(combined))
    return out


def check_decode(out: Path, seed: int) -> list[str]:
    import checks
    from worker import DECODE_LAMBDA

    setup = out.parent / "setup"
    config, weights = checks.read_checkpoint(setup / "lm")
    decodes = _read_decodes(out / "decode.tsv")
    lam = float(DECODE_LAMBDA)
    errors = []
    matched = 0
    for line in (setup / "decode" / "decode_refs.tsv").read_text(encoding="utf-8").splitlines():
        utt, ref, ids = line.split("\t")
        text, e2e, lm, combined = decodes[utt]
        # The TSV rounds each score to 1e-6.
        if abs(combined - (e2e + lam * lm)) > 2e-6:
            errors.append(f"{utt}: combined {combined} != e2e + {lam} * lm")
        if text != ref:
            continue
        matched += 1
        tokens = [int(x) for x in ids.split()]
        rows = checks.read_binary_lattice(setup / "decode" / "lattices" / f"{utt}.lat")
        lm_rows = checks.reference_log_probs(config, weights, [checks.BOS_ID] + tokens)
        want_e2e, want_lm = checks.sequence_scores(tokens, rows, lm_rows)
        tol = 1e-5 * (len(tokens) + 1) + 1e-6
        if abs(e2e - want_e2e) > tol or abs(lm - want_lm) > tol:
            errors.append(f"{utt}: scores ({e2e}, {lm}) != reference ({want_e2e:.6f}, {want_lm:.6f})")
    if matched == 0:
        errors.append("no decode equals its reference; nothing to recompute")
    print(f"decode: {matched}/{len(decodes)} outputs equal their reference and were rescored")
    return errors


def check_sweep(out: Path, seed: int) -> list[str]:
    import checks

    task = out.parent / "setup" / "task"
    sweep = out / "sweep"
    refs = {}
    for line in (task / "refs.tsv").read_text(encoding="utf-8").splitlines():
        utt, locale, text = line.split("\t")
        refs[utt] = (locale, text)
    errors = []
    wers = {}
    for line in (sweep / "sweep.csv").read_text().splitlines()[1:]:
        lam, macro, micro = line.split(",")
        decodes = _read_decodes(sweep / f"decodes_lambda{lam}.tsv")
        want_macro, want_micro = checks.corpus_wer(refs, {u: d[0] for u, d in decodes.items()})
        if abs(float(macro) - want_macro) > 1e-12 or abs(float(micro) - want_micro) > 1e-12:
            errors.append(f"lambda {lam}: sweep.csv says ({macro}, {micro}), "
                          f"reference WER is ({want_macro}, {want_micro})")
        wers[float(lam)] = want_micro
    pieces = checks.read_vocab(task / "vocab.wpv")
    for utt, (text, e2e, _, _) in _read_decodes(sweep / "decodes_lambda0.tsv").items():
        tokens, score = checks.rowwise_optimum(checks.read_text_lattice(task / "lattices" / f"{utt}.lat"))
        want = checks.pieces_to_text(tokens, pieces)
        if text != want or abs(e2e - score) > 1e-5 * (len(tokens) + 1):
            errors.append(f"{utt}: lambda 0 decode {text!r} ({e2e}) is not the row-wise optimum "
                          f"{want!r} ({score:.6f})")
    if not min(wers.values()) < wers[0.0]:
        errors.append(f"no lambda beats lambda 0 (micro WER {wers[0.0]})")
    return errors


CHECKS = {"train": check_train, "decode": check_decode, "sweep": check_sweep}


# --- main -------------------------------------------------------------------

def run(a, work: Path) -> dict:
    setup = child("setup", a, work, repeats=SETUP_REPEATS[a.workload])
    timed = child("timed", a, work, seconds=a.seconds)
    rounds = timed["rounds"]
    ok = [r for r in rounds if r["exit"] == 0]
    attempted = timed["ops_per_round"] * len(rounds)
    failed = timed["ops_per_round"] * (len(rounds) - len(ok))
    print("machine: " + json.dumps(dict(timed["machine"], **BLAS_ENV)))
    print(f"{a.workload}: {len(rounds)} passes of {timed['ops_per_round']} operations, "
          f"seconds per pass {[round(r['seconds'], 3) for r in rounds]}, "
          f"CPU seconds per pass {[round(r['cpu_seconds'], 3) for r in rounds]}, "
          f"set-up seconds {[round(s, 3) for s in setup['seconds']]}")

    errors = []
    if not ok:
        errors.append("every pass failed")
    elif rounds[-1]["exit"] != 0:
        errors.append("the last pass failed, so its outputs cannot be checked")
    else:
        if len({r["digest"] for r in ok}) != 1:
            errors.append("passes over the same inputs wrote different outputs")
        try:
            errors += CHECKS[a.workload](work / "out", a.seed)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            errors.append(f"outputs unreadable: {type(exc).__name__}: {exc}")
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)

    tok_per_s = statistics.median(timed["units_per_round"] / r["seconds"] for r in ok) if ok else 0.0
    if a.trace:
        from worker import PER_LAYER

        layers = dict.fromkeys(PER_LAYER, 0.0)
        layers.update(setup["layers"])
        layers.update(timed["layers"])
        layers["trace.tok_per_s"] = tok_per_s
        metrics = {n: {"value": layers[n], "unit": u} for n, u in PER_LAYER.items()}
    else:
        metrics = {
            "tok_per_s": {"value": tok_per_s, "unit": "1/s"},
            "setup_s": {"value": statistics.median(setup["seconds"]), "unit": "s"},
            "peak_rss_mb": {"value": timed["peak_rss_mb"], "unit": "MB"},
        }
    return {"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(CHECKS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = p.parse_args()
    if not (SRC / "moefusion" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'moefusion'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    work = ROOT / ".bench_runs" / f"{a.workload}-{a.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result = run(a, work)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # left alone while another run uses it
            work.parent.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
