"""Behaviour pins: the synthetic pipeline's decodes and trained weights,
compared with the values committed in pins.json, and the files the command
line writes for the same task, compared with cli_pins.json.

Criterion 09 compares two runs of one tree; these pins compare a tree with
the one that wrote the pin files, so a change meant to keep behaviour fails
here if it moves a decode, a weight or a written byte. After a change meant
to move them, rewrite both files and name what moved and why:

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1 \
        PYTHONPATH=src python tests/test_pins.py

The pins hold one BLAS rounding: one thread (tests/conftest.py sets it for
the suite), one OpenBLAS build and one CPU family.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import tempfile
from pathlib import Path

import numpy as np

from helpers import build_synth_pipeline
from moefusion import cli, fusion
from moefusion.checkpoint import load_checkpoint
from moefusion.fusion import CheckpointLmScorer, FusionConfig, decode_utterances

PINS = Path(__file__).with_name("pins.json")
CLI_PINS = Path(__file__).with_name("cli_pins.json")
DECODE_LAMBDA = 0.3
SWEEP_LAMBDAS = (0.0, 0.2, 0.4)
# Flat indices of each tensor's sampled weights: first, middle and last.
SAMPLE_AT = (0.0, 0.5, 1.0)
# The benchmark's fusion-LM flags (bench/worker.py FUSION_LM_FLAGS) with
# fewer steps, so the pinned train-lm run stays short.
LM_FLAGS = ["--layers", "2", "--dim", "32", "--heads", "2", "--head-dim", "16",
            "--experts", "4", "--experts-per-token", "2", "--max-seq-len", "64",
            "--steps", "6", "--warmup", "50"]


@contextlib.contextmanager
def _searched():
    """The hypothesis lists of every beam_search_fusion job, in call order."""
    found: list[list] = []
    inner = fusion.beam_search_fusion
    fusion.beam_search_fusion = lambda jobs, lm: found.extend(inner(jobs, lm)) or found[-len(jobs):]
    try:
        yield found
    finally:
        fusion.beam_search_fusion = inner


def _decodes(pipeline, name, lm, lams) -> dict[str, list]:
    """"name lambda=L utt" -> [tokens, e2e, lm, combined] of the best and
    the runner-up hypothesis, from a decode of every lattice under each
    lambda in lams. The runner-up shows how ties were broken."""
    configs = [FusionConfig(lam=lam) for lam in lams]
    with _searched() as hyps:
        found = decode_utterances(pipeline["paths"].lattice_dir, lm, configs, pipeline["vocab"])
    out = {}
    for j, (lam, rows) in enumerate(zip(lams, found)):
        for u, row in enumerate(rows):
            top = hyps[u * len(lams) + j][:2]  # jobs run utterance by utterance
            assert (fusion.decode_text(top[0].tokens, pipeline["vocab"]), top[0].combined) \
                == (row.text, row.combined)
            out[f"{name} lambda={lam:g} {row.utt_id}"] = [
                [" ".join(map(str, h.tokens)), h.e2e_logprob, h.lm_logprob, h.combined]
                for h in top]
    return out


def measure(pipeline) -> dict[str, list]:
    """Every pinned value, keyed by what it is. A weights entry holds the
    tensor's sum, then its sampled weights."""
    lm = CheckpointLmScorer(pipeline["checkpoint"])
    return {
        **_decodes(pipeline, "decode", None, [DECODE_LAMBDA]),
        **_decodes(pipeline, "decode --lm", lm, [DECODE_LAMBDA]),
        **_decodes(pipeline, "sweep", lm, SWEEP_LAMBDAS),
        **{f"weights {n}": [float(t.sum())] + [float(t.flat[round(f * (t.size - 1))])
                                               for f in SAMPLE_AT]
           for n, t in sorted(pipeline["checkpoint"].tensors.items())},
    }


def measure_cli(pipeline, out: Path) -> dict:
    """Through cli.main on the pipeline's task: train-lm with LM_FLAGS,
    decode without and with that LM at DECODE_LAMBDA, and a sweep-lambda
    over SWEEP_LAMBDAS. Returns the LM's manifest.json text, the sha256 of
    each decode TSV and of sweep.csv, and each trained tensor's sum."""
    paths = pipeline["paths"]
    task = ["--lattice-dir", str(paths.lattice_dir), "--vocab", str(paths.vocab)]
    lm, lam = out / "lm", f"{DECODE_LAMBDA:g}"
    for argv in (
        ["train-lm", "--manifest", str(paths.lm_manifest), "--vocab", str(paths.vocab),
         "--output-dir", str(lm), *LM_FLAGS],
        ["decode", *task, "--lambda", lam, "--output", str(out / "decode.tsv")],
        ["decode", *task, "--lm", str(lm), "--lambda", lam, "--output", str(out / "decode_lm.tsv")],
        ["sweep-lambda", *task, "--lm", str(lm), "--refs", str(paths.refs),
         "--values", ",".join(f"{v:g}" for v in SWEEP_LAMBDAS), "--output-dir", str(out / "sweep")],
    ):
        assert cli.main(argv) == 0, argv
    written = sorted(out.rglob("*.tsv")) + [out / "sweep" / "sweep.csv"]
    return {
        "manifest.json": (lm / "manifest.json").read_text(encoding="utf-8"),
        **{f"sha256 {p.relative_to(out).as_posix()}": hashlib.sha256(p.read_bytes()).hexdigest()
           for p in written},
        **{f"sum {n}": float(t.sum()) for n, t in sorted(load_checkpoint(lm).tensors.items())},
    }


def test_pipeline_matches_pins(synth_pipeline):
    pins, got = json.loads(PINS.read_text(encoding="utf-8")), measure(synth_pipeline)
    assert got.keys() == pins.keys()
    for key, pinned in pins.items():
        if key.startswith("weights "):
            np.testing.assert_allclose(got[key], pinned, rtol=1e-9, atol=0, err_msg=key)
        else:
            assert [h[0] for h in got[key]] == [h[0] for h in pinned], key
            np.testing.assert_allclose([h[1:] for h in got[key]], [h[1:] for h in pinned],
                                       rtol=0, atol=1e-9, err_msg=key)


def test_cli_files_match_pins(synth_pipeline, tmp_path, capsys):
    pins = json.loads(CLI_PINS.read_text(encoding="utf-8"))
    got = measure_cli(synth_pipeline, tmp_path)
    assert got.keys() == pins.keys()
    for key, pinned in pins.items():
        if key.startswith("sum "):
            np.testing.assert_allclose(got[key], pinned, rtol=1e-9, atol=0, err_msg=key)
        else:
            assert got[key] == pinned, key


if __name__ == "__main__":
    threads = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    assert all(os.environ.get(v) == "1" for v in threads), f"set {threads} to 1"
    with tempfile.TemporaryDirectory() as tmp:
        pipeline = build_synth_pipeline(Path(tmp) / "task")
        written = {PINS: measure(pipeline), CLI_PINS: measure_cli(pipeline, Path(tmp) / "cli")}
    for path, pins in written.items():
        path.write_text("{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}"
                                            for k, v in pins.items()) + "\n}\n", encoding="utf-8")
        print(f"wrote {path}")
