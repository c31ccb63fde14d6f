"""Behaviour pins: the synthetic pipeline's decodes and trained weights,
compared with the values committed in pins.json.

Criterion 09 compares two runs of one tree; these pins compare a tree with
the one that wrote pins.json, so a change meant to keep behaviour fails
here if it moves a decode or a weight. After a change meant to move them,
rewrite the file and name what moved and why:

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1 \
        PYTHONPATH=src python tests/test_pins.py

The pins hold one BLAS rounding: one thread (tests/conftest.py sets it for
the suite), one OpenBLAS build and one CPU family.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
from pathlib import Path

import numpy as np

from helpers import build_synth_pipeline
from moefusion import fusion
from moefusion.fusion import CheckpointLmScorer, FusionConfig, decode_utterances

PINS = Path(__file__).with_name("pins.json")
DECODE_LAMBDA = 0.3
SWEEP_LAMBDAS = (0.0, 0.2, 0.4)
# Flat indices of each tensor's sampled weights: first, middle and last.
SAMPLE_AT = (0.0, 0.5, 1.0)


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


if __name__ == "__main__":
    threads = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    assert all(os.environ.get(v) == "1" for v in threads), f"set {threads} to 1"
    with tempfile.TemporaryDirectory() as tmp:
        pins = measure(build_synth_pipeline(Path(tmp)))
    PINS.write_text("{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in pins.items())
                    + "\n}\n", encoding="utf-8")
    print(f"wrote {PINS}")
