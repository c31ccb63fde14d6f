"""Tests of the benchmark's reference checkers (bench/checks.py).

    python3 -m pytest -q bench/test_checks.py

Each checker must agree with the program on good inputs and disagree once
its input is perturbed, so a check that passes is a check that could fail.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
from moefusion.fusion import (  # noqa: E402
    LatticeSource, exhaustive_oracle, load_lattice, save_lattice,
)
from moefusion.model import (  # noqa: E402
    MoeLmConfig, init_params, initial_state, lm_forward, lm_score_step,
)
from moefusion.wer import aggregate, wer  # noqa: E402


def _config(tied: bool) -> MoeLmConfig:
    return MoeLmConfig(num_layers=4, model_dim=16, num_heads=2, head_dim=8, num_experts=4,
                       experts_per_token=2, vocab_size=32, max_seq_len=16,
                       tied_embeddings=tied)


@pytest.mark.parametrize("tied", [True, False])
def test_reference_forward_matches_program(tied):
    config = _config(tied)
    params = init_params(config, seed=3)
    rng = np.random.default_rng(0)
    # Trained-looking weights: larger than the init, so routing varies by token.
    params = {n: v + 0.3 * rng.standard_normal(v.shape) for n, v in params.items()}
    ids = [1] + [int(x) for x in rng.integers(4, 32, size=11)]

    ref = checks.reference_log_probs(config.to_dict(), params, ids)
    np.testing.assert_allclose(ref, lm_forward(params, ids, config), atol=1e-9)
    state = initial_state(config)
    for t, tok in enumerate(ids):
        state, row = lm_score_step(params, config, state, tok)
        np.testing.assert_allclose(ref[t], row, atol=1e-9)

    perturbed = dict(params)
    perturbed["layer01.expert00.w2"] = params["layer01.expert00.w2"] * 1.01
    perturbed["layer03.expert03.w2"] = params["layer03.expert03.w2"] * 1.01
    moved = checks.reference_log_probs(config.to_dict(), perturbed, ids)
    assert np.abs(moved - lm_forward(params, ids, config)).max() > 1e-5


def test_sequence_scores_sum_rows_and_eos():
    rows = np.log(np.full((3, 5), 0.2))
    rows[0, 4], rows[1, 3], rows[2, checks.EOS_ID] = 0.0, -1.0, -2.0
    lm = np.zeros((3, 5))
    lm[2, checks.EOS_ID] = -0.5
    assert checks.sequence_scores([4, 3], rows, lm) == (-3.0, -0.5)
    assert checks.sequence_scores([4, 4], rows, lm) != (-3.0, -0.5)


@pytest.mark.parametrize("ref, hyp, dist", [
    ("a b c", "a b c", 0),
    ("a b c", "a x c", 1),
    ("a b c", "", 3),
    ("a b", "a b c d", 2),
    ("a b c d", "b c d e", 2),
    ("call desado now", "call tesato now", 1),
    ("the report is ready", "report the is ready", 2),
])
def test_levenshtein_hand_cases(ref, hyp, dist):
    assert checks.levenshtein(ref.split(), hyp.split()) == dist
    assert wer(ref, hyp).errors == dist
    unrelated = ["zz"] * (len(ref.split()) + len(hyp.split()) + 1)
    assert checks.levenshtein(ref.split(), unrelated) == len(unrelated) != dist


def test_corpus_wer_matches_program_aggregate():
    rng = np.random.default_rng(1)
    words = ["a", "b", "c", "d"]
    refs, hyps = {}, {}
    for i in range(40):
        locale = f"loc-{i % 3}"
        refs[f"u{i}"] = (locale, " ".join(rng.choice(words, size=rng.integers(1, 7))))
        hyps[f"u{i}"] = " ".join(rng.choice(words, size=rng.integers(0, 7)))
    per_locale = {}
    for utt, (locale, ref) in refs.items():
        per_locale.setdefault(locale, []).append(wer(ref, hyps[utt]))
    report = aggregate(per_locale)
    macro, micro = checks.corpus_wer(refs, hyps)
    assert macro == pytest.approx(report.macro_avg_wer, abs=1e-12)
    assert micro == pytest.approx(report.micro_avg_wer, abs=1e-12)

    exact = {utt: ref for utt, (_, ref) in refs.items()}
    assert checks.corpus_wer(refs, exact) == (0.0, 0.0)
    exact["u0"] = "z " + " ".join(exact["u0"].split()[1:])
    assert checks.corpus_wer(refs, exact)[1] > 0.0


def _random_lattice(rng, t: int, v: int) -> np.ndarray:
    logits = rng.standard_normal((t, v)) * 2.0
    return logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))


def _first_row(v: int, top: int) -> np.ndarray:
    """Row 0 that all but forbids ending there and favours token `top`."""
    p = np.full(v, 0.03 / (v - 2))
    p[checks.EOS_ID], p[top] = 1e-9, 0.97
    return np.log(p / p.sum())


@pytest.mark.parametrize("seed", range(6))
def test_rowwise_optimum_matches_exhaustive_oracle(seed):
    rng = np.random.default_rng(seed)
    frames = _random_lattice(rng, 5, 5)
    frames[0] = _first_row(5, top=3)
    tokens, score = checks.rowwise_optimum(frames)
    best = exhaustive_oracle(LatticeSource(frames), None, lam=0.0, max_len=4)
    assert tuple(tokens) + (checks.EOS_ID,) == best.tokens
    assert score == pytest.approx(best.combined, abs=1e-12)

    perturbed = frames.copy()
    perturbed[0] = _first_row(5, top=4)
    moved, _ = checks.rowwise_optimum(perturbed)
    assert tuple(moved) + (checks.EOS_ID,) == \
        exhaustive_oracle(LatticeSource(perturbed), None, lam=0.0, max_len=4).tokens
    assert moved[0] == 4 != tokens[0]


def test_lattice_files_round_trip_through_the_program(tmp_path):
    frames = _random_lattice(np.random.default_rng(2), 4, 6)
    checks.write_binary_lattice(tmp_path / "a.lat", frames)
    np.testing.assert_array_equal(load_lattice(tmp_path / "a.lat"),
                                  frames.astype(np.float32).astype(np.float64))
    np.testing.assert_array_equal(checks.read_binary_lattice(tmp_path / "a.lat"),
                                  frames.astype(np.float32))
    save_lattice(frames, tmp_path / "b.lat")
    np.testing.assert_array_equal(checks.read_text_lattice(tmp_path / "b.lat"), frames)
    raw = (tmp_path / "a.lat").read_bytes()
    (tmp_path / "c.lat").write_bytes(raw[:-4])
    with pytest.raises(ValueError):
        checks.read_binary_lattice(tmp_path / "c.lat")
