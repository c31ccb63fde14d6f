"""Synthetic two-locale corpus with an acoustically confusable long tail.

Each locale has template sentences with one "entity" slot. Entities appear
often in the LM training text but their confusable variants (deterministic
letter swaps d->t, s->z, e->i, the same word to a speech recognizer's ear)
never do. Generated lattices give the confusable slightly more acoustic mass
than the truth at ambiguous slots, so a decoder without the LM transcribes
the confusable and a fused decoder with moderate lambda recovers the entity.

The confusable wordlist joins the tokenizer corpus (so both variants are
single pieces) but not the LM manifest.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .fusion import save_lattice
from .tokenizer import EOS_ID, WORD_SEP, encode, train_wordpiece

__all__ = ["SynthPaths", "confusable", "gen_synthetic"]

LOCALES = ("loc-a", "loc-b")

ENTITIES = {
    "loc-a": ["desado", "sedira", "dosela", "sedano", "delira",
              "sodena", "maresa", "bodise"],
    "loc-b": ["sunedo", "vedisa", "nosede", "dubesa", "redosa",
              "lisedo", "gedora", "besula"],
}

TEMPLATES = [
    "please call {e} now",
    "send a note to {e}",
    "we met {e} on monday",
    "play the song by {e}",
    "go to {e} for lunch",
    "the report from {e} is ready",
    "schedule a call with {e} tomorrow",
    "tell {e} about the plan",
]

# Share of each locale's evaluation utterances whose entity loses to its confusable.
AMBIGUOUS_FRACTION = 0.6

_SWAPS = str.maketrans({"d": "t", "s": "z", "e": "i"})


def confusable(word: str) -> str:
    """Deterministic sound-alike variant of a word."""
    return word.translate(_SWAPS)


@dataclass
class SynthPaths:
    root: Path
    tokenizer_manifest: Path
    lm_manifest: Path
    vocab: Path
    refs: Path
    lattice_dir: Path


def _sentences_for(locale: str, count: int, rng) -> list[str]:
    ents = ENTITIES[locale]
    out = []
    for i in range(count):
        template = TEMPLATES[int(rng.integers(len(TEMPLATES)))]
        entity = ents[i % len(ents)]
        out.append(template.format(e=entity))
    return out


def _build_lattice(
    tokens: list[int],
    vocab_size: int,
    swap_pos: int | None,
    swap_id: int | None,
) -> np.ndarray:
    """(len+1, V) log-distribution: truth dominant, confusable boosted at swap_pos."""
    rows = np.zeros((len(tokens) + 1, vocab_size))
    for t, tok in enumerate(tokens):
        p = np.zeros(vocab_size)
        if t == swap_pos:
            p[swap_id] = 0.52
            p[tok] = 0.36
        else:
            p[tok] = 0.88
        p[EOS_ID] = 1e-8
        rest = np.flatnonzero(p == 0.0)
        p[rest] = (1.0 - p.sum()) / rest.size
        rows[t] = np.log(p / p.sum())
    p = np.zeros(vocab_size)
    p[EOS_ID] = 0.97
    rest = np.flatnonzero(p == 0.0)
    p[rest] = (1.0 - p.sum()) / rest.size
    rows[-1] = np.log(p / p.sum())
    return rows


def gen_synthetic(
    out_dir: str | Path,
    seed: int,
    sentences_per_locale: int,
    eval_per_locale: int,
    vocab_size: int,
) -> SynthPaths:
    """Write corpora, manifests, vocab, references and lattices under out_dir.
    A *.lat in out_dir/lattices that this run would not write, or a vocab_size
    too small for the task, raises before anything is written."""
    root = Path(out_dir)
    lattice_dir = root / "lattices"
    ours = {f"{loc}-{i:04d}.lat" for loc in LOCALES for i in range(eval_per_locale)}
    stray = sorted(p for p in lattice_dir.glob("*.lat") if p.name not in ours)
    if stray:
        raise ValueError(f"{stray[0]} is not a lattice of this task; use an empty output directory")
    rng = np.random.default_rng([seed, 0x5717])
    sents = {locale: _sentences_for(locale, sentences_per_locale, rng) for locale in LOCALES}

    # Three copies per line so the mid-sentence (marked) form is frequent
    # enough to merge into a single piece.
    confusions = []
    for locale in LOCALES:
        for e in ENTITIES[locale]:
            c = confusable(e)
            if c == e:
                raise ValueError(f"entity {e!r} has no distinct confusable form")
            confusions.extend([f"{c} {c} {c}"] * 20)

    # The tokenizer corpus in its manifest's order, as read_corpus reads it.
    vocab = train_wordpiece([s for loc in LOCALES for s in sents[loc]] + confusions, vocab_size)
    # Entity and confusable must each be a single mid-sentence piece so the
    # lattice can swap their scores at one position.
    for locale in LOCALES:
        for e in ENTITIES[locale]:
            for w in (e, confusable(e)):
                if WORD_SEP + w not in vocab.piece_to_id:
                    raise ValueError(
                        f"word {w!r} did not become a single piece; "
                        f"increase vocab_size (got {vocab.size})"
                    )

    (root / "corpus").mkdir(parents=True, exist_ok=True)
    lattice_dir.mkdir(parents=True, exist_ok=True)
    for locale in LOCALES:
        (root / "corpus" / f"{locale}.txt").write_text(
            "\n".join(sents[locale]) + "\n", encoding="utf-8")
    (root / "corpus" / "confusions.txt").write_text(
        "\n".join(confusions) + "\n", encoding="utf-8")

    lm_manifest = root / "lm_manifest.tsv"
    lm_manifest.write_text(
        "".join(f"{loc}\tcorpus/{loc}.txt\n" for loc in LOCALES),
        encoding="utf-8",
    )
    tok_manifest = root / "tokenizer_manifest.tsv"
    tok_manifest.write_text(
        "".join(f"{loc}\tcorpus/{loc}.txt\n" for loc in LOCALES)
        + "und\tcorpus/confusions.txt\n",
        encoding="utf-8",
    )
    vocab_path = root / "vocab.wpv"
    vocab.save(vocab_path)

    ref_lines = []
    for locale in LOCALES:
        ents = ENTITIES[locale]
        n_ambiguous = int(round(AMBIGUOUS_FRACTION * eval_per_locale))
        for i in range(eval_per_locale):
            template = TEMPLATES[int(rng.integers(len(TEMPLATES)))]
            entity = ents[int(rng.integers(len(ents)))]
            text = template.format(e=entity)
            utt = f"{locale}-{i:04d}"
            ref_lines.append(f"{utt}\t{locale}\t{text}")

            tokens = encode(text, vocab).ids
            swap_pos = swap_id = None
            if i < n_ambiguous:
                ent_id = vocab.piece_to_id[WORD_SEP + entity]
                swap_pos = tokens.index(ent_id)
                swap_id = vocab.piece_to_id[WORD_SEP + confusable(entity)]
            frames = _build_lattice(tokens, vocab.size, swap_pos, swap_id)
            save_lattice(frames, lattice_dir / f"{utt}.lat")

    refs_path = root / "refs.tsv"
    refs_path.write_text("\n".join(ref_lines) + "\n", encoding="utf-8")

    return SynthPaths(
        root=root,
        tokenizer_manifest=tok_manifest,
        lm_manifest=lm_manifest,
        vocab=vocab_path,
        refs=refs_path,
        lattice_dir=lattice_dir,
    )
