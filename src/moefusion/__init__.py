"""Sparse mixture-of-experts LM with shallow-fusion decoding, in pure numpy."""

from .accounting import FlopReport, count_params_flops
from .adafactor import AdafactorHyper, AdafactorState, adafactor_step
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .fusion import (
    FusionConfig, Hypothesis, LatticeSource,
    beam_search_fusion, exhaustive_oracle,
    load_lattice, save_lattice,
)
from .model import (
    GateOutput, LmState, MoeLmConfig,
    gate_topk, init_params, lm_forward, lm_score_step,
)
from .numerics import log_softmax, logsumexp
from .packing import PackedBatch, pack_batches
from .tokenizer import (
    BOS_ID, EOS_ID, PAD_ID, UNK_ID,
    TokenSeq, Vocab, decode_text, encode, train_wordpiece,
)
from .trainer import TrainLog, train
from .wer import LangReport, WerBreakdown, aggregate, emit_report, werr

__version__ = "0.1.0"
