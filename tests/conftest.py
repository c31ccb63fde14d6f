import os

# One BLAS thread, as the benchmark runs: OpenBLAS rounds a product
# differently as its thread count changes, and the pins hold one rounding.
# Set before anything imports numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from helpers import build_synth_pipeline
from moefusion.model import MoeLmConfig


@pytest.fixture
def tiny_config():
    return MoeLmConfig(
        num_layers=2, model_dim=16, num_heads=2, head_dim=8,
        num_experts=4, experts_per_token=2, vocab_size=32, max_seq_len=16,
    )


@pytest.fixture(scope="session")
def synth_pipeline(tmp_path_factory):
    """One generated task plus a trained LM, shared by the expensive tests."""
    return build_synth_pipeline(tmp_path_factory.mktemp("synth"))
