"""Checkpoint serialization: exact round trips and corruption detection."""

import json

import numpy as np
import pytest

from moefusion.checkpoint import (
    Checkpoint, load_checkpoint, save_checkpoint,
)
from moefusion.errors import (
    CheckpointShapeError, CheckpointVersionError, CorruptCheckpointError,
)
from moefusion.model import init_params


def make_ckpt(cfg, seed=0, step=42):
    return Checkpoint(config=cfg, tensors=init_params(cfg, seed),
                      training_step=step)


class TestRoundTrip:
    def test_double_precision_is_bit_exact(self, tiny_config, tmp_path):
        ckpt = make_ckpt(tiny_config)
        save_checkpoint(ckpt, tmp_path / "ck")
        back = load_checkpoint(tmp_path / "ck")
        assert back.training_step == 42
        assert back.config == tiny_config
        assert set(back.tensors) == set(ckpt.tensors)
        for name, t in ckpt.tensors.items():
            assert np.array_equal(back.tensors[name], t), name

    def test_single_precision_tensors_close(self, tiny_config, tmp_path):
        full = init_params(tiny_config, 0)
        narrow = {n: t.astype(np.float32) for n, t in full.items()}
        ckpt = Checkpoint(config=tiny_config, tensors=narrow, training_step=1)
        save_checkpoint(ckpt, tmp_path / "ck")
        man = json.loads((tmp_path / "ck" / "manifest.json").read_text())
        assert {e["dtype"] for e in man["tensors"].values()} == {"f4"}
        back = load_checkpoint(tmp_path / "ck")
        for name, t in full.items():
            assert back.tensors[name].dtype == np.float64
            assert np.abs(back.tensors[name] - t).max() < 1e-6, name

    def test_save_is_byte_stable(self, tiny_config, tmp_path):
        ckpt = make_ckpt(tiny_config)
        save_checkpoint(ckpt, tmp_path / "a")
        save_checkpoint(ckpt, tmp_path / "b")
        assert (tmp_path / "a" / "weights.bin").read_bytes() == \
            (tmp_path / "b" / "weights.bin").read_bytes()
        assert (tmp_path / "a" / "manifest.json").read_bytes() == \
            (tmp_path / "b" / "manifest.json").read_bytes()

    def test_weights_bin_is_the_tensors_joined_in_name_order(self, tiny_config, tmp_path):
        tensors = init_params(tiny_config, 0)
        for name in sorted(tensors)[::3]:
            tensors[name] = tensors[name].astype(np.float32)
        tensors["embed.weight"] = np.asfortranarray(tensors["embed.weight"])
        save_checkpoint(Checkpoint(config=tiny_config, tensors=tensors, training_step=1),
                        tmp_path / "ck")
        dtypes = {np.dtype(np.float32): "<f4", np.dtype(np.float64): "<f8"}
        joined = b"".join(tensors[n].astype(dtypes[tensors[n].dtype]).tobytes()
                          for n in sorted(tensors))
        assert {t.dtype for t in tensors.values()} == set(dtypes)
        assert (tmp_path / "ck" / "weights.bin").read_bytes() == joined

    def test_manifest_layout(self, tiny_config, tmp_path):
        save_checkpoint(make_ckpt(tiny_config), tmp_path / "ck")
        man = json.loads((tmp_path / "ck" / "manifest.json").read_text())
        assert man["format_version"] == 1
        assert man["training_step"] == 42
        names = list(man["tensors"])
        assert names == sorted(names)
        total = (tmp_path / "ck" / "weights.bin").stat().st_size
        assert man["total_bytes"] == total


class TestValidation:
    def test_wrong_shape_at_construction(self, tiny_config):
        tensors = init_params(tiny_config, 0)
        tensors["final_ln.gain"] = np.zeros(3)
        with pytest.raises(CheckpointShapeError, match="final_ln.gain"):
            Checkpoint(config=tiny_config, tensors=tensors, training_step=0)

    def test_missing_tensor_at_construction(self, tiny_config):
        tensors = init_params(tiny_config, 0)
        del tensors["embed.weight"]
        with pytest.raises(CheckpointShapeError, match="embed.weight"):
            Checkpoint(config=tiny_config, tensors=tensors, training_step=0)

    def test_truncated_weights(self, tiny_config, tmp_path):
        save_checkpoint(make_ckpt(tiny_config), tmp_path / "ck")
        blob = (tmp_path / "ck" / "weights.bin").read_bytes()
        (tmp_path / "ck" / "weights.bin").write_bytes(blob[:-8])
        with pytest.raises(CorruptCheckpointError):
            load_checkpoint(tmp_path / "ck")

    def test_edited_manifest_shape_names_tensor(self, tiny_config, tmp_path):
        save_checkpoint(make_ckpt(tiny_config), tmp_path / "ck")
        path = tmp_path / "ck" / "manifest.json"
        man = json.loads(path.read_text())
        man["tensors"]["embed.weight"]["shape"] = [1, 1]
        path.write_text(json.dumps(man))
        with pytest.raises(CheckpointShapeError, match="embed.weight"):
            load_checkpoint(tmp_path / "ck")

    def test_unsupported_version(self, tiny_config, tmp_path):
        save_checkpoint(make_ckpt(tiny_config), tmp_path / "ck")
        path = tmp_path / "ck" / "manifest.json"
        man = json.loads(path.read_text())
        man["format_version"] = 99
        path.write_text(json.dumps(man))
        with pytest.raises(CheckpointVersionError, match="99"):
            load_checkpoint(tmp_path / "ck")

    def test_missing_files(self, tiny_config, tmp_path):
        with pytest.raises(CorruptCheckpointError):
            load_checkpoint(tmp_path / "nope")
        save_checkpoint(make_ckpt(tiny_config), tmp_path / "ck")
        (tmp_path / "ck" / "weights.bin").unlink()
        with pytest.raises(CorruptCheckpointError):
            load_checkpoint(tmp_path / "ck")

    def test_garbled_manifest_json(self, tiny_config, tmp_path):
        save_checkpoint(make_ckpt(tiny_config), tmp_path / "ck")
        (tmp_path / "ck" / "manifest.json").write_text("{not json")
        with pytest.raises(CorruptCheckpointError):
            load_checkpoint(tmp_path / "ck")

    def test_undecodable_manifest_names_the_file(self, tiny_config, tmp_path):
        save_checkpoint(make_ckpt(tiny_config), tmp_path / "ck")
        path = tmp_path / "ck" / "manifest.json"
        path.write_bytes(b"\xff" + path.read_bytes())
        with pytest.raises(CorruptCheckpointError, match=r"manifest\.json: unreadable"):
            load_checkpoint(tmp_path / "ck")

    def test_bad_dtype_tag(self, tiny_config, tmp_path):
        save_checkpoint(make_ckpt(tiny_config), tmp_path / "ck")
        path = tmp_path / "ck" / "manifest.json"
        man = json.loads(path.read_text())
        next(iter(man["tensors"].values()))["dtype"] = "f2"
        path.write_text(json.dumps(man))
        with pytest.raises(CorruptCheckpointError):
            load_checkpoint(tmp_path / "ck")

    def test_total_bytes_mismatch(self, tiny_config, tmp_path):
        save_checkpoint(make_ckpt(tiny_config), tmp_path / "ck")
        blob = (tmp_path / "ck" / "weights.bin").read_bytes()
        (tmp_path / "ck" / "weights.bin").write_bytes(blob + b"\x00" * 16)
        with pytest.raises(CorruptCheckpointError, match="bytes"):
            load_checkpoint(tmp_path / "ck")



WRONG_MANIFESTS = {
    "json_list": lambda man: list(man),
    "no_config": lambda man: {k: v for k, v in man.items() if k != "config"},
    "no_tensors": lambda man: {k: v for k, v in man.items() if k != "tensors"},
    "string_offset": lambda man: {**man, "tensors": {
        n: {**e, "offset": str(e["offset"])} for n, e in man["tensors"].items()}},
    "entry_without_dtype": lambda man: {**man, "tensors": {
        n: {k: v for k, v in e.items() if k != "dtype"} for n, e in man["tensors"].items()}},
    "entry_is_a_list": lambda man: {**man, "tensors": {
        n: list(e.values()) for n, e in man["tensors"].items()}},
    "string_shape": lambda man: {**man, "tensors": {
        n: {**e, "shape": str(e["shape"])} for n, e in man["tensors"].items()}},
    "string_model_dim": lambda man: {**man, "config": {
        **man["config"], "model_dim": str(man["config"]["model_dim"])}},
    "string_training_step": lambda man: {**man, "training_step": "7"},
    "unknown_config_key": lambda man: {**man, "config": {**man["config"], "bogus": 1}},
    "heads_times_head_dim_not_model_dim": lambda man: {**man, "config": {
        **man["config"], "num_heads": 3, "head_dim": 4, "model_dim": 8}},
    "nan_aux_loss_weight": lambda man: {**man, "config": {
        **man["config"], "aux_loss_weight": float("nan")}},
}


@pytest.mark.parametrize("case", sorted(WRONG_MANIFESTS))
def test_wrong_manifest_is_corrupt(case, tiny_config, tmp_path):
    save_checkpoint(make_ckpt(tiny_config), tmp_path / "ck")
    path = tmp_path / "ck" / "manifest.json"
    path.write_text(json.dumps(WRONG_MANIFESTS[case](json.loads(path.read_text()))))
    with pytest.raises(CorruptCheckpointError):
        load_checkpoint(tmp_path / "ck")
