"""Command-line interface: exit codes, precedence, end-to-end flows."""

import json

import numpy as np
import pytest

import moefusion.fusion as fusion_mod
from moefusion.checkpoint import save_checkpoint
from moefusion.cli import main
from moefusion.fusion import read_decodes, save_lattice
from moefusion.wer import report_from_json


@pytest.fixture(scope="module")
def lm_dir(tmp_path_factory, synth_pipeline):
    d = tmp_path_factory.mktemp("lm")
    save_checkpoint(synth_pipeline["checkpoint"], d)
    return d


class TestExitCodes:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "moefusion" in capsys.readouterr().out

    def test_subcommand_help_exits_zero(self, capsys):
        assert main(["decode", "--help"]) == 0

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_unknown_flag(self, capsys):
        assert main(["flops", "--wat", "3"]) == 1

    def test_missing_required_flag(self, capsys):
        assert main(["train-tokenizer", "--vocab-size", "64"]) == 1

    def test_bad_threads(self, capsys):
        assert main(["--threads", "0", "flops"]) == 1

    def test_threads_accepted(self, capsys):
        assert main(["--threads", "4", "flops"]) == 0

    def test_missing_input_file_is_runtime_error(self, tmp_path, capsys):
        rc = main(["train-tokenizer", "--manifest", str(tmp_path / "nope"),
                   "--vocab-size", "64",
                   "--output", str(tmp_path / "v.wpv")])
        assert rc == 2
        assert "not found" in capsys.readouterr().err


class TestFlops:
    def test_default_report_shows_full_scale(self, capsys):
        assert main(["flops"]) == 0
        out = capsys.readouterr().out
        assert "1,882,976,256" in out
        assert "126,231,552" in out

    def test_custom_config(self, capsys):
        assert main(["flops", "--layers", "2", "--dim", "64", "--heads", "2",
                     "--head-dim", "32", "--experts", "4",
                     "--vocab-size", "256", "--max-seq-len", "64"]) == 0
        assert "total" in capsys.readouterr().out.lower()

    def test_invalid_shape_is_runtime_error(self, capsys):
        assert main(["flops", "--dim", "100"]) == 2


class TestTokenizerCommand:
    def test_deterministic_output(self, tmp_path, synth_pipeline, capsys):
        manifest = synth_pipeline["paths"].tokenizer_manifest
        a, b = tmp_path / "a.wpv", tmp_path / "b.wpv"
        assert main(["train-tokenizer", "--manifest", str(manifest),
                     "--vocab-size", "128", "--output", str(a)]) == 0
        assert main(["train-tokenizer", "--manifest", str(manifest),
                     "--vocab-size", "128", "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text().startswith("wpv1 ")

    def test_tiny_vocab_rejected(self, synth_pipeline, tmp_path, capsys):
        manifest = synth_pipeline["paths"].tokenizer_manifest
        assert main(["train-tokenizer", "--manifest", str(manifest),
                     "--vocab-size", "2",
                     "--output", str(tmp_path / "v.wpv")]) == 1


class TestTrainCommand:
    def test_tiny_run_writes_artifacts(self, tmp_path, synth_pipeline,
                                       capsys):
        paths = synth_pipeline["paths"]
        out = tmp_path / "run"
        rc = main(["train-lm", "--manifest", str(paths.lm_manifest),
                   "--vocab", str(paths.vocab), "--output-dir", str(out),
                   "--dim", "16", "--head-dim", "8", "--max-seq-len", "32",
                   "--steps", "3", "--warmup", "2", "--batch-size", "4"])
        assert rc == 0
        assert (out / "manifest.json").exists()
        assert (out / "weights.bin").exists()
        log = (out / "train_log.csv").read_text().strip().split("\n")
        assert log[0].startswith("step,loss")
        assert len(log) == 4

    def test_flag_overrides_config_file(self, tmp_path, synth_pipeline,
                                        capsys):
        paths = synth_pipeline["paths"]
        cfg = tmp_path / "lm.cfg"
        cfg.write_text(
            "# comment line\n"
            "layers = 4\n"
            "dim = 16\n"
            "head_dim = 8\n"
            "max_seq_len = 32\n"
            "steps = 2\n"
            "warmup = 2\n"
            "batch_size = 4\n"
        )
        out = tmp_path / "run"
        rc = main(["train-lm", "--manifest", str(paths.lm_manifest),
                   "--vocab", str(paths.vocab), "--output-dir", str(out),
                   "--config", str(cfg), "--layers", "2"])
        assert rc == 0
        man = json.loads((out / "manifest.json").read_text())
        assert man["config"]["num_layers"] == 2  # flag wins
        assert man["config"]["model_dim"] == 16  # file fills the rest

    def test_malformed_config_file(self, tmp_path, synth_pipeline, capsys):
        paths = synth_pipeline["paths"]
        cfg = tmp_path / "lm.cfg"
        cfg.write_text("layers 4\n")
        rc = main(["train-lm", "--manifest", str(paths.lm_manifest),
                   "--vocab", str(paths.vocab),
                   "--output-dir", str(tmp_path / "run"),
                   "--config", str(cfg)])
        assert rc == 1


class TestDecodeCommand:
    def test_lambda_flag_required(self, synth_pipeline, tmp_path, capsys):
        paths = synth_pipeline["paths"]
        rc = main(["decode", "--lattice-dir", str(paths.lattice_dir),
                   "--vocab", str(paths.vocab),
                   "--output", str(tmp_path / "d.tsv")])
        assert rc == 1

    def test_negative_lambda_rejected(self, synth_pipeline, tmp_path,
                                      capsys):
        paths = synth_pipeline["paths"]
        rc = main(["decode", "--lattice-dir", str(paths.lattice_dir),
                   "--vocab", str(paths.vocab), "--lambda", "-0.5",
                   "--output", str(tmp_path / "d.tsv")])
        assert rc == 1

    def test_lambda_zero_with_lm_matches_no_lm(self, synth_pipeline, lm_dir,
                                               tmp_path, capsys):
        paths = synth_pipeline["paths"]
        base = ["decode", "--lattice-dir", str(paths.lattice_dir),
                "--vocab", str(paths.vocab), "--lambda", "0"]
        a, b = tmp_path / "no_lm.tsv", tmp_path / "lm0.tsv"
        assert main(base + ["--output", str(a)]) == 0
        assert main(base + ["--lm", str(lm_dir), "--output", str(b)]) == 0
        ra, rb = read_decodes(a), read_decodes(b)
        assert [r.text for r in ra] == [r.text for r in rb]
        assert [r.e2e_logprob for r in ra] == [r.e2e_logprob for r in rb]

    def test_lattice_longer_than_lm_context(self, synth_pipeline, lm_dir,
                                            tmp_path, capsys, monkeypatch):
        # 70 rows allow 69 content tokens; the LM holds 63 after BOS.
        paths = synth_pipeline["paths"]
        v = synth_pipeline["vocab"].size
        lat_dir = tmp_path / "lats"
        lat_dir.mkdir()
        rng = np.random.default_rng(5)
        short = rng.standard_normal((12, v))
        long_ = rng.standard_normal((70, v))
        for name, x in (("a_short", short), ("b_long", long_)):
            rows = x - np.log(np.exp(x).sum(axis=1, keepdims=True))
            save_lattice(rows, lat_dir / f"{name}.lat", binary=True)
        searches = []
        real_search = fusion_mod.beam_search_fusion
        monkeypatch.setattr(fusion_mod, "beam_search_fusion",
                            lambda *a: searches.append(1) or real_search(*a))
        base = ["decode", "--lattice-dir", str(lat_dir),
                "--vocab", str(paths.vocab), "--lm", str(lm_dir),
                "--lambda", "0.3", "--beam", "2"]
        out = tmp_path / "d.tsv"
        assert main(base + ["--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert "b_long.lat" in err and "69" in err and "63" in err
        assert "--max-len" in err and "Traceback" not in err
        assert not out.exists()
        assert searches == []  # checked before the first beam step

        assert main(base + ["--max-len", "63", "--output", str(out)]) == 0
        assert [r.utt_id for r in read_decodes(out)] == ["a_short", "b_long"]

    def test_corrupt_checkpoint_is_runtime_error(self, synth_pipeline,
                                                 tmp_path, capsys):
        paths = synth_pipeline["paths"]
        bad = tmp_path / "ck"
        bad.mkdir()
        (bad / "manifest.json").write_text("{]")
        (bad / "weights.bin").write_bytes(b"")
        rc = main(["decode", "--lattice-dir", str(paths.lattice_dir),
                   "--vocab", str(paths.vocab), "--lambda", "0.3",
                   "--lm", str(bad), "--output", str(tmp_path / "d.tsv")])
        assert rc == 2


class TestEvaluateCommand:
    def test_full_flow_with_baseline(self, synth_pipeline, lm_dir, tmp_path,
                                     capsys):
        paths = synth_pipeline["paths"]
        no_lm = tmp_path / "no_lm.tsv"
        fused = tmp_path / "fused.tsv"
        assert main(["decode", "--lattice-dir", str(paths.lattice_dir),
                     "--vocab", str(paths.vocab), "--lambda", "0",
                     "--output", str(no_lm)]) == 0
        assert main(["decode", "--lattice-dir", str(paths.lattice_dir),
                     "--vocab", str(paths.vocab), "--lambda", "0.3",
                     "--lm", str(lm_dir), "--output", str(fused)]) == 0

        base_dir = tmp_path / "base"
        assert main(["evaluate", "--refs", str(paths.refs),
                     "--hyps", str(no_lm), "--output-dir",
                     str(base_dir)]) == 0
        assert (base_dir / "report.csv").exists()
        base_rep = report_from_json(base_dir / "report.json")
        assert base_rep.improved is None

        fused_dir = tmp_path / "fused"
        assert main(["evaluate", "--refs", str(paths.refs),
                     "--hyps", str(fused), "--output-dir", str(fused_dir),
                     "--baseline", str(base_dir / "report.json"),
                     "--baseline-name", "no-lm"]) == 0
        rep = report_from_json(fused_dir / "report.json")
        assert rep.improved is not None
        assert rep.baseline_name == "no-lm"
        assert rep.micro_avg_wer <= base_rep.micro_avg_wer
        out = capsys.readouterr().out
        assert "macro avg" in out

    def test_missing_hypotheses_detected(self, synth_pipeline, tmp_path,
                                         capsys):
        paths = synth_pipeline["paths"]
        (tmp_path / "h.tsv").write_text("loc-a-000\tloc-a\tsome words\n")
        rc = main(["evaluate", "--refs", str(paths.refs),
                   "--hyps", str(tmp_path / "h.tsv"),
                   "--output-dir", str(tmp_path / "out")])
        assert rc == 2
        assert "missing" in capsys.readouterr().err


class TestSweepCommand:
    def test_bad_values_rejected(self, synth_pipeline, lm_dir, tmp_path,
                                 capsys):
        paths = synth_pipeline["paths"]
        base = ["sweep-lambda", "--lattice-dir", str(paths.lattice_dir),
                "--vocab", str(paths.vocab), "--lm", str(lm_dir),
                "--refs", str(paths.refs),
                "--output-dir", str(tmp_path / "sweep")]
        assert main(base + ["--values", "0.1,banana"]) == 1
        assert main(base + ["--values", "-0.2"]) == 1
        assert main(base + ["--values", ""]) == 1

    def test_sweep_writes_csv(self, synth_pipeline, lm_dir, tmp_path,
                              capsys):
        paths = synth_pipeline["paths"]
        out = tmp_path / "sweep"
        rc = main(["sweep-lambda", "--lattice-dir", str(paths.lattice_dir),
                   "--vocab", str(paths.vocab), "--lm", str(lm_dir),
                   "--refs", str(paths.refs), "--values", "0,0.3",
                   "--output-dir", str(out)])
        assert rc == 0
        lines = (out / "sweep.csv").read_text().strip().split("\n")
        assert lines[0] == "lambda,macro_wer,micro_wer"
        assert len(lines) == 3
        assert (out / "decodes_lambda0.tsv").exists()
        assert (out / "decodes_lambda0.3.tsv").exists()
        assert "best lambda" in capsys.readouterr().out


class TestGenSyntheticCommand:
    def test_writes_tree(self, tmp_path, capsys):
        rc = main(["gen-synthetic", "--output-dir", str(tmp_path / "task"),
                   "--sentences", "40", "--eval-utts", "4",
                   "--vocab-size", "256"])
        assert rc == 0
        assert (tmp_path / "task" / "refs.tsv").exists()
        assert len(list((tmp_path / "task" / "lattices").glob("*.lat"))) == 8
