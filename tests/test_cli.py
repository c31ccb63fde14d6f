"""Command-line interface: exit codes, precedence, end-to-end flows."""

import csv
import json

import numpy as np
import pytest

import moefusion.cli as cli_mod
import moefusion.fusion as fusion_mod
import moefusion.model as model_mod
import moefusion.wer as wer_mod
from helpers import save_binary_lattice
from moefusion.cli import main
from moefusion.errors import read_text
from moefusion.fusion import read_decodes, save_lattice
from moefusion.wer import report_from_json


@pytest.fixture
def lm_dir(synth_pipeline):
    return synth_pipeline["lm_dir"]


def normalized(x):
    return x - np.log(np.exp(x).sum(axis=1, keepdims=True))


def write_bad_lattice(path, case, v):
    """A `b_bad.lat`-style lattice with one of the faults a load must name."""
    rows = normalized(np.random.default_rng(9).standard_normal((6, v)))
    if case == "truncated":
        save_binary_lattice(rows, path)
        path.write_bytes(path.read_bytes()[:-4])
    elif case == "nan_row":
        rows[2, 5] = np.nan
        save_binary_lattice(rows, path)
    elif case == "wrong_vocab":
        save_binary_lattice(normalized(np.zeros((6, v + 1))), path)
    elif case == "zero_rows":
        save_binary_lattice(np.zeros((0, v)), path)
    elif case == "zero_rows_text":
        save_lattice(np.zeros((0, v)), path)
    elif case == "unnormalized":
        rows[1] += 0.25
        save_binary_lattice(rows, path)


def spy_searches(monkeypatch) -> list:
    """A list that gains, per beam search run from now on, its job count."""
    searches = []
    real_search = fusion_mod.beam_search_fusion
    monkeypatch.setattr(fusion_mod, "beam_search_fusion",
                        lambda jobs, lm: searches.append(len(jobs)) or real_search(jobs, lm))
    return searches


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
    def test_seeded_runs_write_the_same_files(self, tmp_path, synth_pipeline, capsys):
        """Two seed-0 runs write the same checkpoint bytes and the same
        train_log.csv but for its wall-clock tokens_per_sec column."""
        paths = synth_pipeline["paths"]
        runs = [tmp_path / "a", tmp_path / "b"]
        for out in runs:
            assert main(["train-lm", "--manifest", str(paths.lm_manifest),
                         "--vocab", str(paths.vocab), "--output-dir", str(out),
                         "--dim", "16", "--head-dim", "8", "--max-seq-len", "32",
                         "--steps", "4", "--warmup", "2", "--batch-size", "4"]) == 0
        a, b = ({f.name: f.read_bytes() for f in out.iterdir()} for out in runs)
        logs = [list(csv.reader(files.pop("train_log.csv").decode().splitlines()))
                for files in (a, b)]
        assert a == b and set(a) == {"manifest.json", "weights.bin"}
        assert logs[0][0][-1] == "tokens_per_sec" and len(logs[0]) == 5
        assert [row[:-1] for row in logs[0]] == [row[:-1] for row in logs[1]]

    def test_negative_seed_is_usage_error(self, tmp_path, synth_pipeline, capsys):
        paths = synth_pipeline["paths"]
        out = tmp_path / "run"
        assert main(["train-lm", "--manifest", str(paths.lm_manifest),
                     "--vocab", str(paths.vocab), "--output-dir", str(out),
                     "--seed", "-3"]) == 1
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()

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

    def test_config_file_equals_flags_for_every_setting(self, tmp_path, synth_pipeline,
                                                         capsys):
        """Every train-lm setting, at a non-default value, means the same as
        a --config key as it does as a flag."""
        paths = synth_pipeline["paths"]
        settings = {
            "layers": "3", "dim": "16", "heads": "4", "head_dim": "4", "ffn_mult": "2",
            "experts": "3", "experts_per_token": "1", "max_seq_len": "24",
            "aux_loss_weight": "0.02", "untied": "true", "lr": "0.03", "warmup": "5",
            "lr_schedule": "constant", "steps": "2", "batch_size": "3",
            "packing_factor": "2",
        }
        assert set(settings) == set(cli_mod._TRAIN_SETTINGS)
        assert all(str(default).lower() != settings[key]
                   for key, (_, default) in cli_mod._TRAIN_SETTINGS.items())
        cfg = tmp_path / "lm.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in settings.items()))
        flags = [a for k, v in settings.items() if k != "untied"
                 for a in (f"--{k.replace('_', '-')}", v)] + ["--untied"]
        common = ["train-lm", "--manifest", str(paths.lm_manifest),
                  "--vocab", str(paths.vocab), "--seed", "3", "--output-dir"]
        assert main(common + [str(tmp_path / "file"), "--config", str(cfg)]) == 0
        assert main(common + [str(tmp_path / "flags"), *flags]) == 0
        from_file, from_flags = ((tmp_path / d / "manifest.json").read_text()
                                 for d in ("file", "flags"))
        assert from_file == from_flags
        man = json.loads(from_file)
        assert man["training_step"] == 2
        assert man["config"]["tied_embeddings"] is False
        assert man["config"]["num_experts"] == 3

    @pytest.mark.parametrize("flag, value", [
        ("--aux-loss-weight", "nan"), ("--aux-loss-weight", "inf"),
        ("--lr", "nan"), ("--lr", "inf"),
    ])
    def test_non_finite_setting_rejected_before_training(self, flag, value, tmp_path,
                                                         synth_pipeline, capsys):
        paths = synth_pipeline["paths"]
        out = tmp_path / "run"
        rc = main(["train-lm", "--manifest", str(paths.lm_manifest),
                   "--vocab", str(paths.vocab), "--output-dir", str(out),
                   "--dim", "16", "--head-dim", "8", "--max-seq-len", "32",
                   "--steps", "2", "--batch-size", "4", flag, value])
        assert rc == 2
        assert "ConfigError" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_lr_schedule_exit_code_depends_on_where_it_is_set(
            self, tmp_path, synth_pipeline, capsys):
        # A flag outside its choices is a parser rejection (1); the same value
        # from --config parses as a string and fails AdafactorHyper (2).
        paths = synth_pipeline["paths"]
        common = ["train-lm", "--manifest", str(paths.lm_manifest),
                  "--vocab", str(paths.vocab), "--output-dir", str(tmp_path / "run"),
                  "--dim", "16", "--head-dim", "8", "--max-seq-len", "32",
                  "--steps", "2", "--batch-size", "4"]
        assert main(common + ["--lr-schedule", "cosine"]) == 1
        cfg = tmp_path / "lm.cfg"
        cfg.write_text("lr_schedule = cosine\n")
        assert main(common + ["--config", str(cfg)]) == 2
        assert "unknown lr_schedule 'cosine'" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("key", ["steps", "batch_size", "packing_factor"])
    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_zero_count_setting_is_usage_error(self, key, via, tmp_path, synth_pipeline,
                                               capsys):
        paths = synth_pipeline["paths"]
        out = tmp_path / "run"
        argv = ["train-lm", "--manifest", str(paths.lm_manifest),
                "--vocab", str(paths.vocab), "--output-dir", str(out),
                "--dim", "16", "--head-dim", "8", "--max-seq-len", "32"]
        if via == "flag":
            argv += [f"--{key.replace('_', '-')}", "0"]
        else:
            cfg = tmp_path / "lm.cfg"
            cfg.write_text(f"{key} = 0\n")
            argv += ["--config", str(cfg)]
        assert main(argv) == 1
        assert f"{key} (--{key.replace('_', '-')}) must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_config_file(self, tmp_path, synth_pipeline, capsys):
        paths = synth_pipeline["paths"]
        cfg = tmp_path / "lm.cfg"
        cfg.write_text("layers 4\n")
        rc = main(["train-lm", "--manifest", str(paths.lm_manifest),
                   "--vocab", str(paths.vocab),
                   "--output-dir", str(tmp_path / "run"),
                   "--config", str(cfg)])
        assert rc == 1

    def test_repeated_config_key_rejected(self, tmp_path, synth_pipeline, capsys):
        paths = synth_pipeline["paths"]
        cfg = tmp_path / "lm.cfg"
        cfg.write_text("layers = 2\ndim = 16\n# override\nlayers = 4\n")
        out = tmp_path / "run"
        rc = main(["train-lm", "--manifest", str(paths.lm_manifest),
                   "--vocab", str(paths.vocab), "--output-dir", str(out),
                   "--config", str(cfg)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "'layers'" in err and "lines 1 and 4" in err
        assert not out.exists()

    @pytest.mark.parametrize("line", ["experts_pr_token = 4", "moe_impl = dense"])
    def test_unknown_config_key_rejected(self, tmp_path, synth_pipeline,
                                         capsys, line):
        paths = synth_pipeline["paths"]
        cfg = tmp_path / "lm.cfg"
        cfg.write_text(f"dim = 16\nhead_dim = 8\nsteps = 2\n{line}\n")
        out = tmp_path / "run"
        rc = main(["train-lm", "--manifest", str(paths.lm_manifest),
                   "--vocab", str(paths.vocab), "--output-dir", str(out),
                   "--config", str(cfg)])
        assert rc == 1
        assert line.split(" =")[0] in capsys.readouterr().err
        assert not out.exists()


class TestDecodeCommand:
    def test_lambda_flag_required(self, synth_pipeline, tmp_path, capsys):
        paths = synth_pipeline["paths"]
        rc = main(["decode", "--lattice-dir", str(paths.lattice_dir),
                   "--vocab", str(paths.vocab),
                   "--output", str(tmp_path / "d.tsv")])
        assert rc == 1

    def test_n_best_flag_removed(self, synth_pipeline, tmp_path, capsys):
        # decode writes the single best hypothesis; there is no n-best output.
        paths = synth_pipeline["paths"]
        rc = main(["decode", "--lattice-dir", str(paths.lattice_dir),
                   "--vocab", str(paths.vocab), "--lambda", "0.3",
                   "--n-best", "2", "--output", str(tmp_path / "d.tsv")])
        assert rc == 1

    def test_negative_lambda_rejected(self, synth_pipeline, tmp_path,
                                      capsys):
        paths = synth_pipeline["paths"]
        rc = main(["decode", "--lattice-dir", str(paths.lattice_dir),
                   "--vocab", str(paths.vocab), "--lambda", "-0.5",
                   "--output", str(tmp_path / "d.tsv")])
        assert rc == 1

    @pytest.mark.parametrize("lam", ["inf", "nan"])
    def test_non_finite_lambda_is_usage_error(self, lam, synth_pipeline, tmp_path,
                                              capsys):
        paths = synth_pipeline["paths"]
        rc = main(["decode", "--lattice-dir", str(paths.lattice_dir),
                   "--vocab", str(paths.vocab), "--lambda", lam,
                   "--output", str(tmp_path / "d.tsv")])
        assert rc == 1
        assert "--lambda must be finite" in capsys.readouterr().err

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
            save_binary_lattice(rows, lat_dir / f"{name}.lat")
        searches = spy_searches(monkeypatch)
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

    def test_negative_max_len_rejected(self, synth_pipeline, tmp_path, capsys):
        paths = synth_pipeline["paths"]
        rc = main(["decode", "--lattice-dir", str(paths.lattice_dir),
                   "--vocab", str(paths.vocab), "--lambda", "0.3",
                   "--max-len", "-1", "--output", str(tmp_path / "d.tsv")])
        assert rc == 1

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

    def test_empty_reference_named(self, tmp_path, capsys):
        refs, hyps = tmp_path / "refs.tsv", tmp_path / "hyps.tsv"
        refs.write_text("u1\tloc-a\ta b\nu2\tloc-a\t \n")
        hyps.write_text("u1\tloc-a\ta b\nu2\tloc-a\t\n")  # an empty hypothesis is fine
        out = tmp_path / "eval"
        assert main(["evaluate", "--refs", str(refs), "--hyps", str(hyps),
                     "--output-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(refs) in err and "'u2'" in err
        assert not out.exists()

    def test_baseline_with_a_perfect_locale(self, tmp_path, capsys):
        refs, base, hyps = (tmp_path / f"{n}.tsv" for n in ("refs", "base", "hyps"))
        refs.write_text("u1\tloc-a\ta b c\nu2\tloc-b\td e f\n")
        base.write_text("u1\tloc-a\ta b c\nu2\tloc-b\td x f\n")
        hyps.write_text("u1\tloc-a\ta x c\nu2\tloc-b\td e f\n")
        evaluate = ["evaluate", "--refs", str(refs)]
        assert main(evaluate + ["--hyps", str(base), "--output-dir", str(tmp_path / "b")]) == 0
        assert main(evaluate + ["--hyps", str(hyps), "--output-dir", str(tmp_path / "s"),
                                "--baseline", str(tmp_path / "b" / "report.json")]) == 0
        rep = report_from_json(tmp_path / "s" / "report.json")
        assert rep.locales["loc-a"].baseline_wer == 0.0
        assert rep.locales["loc-a"].werr is None
        assert rep.locales["loc-b"].werr == 1.0
        assert (rep.improved, rep.tied, rep.regressed) == (1, 0, 1)
        lines = (tmp_path / "s" / "report.csv").read_text().splitlines()
        assert lines[1].startswith("loc-a,") and lines[1].endswith(",0,")
        assert json.loads((tmp_path / "s" / "report.json").read_text()
                          )["locales"]["loc-a"]["werr"] is None
        out = capsys.readouterr().out
        assert "loc-a: wer 0.3333\n" in out and "improved 1, tied 0, regressed 1" in out

    @pytest.mark.parametrize("text, field", [
        ("{}", "locales"), ("[1]", "locales"), ("{", "not JSON"),
        ('{"locales": {"loc-a": {"wer": "0.5"}}}', "locales.loc-a.substitutions"),
        ('{"locales": {"loc-a": {"substitutions": 1, "deletions": 0, "insertions": 0, '
         '"ref_words": 3, "wer": "0.3", "baseline_wer": null, "werr": null}}}',
         "locales.loc-a.wer"),
    ])
    def test_malformed_baseline_is_named(self, text, field, tmp_path, capsys):
        refs = tmp_path / "refs.tsv"
        refs.write_text("u1\tloc-a\ta b c\n")
        base = tmp_path / "base.json"
        base.write_text(text)
        assert main(["evaluate", "--refs", str(refs), "--hyps", str(refs),
                     "--output-dir", str(tmp_path / "out"), "--baseline", str(base)]) == 2
        err = capsys.readouterr().err
        assert str(base) in err and field in err and "Traceback" not in err

    def test_missing_hypotheses_detected(self, synth_pipeline, tmp_path,
                                         capsys):
        paths = synth_pipeline["paths"]
        (tmp_path / "h.tsv").write_text("loc-a-000\tloc-a\tsome words\n")
        rc = main(["evaluate", "--refs", str(paths.refs),
                   "--hyps", str(tmp_path / "h.tsv"),
                   "--output-dir", str(tmp_path / "out")])
        assert rc == 2
        assert "missing" in capsys.readouterr().err

    @pytest.mark.parametrize("columns", [3, 5])
    @pytest.mark.parametrize("missing", [False, True])
    def test_id_faults_named(self, columns, missing, tmp_path, capsys):
        refs, hyps = tmp_path / "refs.tsv", tmp_path / "hyps.tsv"
        refs.write_text("u1\tloc-a\ta b\nu2\tloc-a\tc d\n")
        ids = ["u1", "u0x"] if missing else ["u1", "u2", "u0x"]
        row = "\tloc-a\ta b\n" if columns == 3 else "\ta b\t-1.0\t-2.0\t-3.0\n"
        hyps.write_text("".join(u + row for u in ids))
        assert main(["evaluate", "--refs", str(refs), "--hyps", str(hyps),
                     "--output-dir", str(tmp_path / "out")]) == 2
        # Missing ids are named before unknown ones, in either file format.
        fault = ("hypotheses missing for 1 utterances, first: 'u2'" if missing
                 else "hypothesis for unknown utterance 'u0x'")
        assert capsys.readouterr().err == f"error: ValueError: {fault}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("columns", [3, 5])
    def test_repeated_id_named(self, columns, tmp_path, capsys):
        refs, hyps = tmp_path / "refs.tsv", tmp_path / "hyps.tsv"
        refs.write_text("u1\tloc-a\ta b\n")
        rows = (["\tloc-a\ta b\n", "\tloc-a\tx y\n"] if columns == 3
                else ["\ta b\t-1.0\t-2.0\t-3.0\n", "\tx y\t-1.0\t-2.0\t-3.0\n"])
        hyps.write_text("u1" + rows[0] + "\nu1" + rows[1])
        assert main(["evaluate", "--refs", str(refs), "--hyps", str(hyps),
                     "--output-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == \
            f"error: ValueError: {hyps}:3: duplicate utterance id 'u1'\n"
        assert not (tmp_path / "out").exists()

    def test_score_that_is_not_a_number_named(self, tmp_path, capsys):
        refs, hyps = tmp_path / "refs.tsv", tmp_path / "hyps.tsv"
        refs.write_text("u1\tloc-a\ta b\nu2\tloc-a\tc d\n")
        hyps.write_text("u1\ta b\t-1.0\t-2.0\t-3.0\nu2\tc d\t-1.0\tnan_x\t-3.0\n")
        assert main(["evaluate", "--refs", str(refs), "--hyps", str(hyps),
                     "--output-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (f"error: ValueError: {hyps}:2: could not "
                                           f"convert string to float: 'nan_x'\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("columns", [3, 5])
    def test_hyps_decoded_once(self, columns, tmp_path, monkeypatch):
        refs, hyps = tmp_path / "refs.tsv", tmp_path / "hyps.tsv"
        refs.write_text("u1\tloc-a\ta b\nu2\tloc-a\tc d\n")
        row = "\tloc-a\ta b\n" if columns == 3 else "\ta b\t-1.0\t-2.0\t-3.0\n"
        hyps.write_text("\n" + "".join(u + row for u in ("u1", "u2")))
        reads = []

        def spy(path, *args):
            reads.append(str(path))
            return read_text(path, *args)

        for mod in (cli_mod, fusion_mod, wer_mod):
            monkeypatch.setattr(mod, "read_text", spy)
        assert main(["evaluate", "--refs", str(refs), "--hyps", str(hyps),
                     "--output-dir", str(tmp_path / "out")]) == 0
        assert reads.count(str(hyps)) == 1

    def test_report_csv_quotes_locales(self, tmp_path):
        refs, hyps = tmp_path / "refs.tsv", tmp_path / "hyps.tsv"
        refs.write_text('u1\ten,US\ta b\nu2\ta"b\tc d\n')
        hyps.write_text('u1\ten,US\ta x\nu2\ta"b\tc d\n')
        assert main(["evaluate", "--refs", str(refs), "--hyps", str(hyps),
                     "--output-dir", str(tmp_path / "out")]) == 0
        with open(tmp_path / "out" / "report.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert all(len(r) == 4 for r in rows)
        assert [r[0] for r in rows] == ["locale", 'a"b', "en,US", "macro_avg", "micro_avg"]
        assert [float(r[1]) for r in rows[1:3]] == [0.0, 0.5]


def with_ff_byte(path):
    """path with one 0xff byte, which no UTF-8 text holds, after its first byte."""
    raw = path.read_bytes()
    path.write_bytes(raw[:1] + b"\xff" + raw[1:])
    return path


@pytest.mark.parametrize("fault, rc", [
    ("refs", 2), ("hyps", 2), ("config", 1), ("manifest", 2), ("corpus", 2),
])
def test_non_utf8_input_is_named(fault, rc, synth_pipeline, tmp_path, capsys):
    """One 0xff byte in a text input fails the command with that file's name:
    exit 1 for the config file, as for its other bad lines, else exit 2.
    The hypotheses file fails in the reader its format picks."""
    files = {n: tmp_path / n for n in ("refs", "hyps", "manifest", "corpus", "config")}
    files["refs"].write_text("u1\tloc-a\ta b\n")
    files["hyps"].write_text("u1\tloc-a\ta b\n")
    files["corpus"].write_text("a b c\n")
    files["manifest"].write_text("loc-a\tcorpus\n")
    files["config"].write_text("steps = 1\n")
    bad = with_ff_byte(files[fault])
    if fault in ("refs", "hyps"):
        argv = ["evaluate", "--refs", str(files["refs"]), "--hyps", str(files["hyps"])]
    else:
        argv = ["train-lm", "--manifest", str(files["manifest"]),
                "--vocab", str(synth_pipeline["paths"].vocab), "--config", str(files["config"])]
    out = tmp_path / "out"
    assert main(argv + ["--output-dir", str(out)]) == rc
    err = capsys.readouterr().err
    assert f"{bad}: not UTF-8" in err and "Traceback" not in err
    assert not out.exists()


BAD_LATTICES = ["truncated", "nan_row", "wrong_vocab", "zero_rows", "zero_rows_text",
                "unnormalized"]


@pytest.mark.parametrize("case", BAD_LATTICES)
@pytest.mark.parametrize("command", ["decode", "sweep-lambda"])
def test_bad_lattice_named_before_any_search(command, case, synth_pipeline, lm_dir,
                                            tmp_path, capsys, monkeypatch):
    paths = synth_pipeline["paths"]
    v = synth_pipeline["vocab"].size
    lat_dir = tmp_path / "lats"
    lat_dir.mkdir()
    save_lattice(normalized(np.zeros((4, v))), lat_dir / "a_good.lat")
    write_bad_lattice(lat_dir / "b_bad.lat", case, v)
    searches = spy_searches(monkeypatch)
    out = tmp_path / "out"
    argv = [command, "--lattice-dir", str(lat_dir), "--vocab", str(paths.vocab),
            "--lm", str(lm_dir)]
    if command == "decode":
        argv += ["--lambda", "0.3", "--output", str(out)]
    else:
        argv += ["--refs", str(paths.refs), "--values", "0,0.3",
                 "--output-dir", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "b_bad.lat" in err and "Traceback" not in err
    assert not out.exists()
    assert searches == []


class TestSweepCommand:
    def sweep(self, lat_dir, vocab, lm, refs, out, *extra):
        return main(["sweep-lambda", "--lattice-dir", str(lat_dir), "--vocab", str(vocab),
                     "--lm", str(lm), "--refs", str(refs), "--output-dir", str(out),
                     *extra])

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
        assert main(base + ["--values", "nan"]) == 1

    def test_repeated_lambda_rejected(self, synth_pipeline, lm_dir, tmp_path, capsys):
        paths = synth_pipeline["paths"]
        out = tmp_path / "sweep"
        assert self.sweep(paths.lattice_dir, paths.vocab, lm_dir, paths.refs, out,
                          "--values", "0.3,0.30,0") == 1
        assert "0.3" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_reference_named_before_any_search(self, synth_pipeline, lm_dir, tmp_path,
                                                     monkeypatch, capsys):
        paths = synth_pipeline["paths"]
        lines = paths.refs.read_text().splitlines()
        utt, locale, _ = lines[3].split("\t")
        lines[3] = f"{utt}\t{locale}\t"
        refs = tmp_path / "refs.tsv"
        refs.write_text("\n".join(lines) + "\n")
        out = tmp_path / "sweep"
        out.mkdir()
        searches = spy_searches(monkeypatch)
        assert self.sweep(paths.lattice_dir, paths.vocab, lm_dir, refs, out,
                          "--values", "0,0.3") == 2
        err = capsys.readouterr().err
        assert str(refs) in err and repr(utt) in err
        assert searches == [] and list(out.iterdir()) == []

    def test_zero_beam_is_usage_error(self, synth_pipeline, lm_dir, tmp_path, capsys):
        paths = synth_pipeline["paths"]
        out = tmp_path / "sweep"
        assert self.sweep(paths.lattice_dir, paths.vocab, lm_dir, paths.refs, out,
                          "--values", "0.3", "--beam", "0") == 1
        assert "--beam" in capsys.readouterr().err
        assert not out.exists()

    def test_decodes_match_decode_command(self, synth_pipeline, lm_dir, tmp_path, capsys):
        paths = synth_pipeline["paths"]
        lat_dir = tmp_path / "lats"
        lat_dir.mkdir()
        keep = sorted(paths.lattice_dir.glob("*.lat"))[::6]
        for p in keep:
            (lat_dir / p.name).write_bytes(p.read_bytes())
        ids = {p.stem for p in keep}
        refs = tmp_path / "refs.tsv"
        refs.write_text("".join(ln + "\n" for ln in paths.refs.read_text().splitlines()
                                if ln.split("\t")[0] in ids))
        out = tmp_path / "sweep"
        assert self.sweep(lat_dir, paths.vocab, lm_dir, refs, out,
                          "--values", "0,0.3,1.5", "--beam", "4") == 0
        for lam in ("0", "0.3", "1.5"):
            single = tmp_path / f"decode{lam}.tsv"
            assert main(["decode", "--lattice-dir", str(lat_dir), "--vocab", str(paths.vocab),
                         "--lm", str(lm_dir), "--lambda", lam, "--beam", "4",
                         "--output", str(single)]) == 0
            assert (out / f"decodes_lambda{lam}.tsv").read_bytes() == single.read_bytes()

    def test_lattice_longer_than_lm_context(self, synth_pipeline, lm_dir, tmp_path,
                                            capsys, monkeypatch):
        # As for decode: 70 rows allow 69 content tokens, the LM holds 63.
        paths = synth_pipeline["paths"]
        v = synth_pipeline["vocab"].size
        lat_dir = tmp_path / "lats"
        lat_dir.mkdir()
        rng = np.random.default_rng(5)
        for name, n in (("a_short", 12), ("b_long", 70)):
            save_binary_lattice(normalized(rng.standard_normal((n, v))),
                                lat_dir / f"{name}.lat")
        refs = tmp_path / "refs.tsv"
        refs.write_text("a_short\tloc-a\tsome words\nb_long\tloc-a\tmore words\n")
        searches = spy_searches(monkeypatch)
        out = tmp_path / "sweep"
        assert self.sweep(lat_dir, paths.vocab, lm_dir, refs, out,
                          "--values", "0,0.3", "--beam", "2") == 2
        err = capsys.readouterr().err
        assert "b_long.lat" in err and "69" in err and "63" in err
        assert "--max-len" in err and "Traceback" not in err
        assert not out.exists()
        assert searches == []

        assert self.sweep(lat_dir, paths.vocab, lm_dir, refs, out, "--values", "0,0.3",
                          "--beam", "2", "--max-len", "63") == 0
        # one lockstep search: both utterances under both lambdas fit one batch
        assert searches == [4]
        assert [r.utt_id for r in read_decodes(out / "decodes_lambda0.3.tsv")] == \
            ["a_short", "b_long"]

    @pytest.mark.parametrize("fault", ["lattice_without_ref", "ref_without_lattice"])
    def test_refs_checked_before_any_search(self, fault, synth_pipeline, lm_dir, tmp_path,
                                            capsys, monkeypatch):
        paths = synth_pipeline["paths"]
        lat_dir = tmp_path / "lats"
        lat_dir.mkdir()
        keep = sorted(paths.lattice_dir.glob("*.lat"))[:3]
        for p in keep:
            (lat_dir / p.name).write_bytes(p.read_bytes())
        ids = [p.stem for p in keep]
        lines = {ln.split("\t")[0]: ln for ln in paths.refs.read_text().splitlines()}
        listed = ids[:2] if fault == "lattice_without_ref" else ids + ["zz-no-lattice"]
        refs = tmp_path / "refs.tsv"
        refs.write_text("".join(lines.get(u, f"{u}\tloc-a\tsome words") + "\n"
                                for u in listed))
        searches = spy_searches(monkeypatch)
        out = tmp_path / "sweep"
        assert self.sweep(lat_dir, paths.vocab, lm_dir, refs, out,
                          "--values", "0,0.3", "--beam", "2") == 2
        err = capsys.readouterr().err
        if fault == "lattice_without_ref":
            assert f"hypothesis for unknown utterance {ids[2]!r}" in err
        else:
            assert "hypotheses missing for 1 utterances, first: 'zz-no-lattice'" in err
        assert "Traceback" not in err
        assert not out.exists()
        assert searches == []

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
    @pytest.mark.parametrize("flag, value", [
        ("--seed", "-1"), ("--eval-utts", "-2"), ("--eval-utts", "0"),
        ("--sentences", "0"), ("--sentences", "7"), ("--sentences", "x"),
    ])
    def test_bad_count_is_usage_error_before_writing(self, flag, value, tmp_path, capsys):
        """--sentences must give each of the 8 entities of a locale a sentence."""
        assert main(["gen-synthetic", "--output-dir", str(tmp_path / "task"),
                     flag, value]) == 1
        assert f"argument {flag}:" in capsys.readouterr().err
        assert not (tmp_path / "task").exists()

    def test_writes_tree(self, tmp_path, capsys):
        rc = main(["gen-synthetic", "--output-dir", str(tmp_path / "task"),
                   "--sentences", "40", "--eval-utts", "4",
                   "--vocab-size", "256"])
        assert rc == 0
        assert (tmp_path / "task" / "refs.tsv").exists()
        assert len(list((tmp_path / "task" / "lattices").glob("*.lat"))) == 8

    def test_stray_lattice_refused_before_writing(self, tmp_path, capsys):
        argv = ["gen-synthetic", "--output-dir", str(tmp_path), "--seed", "1",
                "--sentences", "40", "--vocab-size", "256"]
        assert main(argv + ["--eval-utts", "4"]) == 0
        before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        assert main(argv + ["--eval-utts", "2"]) == 2
        assert str(tmp_path / "lattices" / "loc-a-0002.lat") in capsys.readouterr().err
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before
        assert main(argv + ["--eval-utts", "4"]) == 0  # the same task may be rewritten


def test_decode_reaches_the_traced_lookup_sites(synth_pipeline, lm_dir, tmp_path,
                                                monkeypatch, capsys):
    """The traced benchmark wraps fusion.beam_search_fusion,
    fusion.lm_score_step and model.gate_topk where decode looks them up;
    each search (a batch of utterances) must reach the last two, or the
    traced metrics have no spans to report, and the searches together
    decode each lattice once."""
    paths = synth_pipeline["paths"]
    per_search: list[dict] = []
    jobs = []
    states = []

    def counting(module, name, after=None):
        fn = getattr(module, name)

        def wrapped(*args, **kwargs):
            if name == "beam_search_fusion":
                per_search.append({"lm_score_step": 0, "gate_topk": 0})
                jobs.extend(args[0])
            else:
                per_search[-1][name] += 1
            out = fn(*args, **kwargs)
            if after is not None:
                after(out)
            return out

        monkeypatch.setattr(module, name, wrapped)

    counting(fusion_mod, "beam_search_fusion")
    counting(fusion_mod, "lm_score_step", after=lambda out: states.append(out[0]))
    counting(model_mod, "gate_topk")
    assert main(["decode", "--lattice-dir", str(paths.lattice_dir),
                 "--vocab", str(paths.vocab), "--lm", str(lm_dir), "--lambda", "0.3",
                 "--beam", "4", "--output", str(tmp_path / "d.tsv")]) == 0
    lattices = len(list(paths.lattice_dir.glob("*.lat")))
    assert 1 < len(per_search) < lattices
    assert len(jobs) == len({id(s) for s, _ in jobs}) == lattices
    assert all(c["lm_score_step"] >= 1 and c["gate_topk"] >= 1 for c in per_search)
    state = states[0]
    assert state.keys and len(state.keys) == len(state.values)
    assert all(isinstance(a, np.ndarray) for a in state.keys + state.values)
    state._bench_prefix = (1,)


def test_batches_write_what_lone_searches_write(synth_pipeline, lm_dir, tmp_path,
                                                monkeypatch, capsys):
    """decode and sweep-lambda write the same bytes whether each utterance
    runs in a search of its own (a zero budget) or in the default batches."""
    paths = synth_pipeline["paths"]
    common = ["--lattice-dir", str(paths.lattice_dir), "--vocab", str(paths.vocab),
              "--lm", str(lm_dir), "--beam", "4"]

    def run(out):
        out.mkdir()
        assert main(["decode", *common, "--lambda", "0.3", "--output", str(out / "d.tsv")]) == 0
        assert main(["sweep-lambda", *common, "--refs", str(paths.refs),
                     "--values", "0,0.3,1.5", "--output-dir", str(out / "sweep")]) == 0
        return {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}

    searches = spy_searches(monkeypatch)
    batched = run(tmp_path / "batched")
    utts = len(list(paths.lattice_dir.glob("*.lat")))
    assert sum(searches) == utts * 4 and len(searches) < 10
    searches.clear()
    monkeypatch.setattr(fusion_mod, "DECODE_BATCH_BYTES", 0)
    alone = run(tmp_path / "alone")
    assert searches == [1] * utts + [3] * utts
    assert alone == batched and len(alone) == 5
