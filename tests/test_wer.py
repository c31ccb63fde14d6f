"""Word error rate against an independent edit-distance reference."""

import numpy as np
import pytest

from moefusion.wer import (
    LangReport, WerBreakdown, aggregate, emit_report, read_utt_file,
    report_from_json, wer, werr,
)


def levenshtein_reference(r, h):
    """Plain dict-based edit distance, written independently of wer()."""
    prev = {j: j for j in range(len(h) + 1)}
    for i in range(1, len(r) + 1):
        cur = {0: i}
        for j in range(1, len(h) + 1):
            cur[j] = min(
                prev[j - 1] + (r[i - 1] != h[j - 1]),
                prev[j] + 1,
                cur[j - 1] + 1,
            )
        prev = cur
    return prev[len(h)]


class TestAlignment:
    @pytest.mark.parametrize("ref,hyp,s,d,i", [
        ("a b c", "a b c", 0, 0, 0),
        ("a b c", "a x c", 1, 0, 0),
        ("a b c", "a c", 0, 1, 0),
        ("a b c", "a b x c", 0, 0, 1),
        ("a b c", "", 0, 3, 0),
        ("a", "x y z", 1, 0, 2),
        ("hello world", "world hello", 2, 0, 0),
    ])
    def test_hand_counts(self, ref, hyp, s, d, i):
        b = wer(ref, hyp)
        assert (b.substitutions, b.deletions, b.insertions) == (s, d, i)
        assert b.ref_words == len(ref.split())

    def test_ties_become_substitutions(self):
        # a full rewrite is 2 substitutions, never a delete+insert pair
        b = wer("a b", "x y")
        assert b.substitutions == 2
        assert b.deletions == 0 and b.insertions == 0

    def test_wer_can_exceed_one(self):
        b = wer("a", "x y z w")
        assert b.wer == 4.0

    def test_empty_reference_rejected(self):
        with pytest.raises(ValueError):
            wer("", "a b")
        with pytest.raises(ValueError):
            wer("   ", "a b")

    def test_error_total_matches_reference_oracle(self):
        rng = np.random.default_rng(0)
        vocab = [f"w{i}" for i in range(12)]
        for _ in range(2000):
            r = [vocab[i] for i in rng.integers(0, 12, rng.integers(1, 9))]
            h = [vocab[i] for i in rng.integers(0, 12, rng.integers(0, 9))]
            b = wer(" ".join(r), " ".join(h))
            assert b.errors == levenshtein_reference(r, h)
            # counts must be internally consistent with the lengths
            assert len(h) - len(r) == b.insertions - b.deletions


class TestMergeAndRates:
    def test_shard_merge_is_exact(self):
        rng = np.random.default_rng(1)
        vocab = [f"w{i}" for i in range(8)]
        pairs = []
        for _ in range(60):
            r = [vocab[i] for i in rng.integers(0, 8, rng.integers(1, 7))]
            h = [vocab[i] for i in rng.integers(0, 8, rng.integers(0, 7))]
            pairs.append((" ".join(r), " ".join(h)))
        whole = WerBreakdown()
        for r, h in pairs:
            whole = whole + wer(r, h)
        shard_a = WerBreakdown()
        shard_b = WerBreakdown()
        for idx, (r, h) in enumerate(pairs):
            target = shard_a if idx % 2 == 0 else shard_b
            if idx % 2 == 0:
                shard_a = shard_a + wer(r, h)
            else:
                shard_b = shard_b + wer(r, h)
        merged = shard_a + shard_b
        assert merged == whole
        assert merged.wer == whole.wer

    def test_relative_reduction_values(self):
        assert 0.043 <= werr(11.3, 10.8) <= 0.045
        assert werr(11.3, 10.8) == pytest.approx(0.0442478, abs=1e-6)
        assert werr(11.7, 10.8) == pytest.approx(0.0769231, abs=1e-6)
        assert round(werr(11.7, 10.8), 3) == 0.077

    def test_relative_reduction_guards(self):
        with pytest.raises(ValueError):
            werr(0.0, 1.0)
        assert werr(0.10, 0.12) < 0  # regressions go negative


class TestAggregate:
    def breakdowns(self):
        return {
            # locale a: 1 error over 10 words; locale b: 30 over 100
            "loc-a": [WerBreakdown(1, 0, 0, 10)],
            "loc-b": [WerBreakdown(10, 10, 10, 100)],
        }

    def test_macro_vs_micro(self):
        rep = aggregate(self.breakdowns())
        assert rep.macro_avg_wer == pytest.approx((0.1 + 0.3) / 2)
        assert rep.micro_avg_wer == pytest.approx(31 / 110)
        assert rep.macro_avg_wer != rep.micro_avg_wer

    def test_baseline_tallies(self):
        rep = aggregate(self.breakdowns(),
                        baseline={"loc-a": 0.1, "loc-b": 0.4},
                        baseline_name="no-lm")
        assert (rep.improved, rep.tied, rep.regressed) == (1, 1, 0)
        assert rep.locales["loc-b"].werr == pytest.approx(werr(0.4, 0.3))
        assert rep.baseline_name == "no-lm"

    def test_zero_baseline_locale_has_no_werr(self, tmp_path):
        rep = aggregate(self.breakdowns(), baseline={"loc-a": 0.0, "loc-b": 0.4})
        assert rep.locales["loc-a"].baseline_wer == 0.0
        assert rep.locales["loc-a"].werr is None
        assert rep.locales["loc-b"].werr == pytest.approx(werr(0.4, 0.3))
        assert (rep.improved, rep.tied, rep.regressed) == (1, 0, 1)
        perfect = aggregate({"loc-a": [WerBreakdown(0, 0, 0, 10)]}, baseline={"loc-a": 0.0})
        assert perfect.locales["loc-a"].werr is None and perfect.tied == 1
        emit_report(rep, tmp_path)
        assert "loc-a,0.10000000000000001,0," in (tmp_path / "report.csv").read_text()
        assert report_from_json(tmp_path / "report.json").locales["loc-a"].werr is None

    def test_missing_baseline_locale(self):
        with pytest.raises(ValueError, match="loc-b"):
            aggregate(self.breakdowns(), baseline={"loc-a": 0.1})

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            aggregate({})
        with pytest.raises(ValueError):
            aggregate({"loc-a": []})

    def test_sharding_a_locale_is_invisible(self):
        parts = [WerBreakdown(1, 0, 0, 10), WerBreakdown(0, 2, 1, 20)]
        merged = {"loc-a": [parts[0] + parts[1]]}
        sharded = {"loc-a": parts}
        assert aggregate(merged).micro_avg_wer == \
            aggregate(sharded).micro_avg_wer


class TestReports:
    def make_report(self):
        return aggregate(
            {"loc-a": [WerBreakdown(1, 0, 0, 10)],
             "loc-b": [WerBreakdown(10, 10, 10, 100)]},
            baseline={"loc-a": 0.2, "loc-b": 0.4},
            baseline_name="no-lm",
        )

    def test_csv_layout(self, tmp_path):
        emit_report(self.make_report(), tmp_path)
        lines = (tmp_path / "report.csv").read_text().strip().split("\n")
        assert lines[0] == "locale,wer,baseline_wer,werr"
        rows = [ln.split(",") for ln in lines[1:]]
        assert [r[0] for r in rows] == ["loc-a", "loc-b", "macro_avg",
                                        "micro_avg"]
        assert float(rows[0][1]) == pytest.approx(0.1)
        assert float(rows[1][1]) == pytest.approx(0.3)
        assert float(rows[1][2]) == pytest.approx(0.4)
        assert float(rows[2][1]) == pytest.approx(0.2)
        assert float(rows[3][1]) == pytest.approx(31 / 110)

    def test_json_round_trip(self, tmp_path):
        rep = self.make_report()
        emit_report(rep, tmp_path)
        back = report_from_json(tmp_path / "report.json")
        assert isinstance(back, LangReport)
        assert back.macro_avg_wer == rep.macro_avg_wer
        assert back.micro_avg_wer == rep.micro_avg_wer
        assert (back.improved, back.tied, back.regressed) == \
            (rep.improved, rep.tied, rep.regressed)
        assert back.locales["loc-a"].breakdown == \
            rep.locales["loc-a"].breakdown
        assert back.baseline_name == "no-lm"

    def test_undecodable_report_names_the_file(self, tmp_path):
        emit_report(self.make_report(), tmp_path)
        path = tmp_path / "report.json"
        path.write_bytes(path.read_bytes().replace(b"no-lm", b"no-\xff"))
        with pytest.raises(ValueError, match=r"report\.json: not JSON"):
            report_from_json(path)


class TestUttFile:
    def test_parse(self, tmp_path):
        p = tmp_path / "u.tsv"
        p.write_text("u1\tloc-a\thello there\nu2\tloc-b\tbye\n\n")
        out = read_utt_file(p)
        assert out == {"u1": ("loc-a", "hello there"), "u2": ("loc-b", "bye")}

    def test_duplicate_id(self, tmp_path):
        p = tmp_path / "u.tsv"
        p.write_text("u1\tloc-a\ta\nu1\tloc-a\tb\n")
        with pytest.raises(ValueError, match="duplicate"):
            read_utt_file(p)

    def test_bad_column_count(self, tmp_path):
        p = tmp_path / "u.tsv"
        p.write_text("u1\tloc-a\n")
        with pytest.raises(ValueError, match="TAB"):
            read_utt_file(p)
