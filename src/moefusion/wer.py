"""Word error rate, per-locale aggregation, and report emission.

WER uses Levenshtein alignment over whitespace-split words with unit costs.
The backtrace prefers substitution over deletion over insertion when costs
tie, so an S count never silently becomes a D+I pair. Aggregation pools raw
error counts per locale (shard-merge invariant) and reports both the
unweighted mean of per-locale WERs (macro) and the pooled-count WER (micro).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import read_text

__all__ = [
    "WerBreakdown", "LocaleEntry", "LangReport",
    "wer", "werr", "aggregate", "emit_report", "report_from_json",
    "read_utt_file",
]


@dataclass
class WerBreakdown:
    """Alignment error counts against a reference of ref_words words."""

    substitutions: int = 0
    deletions: int = 0
    insertions: int = 0
    ref_words: int = 0

    @property
    def errors(self) -> int:
        return self.substitutions + self.deletions + self.insertions

    @property
    def wer(self) -> float:
        if self.ref_words == 0:
            raise ValueError("WER undefined for an empty reference")
        return self.errors / self.ref_words

    def __add__(self, other: "WerBreakdown") -> "WerBreakdown":
        return WerBreakdown(
            substitutions=self.substitutions + other.substitutions,
            deletions=self.deletions + other.deletions,
            insertions=self.insertions + other.insertions,
            ref_words=self.ref_words + other.ref_words,
        )


def wer(ref: str, hyp: str) -> WerBreakdown:
    """Align hyp against ref, both whitespace-split into words, and count
    substitutions/deletions/insertions.

    An empty reference is an error, an empty hypothesis scores len(ref)
    deletions.
    """
    r, h = ref.split(), hyp.split()
    if not r:
        raise ValueError("reference must contain at least one word")

    n, m = len(r), len(h)
    dist = np.zeros((n + 1, m + 1), dtype=np.int64)
    dist[:, 0] = np.arange(n + 1)
    dist[0, :] = np.arange(m + 1)
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            sub = dist[i - 1, j - 1] + (r[i - 1] != h[j - 1])
            dele = dist[i - 1, j] + 1
            ins = dist[i, j - 1] + 1
            dist[i, j] = min(sub, dele, ins)

    subs = dels = inss = 0
    i, j = n, m
    while i > 0 or j > 0:
        if i > 0 and j > 0:
            step = dist[i - 1, j - 1] + (r[i - 1] != h[j - 1])
            if dist[i, j] == step:
                if r[i - 1] != h[j - 1]:
                    subs += 1
                i -= 1
                j -= 1
                continue
        if i > 0 and dist[i, j] == dist[i - 1, j] + 1:
            dels += 1
            i -= 1
            continue
        inss += 1
        j -= 1
    return WerBreakdown(
        substitutions=subs, deletions=dels, insertions=inss, ref_words=n
    )


def werr(baseline_wer: float, system_wer: float) -> float:
    """Relative WER reduction (baseline - system) / baseline."""
    if baseline_wer <= 0:
        raise ValueError(f"baseline WER must be positive, got {baseline_wer}")
    return (baseline_wer - system_wer) / baseline_wer


@dataclass
class LocaleEntry:
    breakdown: WerBreakdown
    wer: float
    baseline_wer: float | None = None
    werr: float | None = None


@dataclass
class LangReport:
    locales: dict[str, LocaleEntry]
    macro_avg_wer: float
    micro_avg_wer: float
    improved: int | None = None
    tied: int | None = None
    regressed: int | None = None
    baseline_name: str = ""


def aggregate(
    per_locale: Mapping[str, Sequence[WerBreakdown]],
    baseline: Mapping[str, float] | None = None,
    baseline_name: str = "",
) -> LangReport:
    """Pool per-utterance breakdowns into a per-locale report.

    Counts are summed before dividing, so splitting a locale's utterances
    into shards and merging gives identical numbers. With a baseline
    (locale -> WER) each locale also gets a relative reduction (None where
    the baseline WER is 0), and locales are tallied as improved/tied/regressed
    against it.
    """
    if not per_locale:
        raise ValueError("aggregate needs at least one locale")
    locales: dict[str, LocaleEntry] = {}
    pooled = WerBreakdown()
    for loc in sorted(per_locale):
        shards = list(per_locale[loc])
        if not shards:
            raise ValueError(f"locale {loc!r} has no utterances")
        total = WerBreakdown()
        for b in shards:
            total = total + b
        pooled = pooled + total
        entry = LocaleEntry(breakdown=total, wer=total.wer)
        if baseline is not None:
            if loc not in baseline:
                raise ValueError(f"baseline is missing locale {loc!r}")
            entry.baseline_wer = float(baseline[loc])
            entry.werr = werr(entry.baseline_wer, entry.wer) if entry.baseline_wer else None
        locales[loc] = entry

    macro = float(np.mean([e.wer for e in locales.values()]))
    report = LangReport(
        locales=locales,
        macro_avg_wer=macro,
        micro_avg_wer=pooled.wer,
        baseline_name=baseline_name,
    )
    if baseline is not None:
        report.improved = sum(1 for e in locales.values() if e.wer < e.baseline_wer)
        report.tied = sum(1 for e in locales.values() if e.wer == e.baseline_wer)
        report.regressed = sum(1 for e in locales.values() if e.wer > e.baseline_wer)
    return report


def emit_report(report: LangReport, out_dir: str | Path) -> None:
    """Write the report into out_dir as report.csv (one locale per row) and
    report.json (round-trips through report_from_json)."""
    out_dir = Path(out_dir)
    rows = [["locale", "wer", "baseline_wer", "werr"]]
    for loc in sorted(report.locales):
        e = report.locales[loc]
        base = f"{e.baseline_wer:.17g}" if e.baseline_wer is not None else ""
        rel = f"{e.werr:.17g}" if e.werr is not None else ""
        rows.append([loc, f"{e.wer:.17g}", base, rel])
    rows.append(["macro_avg", f"{report.macro_avg_wer:.17g}", "", ""])
    rows.append(["micro_avg", f"{report.micro_avg_wer:.17g}", "", ""])
    with open(out_dir / "report.csv", "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    doc = {
        "macro_avg_wer": report.macro_avg_wer,
        "micro_avg_wer": report.micro_avg_wer,
        "improved": report.improved,
        "tied": report.tied,
        "regressed": report.regressed,
        "baseline_name": report.baseline_name,
        "locales": {
            loc: {
                "substitutions": e.breakdown.substitutions,
                "deletions": e.breakdown.deletions,
                "insertions": e.breakdown.insertions,
                "ref_words": e.breakdown.ref_words,
                "wer": e.wer,
                "baseline_wer": e.baseline_wer,
                "werr": e.werr,
            }
            for loc, e in sorted(report.locales.items())
        },
    }
    (out_dir / "report.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n",
                                         encoding="utf-8")


def report_from_json(path: str | Path) -> LangReport:
    """Read emit_report's report.json; a malformed report raises ValueError naming
    the path and the first field at fault."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"{path}: not JSON: {exc}") from None

    def get(obj, key, kinds, where=""):
        if not isinstance(obj, dict) or key not in obj:
            raise ValueError(f"{path}: field {where}{key} is missing")
        val = obj[key]
        if isinstance(val, bool) or not isinstance(val, kinds):
            raise ValueError(f"{path}: field {where}{key} is {val!r}")
        return val

    num, opt_num, opt_int = (int, float), (int, float, type(None)), (int, type(None))
    locales = {}
    for loc, e in get(doc, "locales", dict).items():
        where = f"locales.{loc}."
        locales[loc] = LocaleEntry(
            breakdown=WerBreakdown(*(get(e, k, int, where) for k in (
                "substitutions", "deletions", "insertions", "ref_words"))),
            wer=get(e, "wer", num, where),
            baseline_wer=get(e, "baseline_wer", opt_num, where),
            werr=get(e, "werr", opt_num, where),
        )
    return LangReport(
        locales=locales,
        macro_avg_wer=get(doc, "macro_avg_wer", num),
        micro_avg_wer=get(doc, "micro_avg_wer", num),
        improved=get(doc, "improved", opt_int),
        tied=get(doc, "tied", opt_int),
        regressed=get(doc, "regressed", opt_int),
        baseline_name=doc.get("baseline_name", ""),
    )


def read_utt_file(path: str | Path) -> dict[str, tuple[str, str]]:
    """Parse `utt_id<TAB>locale<TAB>text` lines into utt_id -> (locale, text)."""
    out: dict[str, tuple[str, str]] = {}
    for ln, line in enumerate(read_text(path).splitlines(), 1):
        if not line.strip():
            continue
        cols = line.split("\t")
        if len(cols) != 3:
            raise ValueError(f"{path}:{ln}: expected `utt_id<TAB>locale<TAB>text`")
        utt, loc, text = cols
        if utt in out:
            raise ValueError(f"{path}:{ln}: duplicate utterance id {utt!r}")
        out[utt] = (loc, text)
    return out
