"""Spans around the program's public functions, for the traced mode.

The program has no timers of its own. A Tracer replaces a function at the
attribute where its caller looks it up (`moefusion.fusion.lm_score_step`,
`moefusion.trainer.adafactor_step`, ...) with a wrapper that records one span
per call. Wrappers are installed only in a traced run, so the untraced run
that gives the end-to-end numbers executes the program unchanged.
"""

from __future__ import annotations

import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    round: int  # CLI invocation (or set-up repetition) the call fell in
    step: int   # training step, counted from the trainer's loss call
    utt: int    # utterance, counted from the beam-search call
    start: float
    end: float
    self_s: float  # duration minus the time spent in wrapped callees
    info: object = None

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.round = 0
        self.step = 0
        self.utt = 0
        self._open: list[float] = []  # child time accumulated by each open span
        self._installed: list[tuple[object, str, object]] = []

    def wrap(self, module, attr: str, name: str, *, counter: str | None = None,
             before=None, after=None) -> None:
        """Trace module.attr as `name`.

        counter names the index ("step" or "utt") the call opens.
        before(args, kwargs) runs ahead of the span and its result is kept as
        the span's info; after(args, result, info) runs after the span and
        may replace that info.
        """
        fn = getattr(module, attr)

        def traced(*args, **kwargs):
            if counter is not None:
                setattr(self, counter, getattr(self, counter) + 1)
            info = before(args, kwargs) if before is not None else None
            self._open.append(0.0)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                child = self._open.pop()
                if self._open:
                    self._open[-1] += end - start
            if after is not None:
                info = after(args, out, info)
            self.spans.append(Span(name, self.round, self.step, self.utt,
                                   start, end, end - start - child, info))
            return out

        self._installed.append((module, attr, fn))
        setattr(module, attr, traced)

    def restore(self) -> None:
        """Put every wrapped function back."""
        for module, attr, fn in reversed(self._installed):
            setattr(module, attr, fn)
        self._installed.clear()

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]
