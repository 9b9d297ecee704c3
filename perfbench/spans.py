"""In-memory spans around the benchmark's own calls into phasebeam.

A span is (id, parent, pass id, name, start, end).  Spans are only opened
by benchmark code, around a call into one public phasebeam function, so
the library itself is never instrumented.  Counts of work done (terms,
bytes, checks) are recorded at the same boundaries.
"""

from __future__ import annotations

import gzip
import statistics
from collections import defaultdict
from time import perf_counter


class NullTracer:
    """Same interface as Tracer; records nothing."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, key, n):
        pass


class Tracer:
    """Records a span for every `call` and a tally for every `count`."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: dict[tuple[int, str], int] = defaultdict(int)
        self.pass_id = 0
        self._stack: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(sid)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, parent, self.pass_id, name, start, end)

    def count(self, key, n):
        self.counts[(self.pass_id, key)] += n

    def self_times(self) -> dict[tuple[int, str], float]:
        """Summed self time per (pass id, span name).

        Self time is a span's duration minus the part of its interval that
        its child spans cover.
        """
        children = defaultdict(list)
        for sid, parent, _, _, start, end in self.spans:
            if parent >= 0:
                children[parent].append((start, end))
        out: dict[tuple[int, str], float] = defaultdict(float)
        for sid, _, pass_id, name, start, end in self.spans:
            covered = 0.0
            reach = start
            for c_start, c_end in sorted(children.get(sid, ())):
                c_start = max(c_start, reach)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            out[(pass_id, name)] += (end - start) - covered
        return out

    def call_counts(self) -> dict[tuple[int, str], int]:
        out: dict[tuple[int, str], int] = defaultdict(int)
        for _, _, pass_id, name, _, _ in self.spans:
            out[(pass_id, name)] += 1
        return out

    def write_tsv(self, path) -> None:
        """Write every span, gzipped, times in seconds from the first start."""
        origin = min((s[4] for s in self.spans), default=0.0)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id\tparent\tpass\tname\tstart_s\tend_s\n")
            for sid, parent, pass_id, name, start, end in self.spans:
                fh.write(f"{sid}\t{parent}\t{pass_id}\t{name}\t"
                         f"{start - origin:.9f}\t{end - origin:.9f}\n")


def per_pass_median(table: dict[tuple[int, str], float], name: str,
                    pass_ids) -> float:
    """Median over the given passes of one name's per-pass total; the lower
    middle value for an even count, so counts stay whole."""
    return statistics.median_low(table.get((p, name), 0) for p in pass_ids)
