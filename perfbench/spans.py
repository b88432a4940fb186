"""In-memory span tracer for the traced benchmark run.

Timing wrappers are installed at the name each caller looks up (for example
``jordankron.frechet.rho`` and ``jordankron.toeplitz.rho`` for the two
callers of ``rho``), so the package itself is not edited.  Every wrapped
call records one span ``(id, name, start, end, parent, op)``; a span's self
time is its duration minus the time its child spans cover.  Spans stay in
memory until :meth:`Tracer.write` dumps them at the end of the run.

Counters that belong to a layer (matrix cells, Weyr chain length, rank
deficiencies, ...) are taken at the same boundary by a probe that runs after
the span has closed.  Probe time is charged to no layer: it counts as
covered time of the parent span, so it shows up only as tracing overhead.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.op_id = None
        self._stack: list[list] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.rho_keys: set = set()
        self.missing_hooks: list[str] = []
        self.probe_errors: set[str] = set()
        self._restore: list[tuple] = []

    # -- spans ------------------------------------------------------------

    def _enter(self, name: str) -> list:
        frame = [len(self.spans), name, perf_counter(), 0.0]
        self.spans.append(None)  # reserve the id; filled in on exit
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = perf_counter()
        self._stack.pop()
        sid, name, start, child = frame
        dur = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        self.spans[sid] = (sid, name, start, end,
                           parent[0] if parent else None, self.op_id)
        self.calls[name] += 1
        self.total_s[name] += dur
        self.self_s[name] += dur - child

    @contextmanager
    def span(self, name: str):
        frame = self._enter(name)
        try:
            yield
        finally:
            self._exit(frame)

    def add_foreign(self, spans: list) -> None:
        """Merge spans recorded by a child process into the current op.

        Child ids are renumbered; child roots hang under the innermost open
        span.  Child and parent share the monotonic clock on Linux.
        """
        parent = self._stack[-1][0] if self._stack else None
        base = len(self.spans)
        for sid, name, start, end, par, _ in spans:
            new_par = parent if par is None else base + par
            self.spans.append((base + sid, name, start, end, new_par,
                               self.op_id))

    def fold(self, stats: dict) -> None:
        """Add a child process's per-name aggregates to this tracer's."""
        for name, (calls, total, self_time) in stats["spans"].items():
            self.calls[name] += calls
            self.total_s[name] += total
            self.self_s[name] += self_time
        for key, value in stats["counts"].items():
            if key.endswith(".max_dim"):
                self.counts[key] = max(self.counts[key], value)
            else:
                self.counts[key] += value
        self.rho_keys.update(tuple(k) for k in stats["rho_keys"])

    def export(self) -> dict:
        """Per-name aggregates, JSON-ready, for a parent process to fold."""
        return {
            "spans": {n: [self.calls[n], self.total_s[n], self.self_s[n]]
                      for n in self.calls},
            "counts": dict(self.counts),
            "rho_keys": sorted(self.rho_keys),
        }

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, fn, name: str, probe):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._enter(name)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                tracer._exit(frame)
                if probe is not None:
                    p0 = perf_counter()
                    try:
                        probe(tracer, args, result, exc)
                    except Exception:  # a probe must never fail the op
                        tracer.probe_errors.add(name)
                    # Probe time is tracing overhead: keep it out of the
                    # parent's self time.
                    if tracer._stack:
                        tracer._stack[-1][3] += perf_counter() - p0

        return wrapper

    def install(self, hooks=None) -> None:
        """Install every hook whose target exists; note the others."""
        for module_name, attr, name, probe in hooks or HOOKS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.missing_hooks.append(f"{module_name}.{attr}")
                continue
            self._restore.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, probe))

    def uninstall(self) -> None:
        while self._restore:
            module, attr, fn = self._restore.pop()
            setattr(module, attr, fn)

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for sid, name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent, "op": op}))
                fh.write("\n")


# -- probes: counters taken at the layer boundary ---------------------------


def _weyr(t, args, sizes, exc):
    if sizes:
        # For a nilpotent matrix the number of powers before zero is the
        # largest block size, and the dimension is the sum of the sizes.
        t.counts["oracle.weyr.chain_len"] += sizes[0]
        dim = sum(sizes)
        t.counts["oracle.weyr.max_dim"] = max(t.counts["oracle.weyr.max_dim"], dim)


def _rank_int_rows(t, args, result, exc):
    rows = args[0]
    t.counts["exactmat.rank_int_rows.cells"] += len(rows) * (len(rows[0]) if rows else 0)


def _matmul_int_rows(t, args, result, exc):
    a, b = args[0], args[1]
    t.counts["exactmat.matmul_int_rows.madds"] += len(a) * len(b) * (len(b[0]) if b else 0)


def _rank(t, args, result, exc):
    a = args[0]
    t.counts["exactmat.rank.cells"] += a.rows * a.cols


def _rho(t, args, rk, exc):
    if exc is not None:
        return
    from jordankron.toeplitz import ToeplitzSpec, offset_c

    m, n, d, ell, k = args
    if m > n:
        m, n = n, m
    spec = ToeplitzSpec(m, n, d, ell, k)
    rows, cols = spec.n_rows, spec.n_cols
    t.rho_keys.add((rows, cols, offset_c(spec), d, ell))
    if rk < min(rows, cols):
        t.counts["toeplitz.rho.deficient"] += 1


def _load_records(t, args, result, exc):
    if result is not None:
        t.counts["toeplitz.scan.records_resumed"] += len(result)


def _pair_prediction(t, args, pred, exc):
    if pred is not None:
        t.counts[f"frechet.pair_prediction.calls_{pred.branch}"] += 1


def _generic_pair_sizes(t, args, result, exc):
    if exc is not None and type(exc).__name__ == "DegenerateCaseError":
        t.counts["generic.generic_pair_sizes.degenerate"] += 1


def _hasse(t, args, result, exc):
    t.counts["polyring.hasse_value_table.cells"] += (args[3] + 1) * (args[4] + 1)


def _block_pair(t, args, result, exc):
    m, n = args[2], args[4]
    t.counts["bttb.build_block_pair.entries"] += (m * n) ** 2


# (module where the caller looks the name up, attribute, span name, probe)
HOOKS = [
    ("jordankron.cli", "main", "cli.main", None),
    ("jordankron.cli", "oracle_jcf", "oracle.oracle_jcf", None),
    ("jordankron.cli", "oracle_jcf_matrix", "oracle.oracle_jcf_matrix", None),
    ("jordankron.cli", "weyr_structure", "oracle.weyr", _weyr),
    ("jordankron.oracle", "weyr_structure", "oracle.weyr", _weyr),
    ("jordankron.oracle", "_rank_int_rows", "exactmat.rank_int_rows", _rank_int_rows),
    ("jordankron.oracle", "_matmul_int_rows", "exactmat.matmul_int_rows", _matmul_int_rows),
    ("jordankron.cli", "build_block_pair", "bttb.build_block_pair", _block_pair),
    ("jordankron.oracle", "build_block_pair", "bttb.build_block_pair", _block_pair),
    ("jordankron.cli", "build_raw_kron", "bttb.build_raw_kron", None),
    ("jordankron.cli", "pair_prediction", "frechet.pair_prediction", _pair_prediction),
    ("jordankron.frechet", "pair_prediction", "frechet.pair_prediction", _pair_prediction),
    ("jordankron.cli", "generic_pair_sizes", "generic.generic_pair_sizes", _generic_pair_sizes),
    ("jordankron.generic", "generic_pair_sizes", "generic.generic_pair_sizes", _generic_pair_sizes),
    ("jordankron.generic", "hasse_value_table", "polyring.hasse_value_table", _hasse),
    ("jordankron.bttb", "hasse_value_table", "polyring.hasse_value_table", _hasse),
    ("jordankron.polyring", "hasse_value_table", "polyring.hasse_value_table", _hasse),
    ("jordankron.frechet", "rho", "toeplitz.rho", _rho),
    ("jordankron.toeplitz", "rho", "toeplitz.rho", _rho),
    ("jordankron.toeplitz", "build_R", "toeplitz.build_R", None),
    ("jordankron.toeplitz", "rank", "exactmat.rank", _rank),
    ("jordankron.toeplitz", "scan_deficiencies", "toeplitz.scan", None),
    ("jordankron.toeplitz", "_load_records", "toeplitz.scan.load_records", _load_records),
]
