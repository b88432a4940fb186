"""The four benchmark workloads.

Each workload draws its operations from a pool of instances whose expected
outputs were generated once, on the seed commit, by ``gen_pools.py``
(``data/<workload>.json``).  The pool is split into cost strata using the
generation-time cost of each instance; one *round* takes one instance from
every stratum, chosen and ordered by the run's seed (each stratum is walked
in a seed-shuffled order, so a run repeats no instance before it has used
the whole stratum).  A run ends on a round boundary.  Every run therefore
sees a different set of instances with the same cost profile, which keeps
throughput and percentiles comparable across seeds.

A workload object offers:

* ``rounds(seed)``: the endless, seed-determined sequence of rounds (lists
  of ops);
* ``reset(op)``: untimed preparation just before an op (file bookkeeping);
* ``execute(op)``: the timed call into the package;
* ``verify(op, output)``: the correctness gate, ``None`` when the output
  is right and a short reason otherwise.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import resource
import subprocess
import sys
from pathlib import Path
from time import perf_counter

DATA = Path(__file__).resolve().parent / "data"
CHILD = Path(__file__).resolve().parent / "child.py"
CLI_BOOT = "from jordankron.cli import entry; entry()"


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def records_digest(lines) -> str:
    """Order-free digest of JSONL records: resuming appends in another order."""
    canon = sorted(json.dumps(json.loads(ln), sort_keys=True)
                   for ln in lines if ln.strip())
    return hashlib.sha256("\n".join(canon).encode("utf-8")).hexdigest()


def cost_strata(items: list, count: int) -> list[list]:
    """Split items into ``count`` consecutive groups by ascending cost."""
    ordered = sorted(items, key=lambda it: it["cost_s"])
    size = len(ordered) / count
    return [ordered[round(i * size):round((i + 1) * size)] for i in range(count)]


class _Walk:
    """Endless walk through one stratum, reshuffled after each pass."""

    def __init__(self, items: list, rng: random.Random):
        self.items, self.rng, self.order = items, rng, []

    def next(self):
        if not self.order:
            self.order = self.rng.sample(self.items, len(self.items))
        return self.order.pop()


class Workload:
    name = ""
    pool_file = ""

    def __init__(self, root: Path, workdir: Path):
        self.root = root
        self.workdir = workdir
        self.tracer = None
        with open(DATA / self.pool_file, encoding="utf-8") as fh:
            self.pool = json.load(fh)
        self.strata = self.make_strata()

    def make_strata(self) -> list[list]:
        """The pool split into strata; a round picks one op from each."""
        raise NotImplementedError

    def round_ops(self, picks: list) -> list:
        return picks

    def rounds(self, seed: int):
        rng = random.Random(seed)
        walks = [_Walk(stratum, rng) for stratum in self.strata]
        while True:
            picks = [walk.next() for walk in walks]
            rng.shuffle(picks)
            yield self.round_ops(picks)

    def warmup_op(self):
        """The op built from the cheapest instance of the pool."""
        cheapest = min((it for stratum in self.strata for it in stratum),
                       key=lambda it: it["cost_s"])
        return self.round_ops([cheapest])[0]

    def begin_phase(self, workdir: Path) -> None:
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)

    def reset(self, op) -> None:
        pass

    def execute(self, op):
        raise NotImplementedError

    def verify(self, op, output) -> "str | None":
        raise NotImplementedError

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def extra_layer_metrics(self) -> dict:
        return {}


class CheckRandom(Workload):
    """In-process ``cli.main(["check", ...])`` on random instances."""

    name = "check-random"
    pool_file = "check-random.json"

    def __init__(self, root, workdir):
        super().__init__(root, workdir)
        import jordankron.cli

        self.cli = jordankron.cli

    def make_strata(self):
        return cost_strata(self.pool["instances"], 30)

    def round_ops(self, picks):
        # Alternate derivative and generic mode as far as the picks allow.
        lanes = [[op for op in picks if op["mode"] == m] for m in ("f", "p")]
        ops = []
        for i in range(max(map(len, lanes))):
            ops.extend(lane[i] for lane in lanes if i < len(lane))
        return ops

    def execute(self, op):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = self.cli.main(list(op["argv"]))
        return rc, buf.getvalue()

    def verify(self, op, output):
        rc, text = output
        if rc != 0:
            return f"exit {rc}"
        doc = json.loads(text)
        if doc.get("agreement") is not True:
            return "agreement is not true"
        if digest(doc) != op["digest"]:
            return "output differs from the seed commit"
        return None


class PredictLarge(Workload):
    """Library ``frechet_jcf`` on large equal-eigenvalue specs, plus
    ``predict_generic`` on single large pairs."""

    name = "predict-large"
    pool_file = "predict-large.json"

    def __init__(self, root, workdir):
        super().__init__(root, workdir)
        import jordankron.frechet
        import jordankron.generic
        from jordankron import BivariatePoly, JordanSpec, UnivariatePoly

        self.frechet = jordankron.frechet
        self.generic = jordankron.generic
        self._parsers = (UnivariatePoly, BivariatePoly, JordanSpec)
        self._parsed: dict[int, tuple] = {}

    def make_strata(self):
        inst = self.pool["instances"]
        # Every round also holds one generic op at the largest size, so
        # peak_rss_mb measures the same Hasse table on every seed.
        peak = [i for i in inst if i.get("peak")]
        return cost_strata([i for i in inst if not i.get("peak")], 30) + [peak]

    def _inputs(self, op):
        key = id(op)
        if key not in self._parsed:
            upoly, bpoly, spec = self._parsers
            poly = upoly.from_string(op["f"]) if op["kind"] == "frechet" \
                else bpoly.from_string(op["p"])
            self._parsed[key] = (poly, spec.from_json_obj(op["X"]),
                                 spec.from_json_obj(op["Y"]))
        return self._parsed[key]

    def rounds(self, seed):
        # Parsing the inputs belongs to input generation, not to the op.
        for ops in super().rounds(seed):
            for op in ops:
                self._inputs(op)
            yield ops

    def execute(self, op):
        poly, x, y = self._inputs(op)
        if op["kind"] == "frechet":
            return self.frechet.frechet_jcf(poly, x, y)
        return self.generic.predict_generic(poly, x, y)

    def verify(self, op, output):
        if digest(output.to_json_obj()) != op["digest"]:
            return "structure differs from the seed commit"
        return None


class Scan(Workload):
    """``scan_deficiencies`` pairs: a fresh scan of a small box writes a
    JSONL file, then a larger box resumes from it."""

    name = "scan"
    pool_file = "scan.json"

    def __init__(self, root, workdir):
        super().__init__(root, workdir)
        import jordankron.toeplitz

        self.toeplitz = jordankron.toeplitz
        self._files = 0
        self._size_before = 0
        self._lines_before = 0
        self.bytes_written = 0
        self.records_computed = 0

    def make_strata(self):
        return cost_strata(self.pool["pairs"], 16)

    def begin_phase(self, workdir):
        super().begin_phase(workdir)
        self.bytes_written = self.records_computed = 0

    def round_ops(self, picks):
        ops = []
        for pair in picks:
            self._files += 1
            ops.append({"kind": "fresh", "box": pair["small"], "file": self._files,
                        "records": pair["small_records"],
                        "deficient": pair["small_deficient"]})
            ops.append({"kind": "resume", "box": pair["big"], "file": self._files,
                        "records": pair["big_records"],
                        "deficient": pair["big_deficient"]})
        return ops

    def _path(self, op) -> Path:
        return self.workdir / f"scan-{op['file']}.jsonl"

    def reset(self, op):
        path = self._path(op)
        if op["kind"] == "fresh":
            path.unlink(missing_ok=True)
            self._size_before = self._lines_before = 0
        elif path.exists():  # a failed fresh op may have left no file
            self._size_before = path.stat().st_size
            self._lines_before = _count_lines(path)
        else:
            self._size_before = self._lines_before = 0

    def execute(self, op):
        return self.toeplitz.scan_deficiencies(*op["box"], out_path=self._path(op))

    def verify(self, op, output):
        path = self._path(op)
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
        self.bytes_written += path.stat().st_size - self._size_before
        self.records_computed += len(lines) - self._lines_before
        if op["kind"] == "resume":
            path.unlink()
        if digest([r.to_json_obj() for r in output]) != op["deficient"]:
            return "deficient records differ from the seed commit"
        if records_digest(lines) != op["records"]:
            return "JSONL records differ from the seed commit"
        return None

    def extra_layer_metrics(self):
        return {"toeplitz.scan.records_computed": self.records_computed,
                "toeplitz.scan.bytes_written": self.bytes_written}


def _count_lines(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for ln in fh if ln.strip())


class CliStartup(Workload):
    """Subprocess runs of the README examples through the CLI entry point."""

    name = "cli-startup"
    pool_file = "cli-startup.json"

    def __init__(self, root, workdir):
        super().__init__(root, workdir)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.import_s: list[float] = []
        self.process_s: list[float] = []

    def make_strata(self):
        by_name: dict[str, list] = {}
        for cmd in self.pool["commands"]:
            by_name.setdefault(cmd["name"], []).append(cmd)
        # One stratum per README command: a round runs each once.
        return [by_name[name] for name in sorted(by_name)]

    def reset(self, op):
        if op["name"] == "scan-ranks":
            (self.workdir / "records.jsonl").unlink(missing_ok=True)

    def execute(self, op):
        if self.tracer is None:
            argv = [sys.executable, "-c", CLI_BOOT, *op["argv"]]
        else:
            spans_path = self.workdir / "child-spans.json"
            argv = [sys.executable, str(CHILD), str(spans_path), *op["argv"]]
        t0 = perf_counter()
        proc = subprocess.run(argv, cwd=self.workdir, env=self.env,
                              capture_output=True, text=True, check=False)
        wall = perf_counter() - t0
        if self.tracer is not None:
            with open(spans_path, encoding="utf-8") as fh:
                child = json.load(fh)
            self.tracer.add_foreign(child["spans"])
            self.tracer.fold(child["stats"])
            self.import_s.append(child["import_s"])
            self.process_s.append(wall - child["import_s"])
        return proc

    def verify(self, op, proc):
        if proc.returncode != 0:
            return f"exit {proc.returncode}: {proc.stdout[-200:]}{proc.stderr[-200:]}"
        if op["name"] == "scan-ranks":
            out = [json.loads(ln) for ln in proc.stdout.splitlines() if ln.strip()]
        else:
            out = json.loads(proc.stdout)
        for key, want in op.get("readme", {}).items():
            if out.get(key) != want:
                return f"{key} is not what the README states"
        if digest(out) != op["digest"]:
            return "output differs from the seed commit"
        return None

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    def extra_layer_metrics(self):
        from statistics import median

        return {"cli.import_s": median(self.import_s) if self.import_s else 0.0,
                "cli.process_s": median(self.process_s) if self.process_s else 0.0}


WORKLOADS = {w.name: w for w in (CheckRandom, PredictLarge, Scan, CliStartup)}
