"""Generate the instance pools and their expected outputs.

Run once, from the repository root, on the commit whose outputs define
"correct" (the pools in ``data/`` come from the commit that introduced the
benchmark):

    python3 perfbench/gen_pools.py [workload ...]

Instances come from a fixed pool seed, so the inputs are reproducible; the
expected outputs and the per-instance costs (used only to form cost strata;
timed as the benchmark loop times an op, calibrated, least of three) are
measured here.  Every expected output is cross-checked before it is
written, by an independent route wherever one is affordable:

* check-random: the document's oracle result against a library
  ``oracle_jcf`` call, and the closed-form prediction against both;
* predict-large: pairs with tangent multiplicity d = 1 against the generic
  Kronecker-sum formula (the dimensions are beyond the oracle);
* scan: a resumed scan against a fresh scan of the same box, and every
  deficient record's rank against rational (non-Bareiss) elimination;
* cli-startup: the results stated in the README, and ``oracle_jcf`` for the
  derivative examples.

An instance whose output fails a cross-check aborts generation: that is a
defect to report, not an instance to drop.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from random import Random
from time import perf_counter

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from jordankron import (  # noqa: E402
    BivariatePoly,
    DegenerateCaseError,
    JordanSpec,
    UnivariatePoly,
    bezout_quotient,
    build_R,
    cli,
    frechet_jcf,
    generic_pair_sizes,
    oracle_jcf,
    predict_generic,
    scan_deficiencies,
)
from jordankron.exactmat import rank  # noqa: E402
from jordankron.frechet import pair_prediction  # noqa: E402

from calibrate import Speedometer, pin_to_one_cpu  # noqa: E402
from workloads import CLI_BOOT, DATA, digest, records_digest  # noqa: E402

POOL_SEED = 2512_08399
EIGS = (-2, -1, 0, 1, 2)


class CrossCheckError(AssertionError):
    pass


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise CrossCheckError(what)


SPEED = Speedometer()
COST_REPEATS = 3


def _timed(fn, *args, cap=None, reset=None, **kwargs):
    """(output, cost): the least of COST_REPEATS calibrated timings, each
    after a garbage collection, as the benchmark loop times an op.  Stops
    after the first call when it exceeds ``cap``; ``reset`` runs before
    each call."""
    best = float("inf")
    for _ in range(COST_REPEATS):
        if reset is not None:
            reset()
        gc.collect()
        SPEED.sample()
        t0 = perf_counter()
        out = fn(*args, **kwargs)
        dt = perf_counter() - t0
        SPEED.sample()
        best = min(best, dt * SPEED.scale(t0, t0 + dt))
        if cap is not None and best > cap:
            break
    return out, best


def _run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(list(argv))
    return rc, buf.getvalue()


def _coeffs(values) -> str:
    return ",".join(str(v) for v in values)


# -- check-random ------------------------------------------------------------


def _random_spec(rng: Random) -> list[dict]:
    return [{"eig": str(rng.choice(EIGS)), "size": rng.randint(1, 8)}
            for _ in range(rng.randint(1, 3))]


def _random_univariate(rng: Random) -> str:
    deg = rng.randint(2, 5)
    c = [rng.randint(-3, 3) for _ in range(deg + 1)]
    while c[-1] == 0:
        c[-1] = rng.randint(-3, 3)
    return _coeffs(c)


def _random_bivariate(rng: Random) -> str:
    rows, cols = rng.randint(1, 3), rng.randint(1, 3)
    return ";".join(_coeffs(rng.randint(-2, 2) for _ in range(cols))
                    for _ in range(rows))


def gen_check_random(rng: Random, count: int = 480, cost_cap: float = 1.5):
    instances = []
    while len(instances) < count:
        mode = "f" if len(instances) % 2 == 0 else "p"
        raw = rng.random() < 1 / 8
        x, y = _random_spec(rng), _random_spec(rng)
        tx = sum(b["size"] for b in x)
        ty = sum(b["size"] for b in y)
        if tx * ty > (36 if raw else 400):
            continue
        poly = _random_univariate(rng) if mode == "f" else _random_bivariate(rng)
        argv = ["check", f"--{mode}={poly}", "--X", json.dumps(x),
                "--Y", json.dumps(y)] + (["--raw-kron"] if raw else [])
        (rc, text), cost = _timed(_run_cli, argv, cap=cost_cap)
        if cost > cost_cap:
            continue
        doc = json.loads(text)
        _expect(rc == 0 and doc.get("agreement") is True, f"check failed: {argv}")
        xs, ys = JordanSpec.from_json_obj(x), JordanSpec.from_json_obj(y)
        if mode == "f":
            f = UnivariatePoly.from_string(poly)
            p = bezout_quotient(f)
            predicted = frechet_jcf(f, xs, ys).to_json_obj()
        else:
            p = BivariatePoly.from_string(poly)
            try:
                predicted = None if p.is_constant() else \
                    predict_generic(p, xs, ys).to_json_obj()
            except DegenerateCaseError:
                predicted = None
        oracle = oracle_jcf(p, xs, ys).to_json_obj()
        _expect(doc["result"] == oracle, f"oracle mismatch: {argv}")
        if predicted is not None:
            _expect(predicted == oracle, f"prediction mismatch: {argv}")
        instances.append({"mode": mode, "raw": raw, "argv": argv,
                          "cost_s": round(cost, 6), "digest": digest(doc)})
    return {"instances": instances}


# -- predict-large -----------------------------------------------------------


def _tangent_poly(rng: Random, lam: int, d: int) -> UnivariatePoly:
    """f = (w - lam)^(d+1) g(w) + a w + b with g(lam) != 0, so the shifted
    derivative has root multiplicity exactly d at lam."""
    while True:
        g = UnivariatePoly([rng.randint(-2, 2) for _ in range(rng.randint(1, 2))])
        if g(lam) != 0:
            break
    f = g
    for _ in range(d + 1):
        f = f * UnivariatePoly([-lam, 1])
    return f + UnivariatePoly([rng.randint(-3, 3), rng.randint(-3, 3)])


def _random_low_degree(rng: Random) -> BivariatePoly:
    while True:
        grid = [[rng.randint(-3, 3) if i + j <= 2 else 0 for j in range(3)]
                for i in range(3)]
        p = BivariatePoly(grid)
        if not p.is_constant():
            return p


def gen_predict_large(rng: Random, frechet_count: int = 240,
                      generic_count: int = 80, cost_cap: float = 1.0):
    instances = []
    while sum(i["kind"] == "frechet" for i in instances) < frechet_count:
        lam, d = rng.choice(EIGS), rng.randint(1, 4)
        f = _tangent_poly(rng, lam, d)
        x = JordanSpec([(lam, rng.randint(10, 24)) for _ in range(rng.randint(1, 3))])
        y = x if rng.random() < 1 / 3 else JordanSpec(
            [(lam, rng.randint(10, 24)) for _ in range(rng.randint(1, 3))])
        result, cost = _timed(frechet_jcf, f, x, y, cap=cost_cap)
        if cost > cost_cap:
            continue
        _expect(pair_prediction(f, lam, 2, lam, 2).local_mult == d,
                f"tangent multiplicity is not {d}: {f}")
        if d == 1:
            p = bezout_quotient(f)
            for _, m in x.blocks:
                for _, n in y.blocks:
                    _expect(generic_pair_sizes(p, lam, lam, m, n)
                            == pair_prediction(f, lam, m, lam, n).sizes,
                            f"d = 1 pair disagrees with the generic formula: {f}")
        instances.append({"kind": "frechet", "d": d, "f": f.to_string(),
                          "X": x.to_json_obj(), "Y": y.to_json_obj(),
                          "cost_s": round(cost, 6),
                          "digest": digest(result.to_json_obj())})
    while len(instances) < frechet_count + generic_count:
        p = _random_low_degree(rng)
        lam, mu = rng.choice(EIGS), rng.choice(EIGS)
        # One generic instance in six sits at the largest size.
        peak = (len(instances) - frechet_count) % 6 == 0
        m, n = (2000, 2000) if peak else (rng.randint(200, 1999), rng.randint(200, 1999))
        x, y = JordanSpec.single(lam, m), JordanSpec.single(mu, n)
        try:
            result, cost = _timed(predict_generic, p, x, y)
        except DegenerateCaseError:
            continue
        instances.append({"kind": "generic", "peak": peak, "p": p.to_string(),
                          "X": x.to_json_obj(), "Y": y.to_json_obj(),
                          "cost_s": round(cost, 6),
                          "digest": digest(result.to_json_obj())})
    return {"instances": instances}


# -- scan --------------------------------------------------------------------


def gen_scan(rng: Random, count: int = 160):
    pairs = []
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for i in range(count):
            big = [rng.randint(2, 16), rng.randint(2, 16), rng.randint(1, 5),
                   rng.randint(1, 4)]
            small = [rng.randint(1, b) for b in big]
            path = Path(tmp) / f"{i}.jsonl"
            fresh_path = Path(tmp) / f"{i}-fresh.jsonl"
            small_def, c1 = _timed(scan_deficiencies, *small, out_path=path,
                                   reset=lambda: path.unlink(missing_ok=True))
            small_text = path.read_text()
            small_lines = small_text.splitlines()
            big_def, c2 = _timed(scan_deficiencies, *big, out_path=path,
                                 reset=lambda: path.write_text(small_text))
            big_lines = path.read_text().splitlines()
            fresh_def = scan_deficiencies(*big, out_path=fresh_path)
            _expect(records_digest(big_lines)
                    == records_digest(fresh_path.read_text().splitlines()),
                    f"resumed scan differs from a fresh scan: {small} -> {big}")
            _expect([r.to_json_obj() for r in fresh_def]
                    == [r.to_json_obj() for r in big_def],
                    f"resumed deficient list differs: {small} -> {big}")
            for rec in big_def:
                _expect(rank(build_R(rec.spec).to_rational()) == rec.rank,
                        f"Bareiss and rational ranks differ at {rec.spec}")
            pairs.append({
                "small": small, "big": big, "cost_s": round(c1 + c2, 6),
                "small_cost_s": round(c1, 6), "big_cost_s": round(c2, 6),
                "small_records": records_digest(small_lines),
                "small_deficient": digest([r.to_json_obj() for r in small_def]),
                "big_records": records_digest(big_lines),
                "big_deficient": digest([r.to_json_obj() for r in big_def]),
            })
    return {"pairs": pairs}


# -- cli-startup ---------------------------------------------------------------

# The README examples.  Polynomials are passed as --f=/--p= because argparse
# reads a value with a leading minus ("--f -2,0,1") as an option.
README_COMMANDS = [
    ("predict", ["predict", "--p=0,1;1,0", "--X", '[{"eig":"0","size":2}]',
                 "--Y", '[{"eig":"0","size":2}]'],
     {"result": {"eigenvalues": [{"eig": "0", "blocks": [3, 1]}]}}),
    ("frechet", ["frechet", "--f=0,0,-6,0,1", "--X", '[{"eig":"1","size":3}]',
                 "--Y", '[{"eig":"1","size":2}]'],
     {"result": {"eigenvalues": [{"eig": "-8", "blocks": [2, 2, 1, 1]}]}}),
    ("frechet-W", ["frechet", "--f=0,0,1", "--W", '[{"eig":"0","size":2}]'], {}),
    ("check-raw-kron", ["check", "--f=0,0,-2,0,1", "--X", '[{"eig":"-1","size":4}]',
                        "--Y", '[{"eig":"1","size":3}]', "--raw-kron"],
     {"agreement": True, "rawKronAgrees": True,
      "result": {"eigenvalues": [{"eig": "0", "blocks": [3, 3, 2, 2, 1, 1]}]}}),
    ("bounds", ["bounds", "4", "4", "4"], {}),
    ("scan-ranks", ["scan-ranks", "--m-max", "6", "--n-max", "6", "--d-max", "3",
                    "--ell-max", "3", "--out", "records.jsonl"], {}),
]
REDUCE_SEEDS = 64


def gen_cli_startup(rng: Random):
    commands = [(name, argv, readme) for name, argv, readme in README_COMMANDS]
    commands += [("reduce", ["reduce", "--demo", "4", "3", "2", "--seed", str(s)],
                  {"residualIsZero": True}) for s in range(REDUCE_SEEDS)]
    out = []
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for name, argv, readme in commands:
            t0 = perf_counter()
            proc = subprocess.run([sys.executable, "-c", CLI_BOOT, *argv], cwd=tmp,
                                  env=env, capture_output=True, text=True, check=False)
            cost = perf_counter() - t0
            _expect(proc.returncode == 0, f"{name} exited {proc.returncode}")
            if name == "scan-ranks":
                doc = [json.loads(ln) for ln in proc.stdout.splitlines() if ln.strip()]
                Path(tmp, "records.jsonl").unlink()
            else:
                doc = json.loads(proc.stdout)
                for key, want in readme.items():
                    _expect(doc.get(key) == want, f"{name}: {key} is not as stated")
            if name.startswith("frechet"):
                f = UnivariatePoly.from_string(argv[1].split("=", 1)[1])
                x = JordanSpec.from_json(argv[3])
                y = x if argv[2] == "--W" else JordanSpec.from_json(argv[5])
                _expect(doc["result"] == oracle_jcf(bezout_quotient(f), x, y).to_json_obj(),
                        f"{name}: oracle disagrees")
            out.append({"name": name, "argv": argv, "readme": readme,
                        "cost_s": round(cost, 6), "digest": digest(doc)})
    return {"commands": out}


GENERATORS = {
    "check-random": gen_check_random,
    "predict-large": gen_predict_large,
    "scan": gen_scan,
    "cli-startup": gen_cli_startup,
}


def _source_info() -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    return {"commit": commit, "python": sys.version.split()[0],
            "pool_seed": POOL_SEED}


def main(names) -> None:
    DATA.mkdir(exist_ok=True)
    pin_to_one_cpu()
    gc.freeze()
    for name in names or GENERATORS:
        t0 = perf_counter()
        pool = GENERATORS[name](Random(f"{POOL_SEED}:{name}"))
        pool = {"generated_from": _source_info(), **pool}
        with open(DATA / f"{name}.json", "w", encoding="utf-8") as fh:
            json.dump(pool, fh, indent=0, sort_keys=True)
            fh.write("\n")
        print(f"{name}: {perf_counter() - t0:.1f} s", file=sys.stderr)


if __name__ == "__main__":
    main(sys.argv[1:])
