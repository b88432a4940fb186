"""Command line interface.

One executable with subcommands, all emitting UTF-8 JSON (one document per
run; the rank scanner emits JSON lines):

* ``predict``   closed-form Jordan structure, generic or derivative mode
* ``frechet``   shorthand for ``predict --mode frechet``
* ``check``     prediction against the brute-force oracle
* ``bounds``    block size / count bounds for a degenerate pair
* ``scan-ranks``  rank-deficiency sweep over the banded Toeplitz family
* ``reduce``    similarity-reduction demo with exact residual

Exit codes: 0 success, 1 malformed input, 2 degenerate pair in generic
prediction, 3 prediction/oracle disagreement.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

from . import frechet, generic
from .bounds import block_count_bounds, max_block_size_bound
from .bttb import JordanSpec, block_pairs, build_full, build_raw_kron
from .generic import DegenerateCaseError, PairPrediction
from .oracle import JordanStructure, oracle_jcf, oracle_jcf_matrix, oracle_pair_sizes
from .polyring import (
    BivariatePoly,
    UnivariatePoly,
    bezout_quotient,
    format_rational,
)
from .similarity import BlockToeplitzUT, reduce_bidiagonal, reduce_shifted
from .toeplitz import scan_deficiencies

SCHEMA = "jordan-kron/1"


class CliInputError(Exception):
    """Malformed command line input; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # A polynomial such as "-2,0,1" is a value, not an option: treat
        # every token starting with a minus and a digit (or ".digit") the
        # way argparse treats a plain negative number.
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    # argparse exits with code 2 by default, which collides with the
    # degenerate-case exit code; route parse failures to code 1 instead.
    def error(self, message):
        raise CliInputError(message)


@dataclass
class RunReport:
    """One run's JSON document."""

    mode: str
    inputs: dict
    result: "dict | None" = None
    diagnostics: list = field(default_factory=list)
    agreement: "bool | None" = None
    extra: dict = field(default_factory=dict)

    def to_json_obj(self) -> dict:
        doc: dict = {"schema": SCHEMA, "mode": self.mode, "inputs": self.inputs}
        if self.result is not None:
            doc["result"] = self.result
        if self.diagnostics:
            doc["diagnostics"] = self.diagnostics
        if self.agreement is not None:
            doc["agreement"] = self.agreement
        doc.update(self.extra)
        return doc


def _read_arg_text(text: str) -> str:
    if text.startswith("@"):
        path = Path(text[1:])
        try:
            return path.read_text()
        except OSError as exc:
            raise CliInputError(f"cannot read {path}: {exc}") from exc
    return text


def _load_spec(text: str) -> JordanSpec:
    try:
        return JordanSpec.from_json(_read_arg_text(text))
    except ValueError as exc:
        raise CliInputError(str(exc)) from exc


def _load_specs(args) -> tuple[JordanSpec, JordanSpec]:
    if args.W is not None:
        if args.X is not None or args.Y is not None:
            raise CliInputError("give either --W or the pair --X/--Y")
        w = _load_spec(args.W)
        return w, w
    if args.X is None or args.Y is None:
        raise CliInputError("need --X and --Y (or --W)")
    return _load_spec(args.X), _load_spec(args.Y)


def _load_polynomials(args, mode: str):
    """Returns (p, f); f is None unless given.  Generic mode accepts --f by
    taking its difference quotient; derivative mode requires --f."""
    p = f = None
    if getattr(args, "f", None) is not None:
        try:
            f = UnivariatePoly.from_string(_read_arg_text(args.f))
        except ValueError as exc:
            raise CliInputError(str(exc)) from exc
        p = bezout_quotient(f)
    if getattr(args, "p", None) is not None:
        if f is not None:
            raise CliInputError("give either --p or --f, not both")
        if mode == "frechet":
            raise CliInputError("derivative mode takes --f, not --p")
        try:
            p = BivariatePoly.from_string(_read_arg_text(args.p))
        except ValueError as exc:
            raise CliInputError(str(exc)) from exc
    if p is None:
        raise CliInputError("need a polynomial (--p or --f)")
    return p, f


def _emit(doc: dict, out: "str | None") -> None:
    text = json.dumps(doc, indent=2)
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def _emit_error(message: str, out: "str | None" = None) -> None:
    _emit({"schema": SCHEMA, "error": message}, out)


def _echo_inputs(args, p, f, x, y) -> dict:
    inputs = {"X": x.to_json_obj(), "Y": y.to_json_obj()}
    if f is not None:
        inputs["f"] = f.to_string()
    inputs["p"] = p.to_string()
    return inputs


def _maybe_dump(args, p, x, y) -> None:
    if getattr(args, "dump", False):
        print(build_full(p, x, y).dump(), file=sys.stderr)


def _constant_structure(p, x, y) -> JordanStructure:
    dim = x.total_size * y.total_size
    return JordanStructure({p.constant_term: (1,) * dim})


def _pair_predictions(mode, p, f, x, y) -> list[PairPrediction]:
    if mode == "frechet":
        return [frechet.pair_prediction(f, *pair) for pair in block_pairs(x, y)]
    return [generic.pair_prediction(p, *pair) for pair in block_pairs(x, y)]


def _merged(preds: list[PairPrediction]) -> JordanStructure:
    return JordanStructure.from_pairs((pr.eigenvalue, pr.sizes) for pr in preds)


def cmd_predict(args) -> int:
    mode = args.mode
    p, f = _load_polynomials(args, mode)
    x, y = _load_specs(args)
    _maybe_dump(args, p, x, y)
    if mode != "frechet" and p.is_constant():
        result, preds = _constant_structure(p, x, y), []
    else:
        preds = _pair_predictions(mode, p, f, x, y)
        degenerate = next((pr for pr in preds if pr.bounds is not None), None)
        if degenerate is not None:
            entry = degenerate.to_json_obj()
            doc = {
                "schema": SCHEMA,
                "mode": "predict-generic",
                "inputs": _echo_inputs(args, p, f, x, y),
                "error": str(DegenerateCaseError(degenerate)),
                "degeneratePair": {key: entry[key] for key in ("lam", "mu", "m", "n")},
                "bounds": entry["bounds"],
            }
            _emit(doc, args.out)
            return 2
        result = _merged(preds)
    report = RunReport(
        mode=f"predict-{mode}",
        inputs=_echo_inputs(args, p, f, x, y),
        result=result.to_json_obj(),
        diagnostics=[pr.to_json_obj() for pr in preds],
    )
    _emit(report.to_json_obj(), args.out)
    return 0


def _first_difference(a: JordanStructure, b: JordanStructure) -> "dict | None":
    eigs = sorted(set(a.entries) | set(b.entries))
    for eig in eigs:
        sa = a.entries.get(eig, ())
        sb = b.entries.get(eig, ())
        if sa != sb:
            return {
                "eig": format_rational(eig),
                "predicted": list(sa),
                "oracle": list(sb),
            }
    return None


def cmd_check(args) -> int:
    mode = "frechet" if args.f is not None else "generic"
    p, f = _load_polynomials(args, mode)
    x, y = _load_specs(args)
    dim = x.total_size * y.total_size
    if dim > args.cap:
        raise CliInputError(
            f"total dimension {dim} exceeds the oracle cap {args.cap}"
        )
    _maybe_dump(args, p, x, y)
    diags: list[dict] = []
    extra: dict = {}
    if f is not None:
        orc = oracle_jcf(p, x, y)
        preds = _pair_predictions(mode, p, f, x, y)
        predicted = _merged(preds)
        diags = [pr.to_json_obj() for pr in preds]
        agreement = predicted == orc
        if not agreement:
            extra["firstDifference"] = _first_difference(predicted, orc)
        extra["predicted"] = predicted.to_json_obj()
    elif p.is_constant():
        orc = oracle_jcf(p, x, y)
        predicted = _constant_structure(p, x, y)
        agreement = predicted == orc
        extra["predicted"] = predicted.to_json_obj()
    else:
        # One oracle pass per pair serves both the per-pair comparison and
        # the merged result.
        agreement = True
        contributions = []
        for pred in _pair_predictions(mode, p, f, x, y):
            eig = p.eval(pred.lam, pred.mu)
            oracle_sizes = oracle_pair_sizes(p, pred.lam, pred.m, pred.mu, pred.n)
            contributions.append((eig, oracle_sizes))
            entry = pred.to_json_obj()
            entry["oracle"] = list(oracle_sizes)
            if pred.bounds is not None:
                pair_ok = entry["boundsHold"] = pred.bounds.hold(oracle_sizes)
            else:
                entry["predicted"] = list(pred.sizes)
                pair_ok = pred.sizes == oracle_sizes
                if not pair_ok:
                    extra.setdefault(
                        "firstDifference",
                        {
                            "eig": format_rational(eig),
                            "predicted": list(pred.sizes),
                            "oracle": list(oracle_sizes),
                        },
                    )
            entry["ok"] = pair_ok
            agreement = agreement and pair_ok
            diags.append(entry)
        orc = JordanStructure.from_pairs(contributions)
    if args.raw_kron:
        candidates = [p.eval(lam, mu) for lam, m, mu, n in block_pairs(x, y)]
        raw = oracle_jcf_matrix(build_raw_kron(p, x, y), candidates)
        raw_ok = raw == orc
        extra["rawKronAgrees"] = raw_ok
        agreement = agreement and raw_ok
    report = RunReport(
        mode="check",
        inputs=_echo_inputs(args, p, f, x, y),
        result=orc.to_json_obj(),
        diagnostics=diags,
        agreement=agreement,
        extra=extra,
    )
    _emit(report.to_json_obj(), args.out)
    return 0 if agreement else 3


def cmd_bounds(args) -> int:
    try:
        size_bound = max_block_size_bound(args.m, args.n, args.d)
        lo, hi = block_count_bounds(args.m, args.n, args.d)
    except ValueError as exc:
        raise CliInputError(str(exc)) from exc
    doc = {
        "schema": SCHEMA,
        "mode": "bounds",
        "inputs": {"m": args.m, "n": args.n, "d": args.d},
        "result": {"maxBlockSize": size_bound, "countLower": lo, "countUpper": hi},
    }
    _emit(doc, args.out)
    return 0


def cmd_scan(args) -> int:
    try:
        records = scan_deficiencies(
            args.m_max, args.n_max, args.d_max, args.ell_max, out_path=args.out
        )
    except ValueError as exc:
        raise CliInputError(str(exc)) from exc
    for rec in records:
        print(json.dumps(rec.to_json_obj()))
    return 0


def _random_ring_row(rng: random.Random, n: int, unit: bool) -> list[int]:
    row = [rng.randint(-3, 3) for _ in range(n)]
    if unit:
        while row[0] == 0:
            row[0] = rng.randint(-3, 3)
    return row


def cmd_reduce(args) -> int:
    m, n = args.m, args.n
    r = args.r if args.r is not None else 1
    if m < 2 or n < 1 or not 1 <= r <= m - 1:
        raise CliInputError("need m >= 2, n >= 1 and 1 <= r <= m - 1")
    rng = random.Random(args.seed)
    rows = [_random_ring_row(rng, n, unit=False)]
    rows.extend([0] * n for _ in range(1, r))
    rows.append(_random_ring_row(rng, n, unit=True))
    rows.extend(_random_ring_row(rng, n, unit=False) for _ in range(r + 1, m))
    z = BlockToeplitzUT.from_first_rows(rows)
    red = reduce_shifted(z, r) if r > 1 else reduce_bidiagonal(z)
    zmat = z.to_matrix()
    residual = zmat @ red.transform - red.transform @ red.target
    doc = {
        "schema": SCHEMA,
        "mode": "reduce",
        "inputs": {"m": m, "n": n, "r": r, "seed": args.seed},
        "Z": zmat.dump(),
        "transform": red.transform.dump(),
        "target": red.target.dump(),
        "normalForm": red.normal_form.dump(),
        "residualIsZero": residual.is_zero(),
    }
    _emit(doc, args.out)
    return 0


def _add_common_io(sub) -> None:
    sub.add_argument("--out", help="write the JSON document here instead of stdout")


def _add_poly_and_specs(sub, with_f=True, with_p=True) -> None:
    if with_p:
        sub.add_argument("--p", help="bivariate polynomial, rows of the "
                         "coefficient grid separated by ';' (row = x power)")
    if with_f:
        sub.add_argument("--f", help="univariate polynomial, comma-separated "
                         "coefficients lowest degree first")
    sub.add_argument("--X", help="Jordan spec JSON for X (inline or @file)")
    sub.add_argument("--Y", help="Jordan spec JSON for Y (inline or @file)")
    sub.add_argument("--W", help="Jordan spec JSON; sets X = Y = W")
    sub.add_argument("--dump", action="store_true",
                     help="print the built matrix to stderr")


def build_parser() -> _Parser:
    parser = _Parser(prog="jordankron", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True,
                                 parser_class=_Parser)

    sp = subs.add_parser("predict",
                         help="closed-form Jordan structure")
    sp.add_argument("--mode", choices=("generic", "frechet"), default="generic")
    _add_poly_and_specs(sp)
    _add_common_io(sp)
    sp.set_defaults(func="cmd_predict")

    sf = subs.add_parser("frechet",
                         help="predict --mode frechet")
    _add_poly_and_specs(sf, with_p=False)
    _add_common_io(sf)
    sf.set_defaults(func="cmd_predict", mode="frechet", p=None)

    sc = subs.add_parser("check",
                         help="prediction vs brute-force oracle")
    _add_poly_and_specs(sc)
    sc.add_argument("--cap", type=int, default=1024,
                    help="largest total dimension the oracle will accept "
                    "(default 1024, one 32 x 32 block pair)")
    sc.add_argument("--raw-kron", action="store_true", dest="raw_kron",
                    help="also cross-check against the literal Kronecker build")
    _add_common_io(sc)
    sc.set_defaults(func="cmd_check")

    sb = subs.add_parser("bounds",
                         help="degenerate-case block bounds")
    sb.add_argument("m", type=int)
    sb.add_argument("n", type=int)
    sb.add_argument("d", type=int)
    _add_common_io(sb)
    sb.set_defaults(func="cmd_bounds")

    ss = subs.add_parser("scan-ranks",
                         help="rank-deficiency sweep; JSON lines output")
    ss.add_argument("--m-max", type=int, required=True)
    ss.add_argument("--n-max", type=int, required=True)
    ss.add_argument("--d-max", type=int, required=True)
    ss.add_argument("--ell-max", type=int, required=True)
    ss.add_argument("--out", help="append every scanned record to this JSONL "
                    "file and resume from it")
    ss.set_defaults(func="cmd_scan")

    sr = subs.add_parser("reduce",
                         help="similarity-reduction demo")
    sr.add_argument("--demo", nargs="+", type=int, metavar="N", required=True,
                    help="m n [r]")
    sr.add_argument("--seed", type=int, default=0)
    _add_common_io(sr)
    sr.set_defaults(func="cmd_reduce")

    return parser


@functools.cache
def _shared_parser() -> _Parser:
    """One parser per process, built on the first ``main`` call rather than
    at import.  Parsing leaves a parser unchanged, and each subcommand names
    its handler, which ``main`` looks up only when the command runs."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
        if args.command == "reduce":
            demo = args.demo
            if not 2 <= len(demo) <= 3:
                raise CliInputError("--demo takes m n [r]")
            args.m, args.n = demo[0], demo[1]
            args.r = demo[2] if len(demo) == 3 else None
        return globals()[args.func](args)
    except (CliInputError, ValueError) as exc:
        _emit_error(str(exc))
        return 1


def entry() -> None:
    raise SystemExit(main())
