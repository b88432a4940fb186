"""Command line interface.

One executable with subcommands, all emitting UTF-8 JSON (one document per
run; the rank scanner emits JSON lines):

* ``predict``   closed-form Jordan structure, generic or derivative mode
* ``frechet``   shorthand for ``predict --mode frechet``
* ``check``     prediction against the brute-force oracle
* ``bounds``    block size / count bounds for a degenerate pair
* ``scan-ranks``  rank-deficiency sweep over the banded Toeplitz family
* ``reduce``    similarity-reduction demo with exact residual

Exit codes: 0 success, 1 malformed input (any ValueError from the library
included, and an OverflowError on a total dimension too large to index) or
output that cannot be written, 2 degenerate pair in generic prediction, 3
prediction/oracle disagreement.  When the reader of stdout goes away
early, as ``| head`` does, the run ends with code 1 and prints nothing
more.

The commands only serialize library calls, and walk the block pairs only
through ``jordan.per_block_pair``.  So ``check`` runs the oracle once per
distinct block pair, and that one pass gives the merged result, the
per-pair comparison and the candidate eigenvalues for ``--raw-kron``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

# Each handler imports the library modules it calls when it runs, so that a
# process loads only what its command needs: ``bounds`` loads no module but
# ``jordankron.bounds``.

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


def _read_arg_text(text: str) -> str:
    if text.startswith("@"):
        path = Path(text[1:])
        try:
            return path.read_text()
        except OSError as exc:
            raise CliInputError(f"cannot read {path}: {exc}") from exc
    return text


def _load_spec(text: str):
    from .jordan import JordanSpec

    return JordanSpec.from_json(_read_arg_text(text))


def _load_specs(args):
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
    from .polyring import BivariatePoly, UnivariatePoly, bezout_quotient

    p = f = None
    if getattr(args, "f", None) is not None:
        f = UnivariatePoly.from_string(_read_arg_text(args.f))
        p = bezout_quotient(f)
    if getattr(args, "p", None) is not None:
        if f is not None:
            raise CliInputError("give either --p or --f, not both")
        if mode == "frechet":
            raise CliInputError("derivative mode takes --f, not --p")
        p = BivariatePoly.from_string(_read_arg_text(args.p))
    if p is None:
        raise CliInputError("need a polynomial (--p or --f)")
    return p, f


def _document(mode: "str | None", inputs: "dict | None", **fields) -> dict:
    """A ``jordan-kron/1`` document: the schema, mode and inputs, then the
    fields in order.  None values are left out; an input error has neither
    mode nor inputs."""
    items = {"mode": mode, "inputs": inputs, **fields}
    return {"schema": SCHEMA, **{k: v for k, v in items.items() if v is not None}}


def _json_text(obj, indent: str = "\n") -> str:
    """The text of ``json.dumps(obj, indent=2)`` without the pure-Python
    encoder that ``indent`` selects: strings and ints go through the C
    encoders ``json.dumps`` uses for them, nonempty dicts (with string keys)
    and lists are joined here, and any other value is ``json.dumps``'s."""
    kind = type(obj)
    if kind is str:
        return encode_basestring_ascii(obj)
    if kind is int:
        return int.__repr__(obj)
    inner = indent + "  "
    if kind is dict and obj:
        items = [encode_basestring_ascii(k) + ": " + _json_text(v, inner)
                 for k, v in obj.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if kind is list and obj:
        return "[" + inner + ("," + inner).join(
            [_json_text(v, inner) for v in obj]) + indent + "]"
    return json.dumps(obj)


def _emit(doc: dict, out: "str | None") -> None:
    text = _json_text(doc)
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def _echo_inputs(p, f, x, y) -> dict:
    inputs = {"X": x.to_json_obj(), "Y": y.to_json_obj()}
    if f is not None:
        inputs["f"] = f.to_string()
    inputs["p"] = p.to_string()
    return inputs


def _maybe_dump(args, p, x, y) -> None:
    if getattr(args, "dump", False):
        from .bttb import build_full

        print(build_full(p, x, y).dump(), file=sys.stderr)


def _predictions(mode, p, f, x, y):
    """The mode's record for every block pair, and their merged structure.

    A constant p in generic mode has no records: p(X, Y) is p's constant
    times the identity, all blocks of size 1.  An OverflowError of the
    library on a total dimension past ``sys.maxsize`` becomes a
    CliInputError that names the dimension; a closed form that needs no
    such index, as p = x + y on one huge block pair, is still answered.
    """
    from .jordan import JordanStructure

    dim = x.total_size * y.total_size
    try:
        if mode == "generic" and p.is_constant():
            return [], JordanStructure({p.constant_term: (1,) * dim})
        if mode == "frechet":
            from .frechet import pair_predictions

            preds = pair_predictions(f, x, y)
        else:
            # No mirror shortcut: the branches "px-zero" and "py-zero" trade
            # names under a swap of the pair.
            from .generic import pair_prediction
            from .jordan import per_block_pair

            preds = per_block_pair(pair_prediction, p, x, y)
    except OverflowError:
        if dim <= sys.maxsize:
            raise
        raise CliInputError(
            f"total dimension {dim} is past the largest index, {sys.maxsize}"
        ) from None
    merged = JordanStructure.from_pairs((pr.eigenvalue, pr.sizes) for pr in preds)
    return preds, merged


def _difference(eig, predicted, oracle) -> dict:
    """A ``firstDifference`` entry: the sizes each side gives at eig."""
    from .polyring import format_rational

    return {
        "eig": format_rational(eig),
        "predicted": list(predicted),
        "oracle": list(oracle),
    }


def cmd_predict(args) -> int:
    mode = args.mode
    p, f = _load_polynomials(args, mode)
    x, y = _load_specs(args)
    _maybe_dump(args, p, x, y)
    preds, result = _predictions(mode, p, f, x, y)
    inputs = _echo_inputs(p, f, x, y)
    degenerate = next((pr for pr in preds if pr.bounds is not None), None)
    if degenerate is not None:
        from .generic import DegenerateCaseError

        entry = degenerate.to_json_obj()
        _emit(_document(
            "predict-generic", inputs,
            error=str(DegenerateCaseError(degenerate)),
            degeneratePair={key: entry[key] for key in ("lam", "mu", "m", "n")},
            bounds=entry["bounds"],
        ), args.out)
        return 2
    diags = [pr.to_json_obj() for pr in preds]
    _emit(_document(
        f"predict-{mode}", inputs, result=result.to_json_obj(), diagnostics=diags or None
    ), args.out)
    return 0


def cmd_check(args) -> int:
    from .bttb import build_raw_kron
    from .jordan import JordanStructure, per_block_pair
    from .oracle import oracle_jcf_matrix, oracle_pair

    mode = "frechet" if args.f is not None else "generic"
    p, f = _load_polynomials(args, mode)
    x, y = _load_specs(args)
    dim = x.total_size * y.total_size
    if dim > args.cap:
        raise CliInputError(
            f"total dimension {dim} exceeds the oracle cap {args.cap}"
        )
    _maybe_dump(args, p, x, y)
    preds, predicted = _predictions(mode, p, f, x, y)
    # No mirror: the oracle assumes no symmetry of p.
    answers = per_block_pair(oracle_pair, p, x, y)
    result = JordanStructure.from_pairs(answers)
    if preds and mode == "generic":
        # Pair by pair: a pair passes when its eigenvalue and sizes are the
        # oracle's, or, if degenerate, its eigenvalue is and its bounds hold.
        diags, wrong, shown = [], [], None
        for (eig, sizes), pred in zip(answers, preds):
            entry = pred.to_json_obj()
            entry["oracle"] = list(sizes)
            if pred.bounds is not None:
                ok = entry["boundsHold"] = pred.bounds.hold(sizes)
            else:
                entry["predicted"] = list(pred.sizes)
                ok = pred.sizes == sizes
            if pred.eigenvalue != eig:
                wrong.append((pred.eigenvalue, pred.sizes, ()))
            elif not ok and pred.bounds is None:
                wrong.append((eig, pred.sizes, sizes))
            entry["ok"] = ok and pred.eigenvalue == eig
            diags.append(entry)
        agreement = all(entry["ok"] for entry in diags)
    else:
        diags, shown = [pr.to_json_obj() for pr in preds], predicted.to_json_obj()
        agreement = predicted == result
        a, b = predicted.entries, result.entries
        wrong = [
            (eig, a.get(eig, ()), b.get(eig, ()))
            for eig in sorted(a.keys() | b.keys())
            if a.get(eig) != b.get(eig)
        ]
    raw_agrees = None
    if args.raw_kron:
        raw_agrees = oracle_jcf_matrix(build_raw_kron(p, x, y), result.entries) == result
        agreement = agreement and raw_agrees
    _emit(_document(
        "check", _echo_inputs(p, f, x, y),
        result=result.to_json_obj(),
        diagnostics=diags or None,
        agreement=agreement,
        firstDifference=_difference(*wrong[0]) if wrong else None,
        predicted=shown,
        rawKronAgrees=raw_agrees,
    ), args.out)
    return 0 if agreement else 3


def cmd_bounds(args) -> int:
    from .bounds import block_count_bounds, max_block_size_bound

    size_bound = max_block_size_bound(args.m, args.n, args.d)
    lo, hi = block_count_bounds(args.m, args.n, args.d)
    _emit(_document(
        "bounds", {"m": args.m, "n": args.n, "d": args.d},
        result={"maxBlockSize": size_bound, "countLower": lo, "countUpper": hi},
    ), args.out)
    return 0


def cmd_scan(args) -> int:
    from .toeplitz import scan_deficiencies

    records = scan_deficiencies(
        args.m_max, args.n_max, args.d_max, args.ell_max, out_path=args.out
    )
    for rec in records:
        print(json.dumps(rec.to_json_obj()))
    return 0


def _random_ring_row(rng, n: int, unit: bool) -> list[int]:
    row = [rng.randint(-3, 3) for _ in range(n)]
    if unit:
        while row[0] == 0:
            row[0] = rng.randint(-3, 3)
    return row


def cmd_reduce(args) -> int:
    import random

    from .similarity import BlockToeplitzUT, reduce_shifted

    if not 2 <= len(args.demo) <= 3:
        raise CliInputError("--demo takes m n [r]")
    m, n, r = (*args.demo, 1)[:3]
    if m < 2 or n < 1 or not 1 <= r <= m - 1:
        raise CliInputError("need m >= 2, n >= 1 and 1 <= r <= m - 1")
    rng = random.Random(args.seed)
    rows = [_random_ring_row(rng, n, unit=False)]
    rows.extend([0] * n for _ in range(1, r))
    rows.append(_random_ring_row(rng, n, unit=True))
    rows.extend(_random_ring_row(rng, n, unit=False) for _ in range(r + 1, m))
    z = BlockToeplitzUT(rows)
    red = reduce_shifted(z, r)
    zmat = z.to_matrix()
    residual = zmat @ red.transform - red.transform @ red.target
    _emit(_document(
        "reduce", {"m": m, "n": n, "r": r, "seed": args.seed},
        Z=zmat.dump(),
        transform=red.transform.dump(),
        target=red.target.dump(),
        normalForm=red.normal_form.dump(),
        residualIsZero=residual.is_zero(),
    ), args.out)
    return 0


def _add_common_io(sub) -> None:
    sub.add_argument("--out", help="write the JSON document here instead of stdout")


def _add_poly_and_specs(sub, with_p=True) -> None:
    if with_p:
        sub.add_argument("--p", help="bivariate polynomial, rows of the "
                         "coefficient grid separated by ';' (row = x power)")
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
        return globals()[args.func](args)
    except BrokenPipeError:
        raise  # stdout has no reader, so no error document can reach one
    except (CliInputError, ValueError, OverflowError, OSError) as exc:
        _emit(_document(None, None, error=str(exc)), None)
        return 1


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # Point stdout at devnull, so that the flush at exit cannot raise
        # the same error again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    raise SystemExit(code)


if __name__ == "__main__":
    entry()
