"""Command-line surface: evaluate functions, run named verification
suites, emit weight tables and S-matrices.  Each command imports the
layers it uses: the lattice, character, S-matrix and superalgebra layers
load for ``verify`` only with a suite of sections 3-6, which lives in
``suites_lattice``.

Complex arguments use decimal ``a+bi`` syntax; a bare ``i`` means
``0+1i``.  Exit status: 0 on success / all residuals in tolerance, 1 on
failed verification (or an ``eval`` that fails numerically), 2 on
configuration errors: a library error or ``ValueError`` that escapes a
command is printed as ``error: <message>`` by :func:`main`.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from fractions import Fraction
from importlib import import_module

from .core import VARIANTS, require_tau
from .errors import MockThetaError


def parse_complex(text: str) -> complex:
    t = text.strip().replace(" ", "")
    if t == "-i":  # the literal -1j: complex("-j") has a positive zero real part
        return -1j
    # only a trailing i is the imaginary unit; the i of inf stays
    if t.endswith("i"):
        t = t[:-1] + "j"
    try:
        return complex(t)
    except ValueError as exc:
        raise SystemExit(f"error: cannot parse complex number {text!r}") from exc


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise SystemExit(f"error: cannot parse rational {text!r}") from exc


def _parse_seed(text: str) -> int:
    """A --seed: an integer in [0, 2**32), the seeds of the sample-point stream."""
    try:
        seed = int(text)
    except ValueError as exc:
        raise SystemExit(f"error: cannot parse seed {text!r}") from exc
    if not 0 <= seed < 2**32:
        raise SystemExit(f"error: --seed must be in [0, 2**32 - 1], got {seed}")
    return seed


def _parse_points(text: str) -> int:
    """A --points: a count of at least 1."""
    try:
        points = int(text)
    except ValueError as exc:
        raise SystemExit(f"error: cannot parse point count {text!r}") from exc
    if points < 1:
        raise SystemExit(f"error: --points must be at least 1, got {points}")
    return points


def _parse_tol(text: str) -> float:
    """A --tol: a finite float > 0."""
    try:
        if 0 < float(text) < float("inf"):
            return float(text)
    except ValueError:
        pass
    raise SystemExit(f"error: --tol must be a positive number, got {text!r}")


def _emit(doc, fmt: str, out_path: str = None):
    if fmt == "json":
        payload = json.dumps(doc, sort_keys=True, indent=2, default=str) + "\n"
    else:
        import csv

        buf = io.StringIO()
        rows = doc if isinstance(doc, list) else [doc]
        if rows:
            # every row's keys: a row without one of them leaves its cell empty
            writer = csv.DictWriter(buf, fieldnames=sorted(set().union(*rows)))
            writer.writeheader()
            for row in rows:
                writer.writerow(row)
        payload = buf.getvalue()
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


# eval's functions: the module that defines each, then the options it reads
# in call order with their parsers: those before tau, what makes its leading
# arguments of their values, and those after tau.  The lambdas import mock
# only when they run, so loading cli imports no numerical layer.
_PHI = ({"m": parse_rational, "s": parse_rational, "sign": str},
        lambda values: (import_module(".mock", __package__).MockIndex(*values),))
_JM = {"j": int, "m": int}
_SIGNED = {"sign": lambda label: import_module(".mock", __package__).SIGNS[label],
           "j": parse_rational, "m": parse_rational}
_Z, _Z2 = {"z": parse_complex}, {"z1": parse_complex, "z2": parse_complex}
_EVAL = {
    "phi": ("mock", *_PHI, _Z2),
    "phi-tilde": ("modifier", *_PHI, _Z2),
    "phi-add": ("modifier", *_PHI, _Z2),
    "theta-jm": ("theta", _JM, tuple, _Z),
    "theta-jm-signed": ("theta", _SIGNED, tuple, _Z),
    "theta-ab": ("theta", {"a": int, "b": int}, tuple, _Z),
    "eta": ("theta", {}, tuple, {}),
    "r-jm": ("modifier", _JM, tuple, _Z),
    "r-jm-signed": ("modifier", _SIGNED, tuple, _Z),
}
# the options' defaults, in argparse's order
_EVAL_DEFAULTS = {"m": "1", "s": "0", "j": "0", "a": "0", "b": "0", "sign": "unsigned",
                  "z": "0", "z1": "0", "z2": "0"}


def cmd_eval(args) -> int:
    if args.output != "json":  # the value is a nested {re, im} object
        raise ValueError("eval writes JSON only")
    tau = require_tau(parse_complex(args.tau))
    key = args.function.replace("_", "-")
    if key not in _EVAL:
        raise ValueError(f"unknown function {args.function!r}; valid: {', '.join(_EVAL)}")
    module, head, pack, tail = _EVAL[key]
    text = {k: getattr(args, k) for k in _EVAL_DEFAULTS}
    unread = [f"--{k}" for k, v in text.items() if v is not None and k not in {**head, **tail}]
    if unread:
        raise ValueError(f"eval {args.function} takes no {', '.join(unread)}")
    text = {k: _EVAL_DEFAULTS[k] if v is None else v for k, v in text.items()}
    fn = getattr(import_module(f".{module}", __package__), key.replace("-", "_"))
    try:
        val = fn(*pack([parse(text[k]) for k, parse in head.items()]), tau,
                 *[parse(text[k]) for k, parse in tail.items()])
    except MockThetaError as exc:
        _emit({"error": type(exc).__name__, "message": str(exc)}, args.output, args.out)
        return 1
    _emit({"value": {"re": val.value.real, "im": val.value.imag}, "err_bound": val.err_bound,
           "terms_used": val.terms_used}, args.output, args.out)
    return 0


def cmd_verify(args) -> int:
    import inspect

    from .suites import SUITES, _suite_function, run_suite

    if args.full and args.output != "json":  # each report nests its checks
        raise ValueError("verify --full writes JSON only")
    ids = sorted(SUITES) if args.suite == "all" else [args.suite]
    bad = [s for s in ids if s not in SUITES]
    if bad:
        raise ValueError(f"unknown suite(s) {bad}; valid ids: {', '.join(sorted(SUITES))}")
    accepted = {sid: inspect.signature(_suite_function(sid)).parameters for sid in ids}
    given = {k: v for k in ("seed", "p", "q", "n", "m") if (v := getattr(args, k)) is not None}
    unused = [f"--{key}" for key in given if not any(key in acc for acc in accepted.values())]
    if unused:
        raise ValueError(f"no selected suite takes {', '.join(unused)}")
    reports = []
    ok = True
    for sid in ids:
        kwargs = {key: val for key, val in given.items() if key in accepted[sid]}
        rep = run_suite(sid, tol=args.tol, **kwargs)
        if not args.full:
            rep = {k: v for k, v in rep.items() if k != "checks"}
        reports.append(rep)
        ok = ok and rep["pass"]
        print(
            f"{'PASS' if rep['pass'] else 'FAIL'} {sid:16s} "
            f"anchor={rep['anchor']:22s} max_residual={rep['max_residual']:.3e} "
            f"tol={rep['tol']:.1e}",
            file=sys.stderr,
        )
    _emit(reports if len(reports) > 1 else reports[0], args.output, args.out)
    return 0 if ok else 1


def cmd_list_suites(args) -> int:
    from .suites import list_suites

    _emit(list_suites(), args.output, args.out)
    return 0


def cmd_table(args) -> int:
    from .superalg import enumerate_omega, integrable, preset

    if args.table == "preset":
        if args.output != "json":
            raise ValueError("table preset writes JSON only")
        if args.k is not None:
            raise ValueError("table preset takes no --k")
        payload = preset(args.case, _case_params(args)).to_json() + "\n"
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(payload)
        else:
            sys.stdout.write(payload)
        return 0
    pre = preset(args.case, _case_params(args))
    weights = enumerate_omega(pre, parse_rational("1" if args.k is None else args.k))
    rows = [
        {
            "side": w.side,
            "labels": " ".join(str(x) for x in w.labels),
            "k": str(w.k),
            "integrable": integrable(pre, w),
        }
        for w in weights
    ]
    _emit(rows, args.output, args.out)
    return 0


def _case_params(args):
    if not args.params:
        return None
    try:
        return tuple(int(x) for x in args.params.split(","))
    except ValueError as exc:
        raise SystemExit(f"error: cannot parse parameters {args.params!r}") from exc


def cmd_chartable(args) -> int:
    from .characters import ch_tilde, check_request
    from .modular import sample_points
    from .superalg import WeightSpec

    params = _case_params(args)
    labels = tuple(parse_rational(x) for x in (args.labels or "0").split(","))
    w = WeightSpec(parse_rational(args.k), labels)
    sys_obj = check_request(args.case, w, args.variant, params)
    pts = sample_points(args.points, n_z=sys_obj.n_z, seed=args.seed)
    rows = []
    for pt in pts:
        try:
            val = ch_tilde(args.case, w, pt, variant=args.variant, params=params)
            rows.append(
                {
                    "tau": str(pt.tau),
                    "z": " ".join(str(x) for x in pt.z),
                    "t": str(pt.t),
                    "re": val.value.real,
                    "im": val.value.imag,
                    "err_bound": val.err_bound,
                }
            )
        except MockThetaError as exc:
            rows.append(
                {"tau": str(pt.tau), "z": " ".join(str(x) for x in pt.z),
                 "t": str(pt.t), "re": "", "im": "",
                 "err_bound": f"{type(exc).__name__}: {exc}"}
            )
    _emit(rows, args.output, args.out)
    return 0


def cmd_smatrix(args) -> int:
    from .smatrix import _span, smatrix

    span = _span(args.case)
    params = _case_params(args) or span.params
    if args.k:
        k = parse_rational(args.k)
    elif span.level:
        k = span.level(params)
    else:
        raise ValueError("--k is required for this case")
    sm = smatrix(args.case, k, params)
    defect = sm.unitarity_defect()
    print(
        f"case={args.case} k={k} size={len(sm.labels)} "
        f"unitarity_defect={defect:.3e}"
        + (" (conjecture-dependent labels)" if sm.conjectural else ""),
        file=sys.stderr,
    )
    if args.output == "csv":
        _emit(sm.to_rows(), "csv", args.out)
    else:
        doc = {
            "case": args.case,
            "k": str(k),
            "labels": list(sm.labels),
            "entries": [[{"re": v.real, "im": v.imag} for v in row] for row in sm.entries],
            "t_matrix": [[{"re": v.real, "im": v.imag} for v in row] for row in sm.t_matrix],
            "unitarity_defect": defect,
            "conjectural": sm.conjectural,
            "note": sm.note,
        }
        _emit(doc, "json", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mocktheta",
        description="evaluate mock theta functions and verify their "
        "modular and elliptic transformation laws",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval", help="evaluate one function at a point")
    pe.add_argument("function")
    for opt in ("m", "s", "j", "a", "b"):  # None unless set; _EVAL_DEFAULTS has the defaults
        pe.add_argument(f"--{opt}")
    pe.add_argument("--sign", choices=("minus", "plus", "unsigned"))
    pe.add_argument("--tau", required=True)
    for opt in ("z", "z1", "z2"):
        pe.add_argument(f"--{opt}")
    pe.add_argument("--output", default="json", choices=("json", "csv"))
    pe.add_argument("--out", default=None)
    pe.set_defaults(func=cmd_eval)

    pv = sub.add_parser("verify", help="run a named verification suite")
    pv.add_argument("suite")
    pv.add_argument("--seed", type=_parse_seed, default=None)
    pv.add_argument("--tol", type=_parse_tol, default=None)
    pv.add_argument("--p", type=int, default=None)
    pv.add_argument("--q", type=int, default=None)
    pv.add_argument("--n", type=int, default=None)
    pv.add_argument("--m", type=int, default=None)
    pv.add_argument("--full", action="store_true", help="include per-point records")
    pv.add_argument("--output", default="json", choices=("json", "csv"))
    pv.add_argument("--out", default=None)
    pv.set_defaults(func=cmd_verify)

    pl = sub.add_parser("list-suites", help="catalog of verification suites")
    pl.add_argument("--output", default="json", choices=("json", "csv"))
    pl.add_argument("--out", default=None)
    pl.set_defaults(func=cmd_list_suites)

    pt = sub.add_parser("table", help="emit weight tables or preset data")
    pt.add_argument("table", choices=("omega", "preset"))
    pt.add_argument("--case", required=True)
    pt.add_argument("--k", default=None, help="level of table omega (default 1)")
    pt.add_argument("--params", default=None, help="comma-separated family parameters")
    pt.add_argument("--output", default="json", choices=("json", "csv"))
    pt.add_argument("--out", default=None)
    pt.set_defaults(func=cmd_table)

    pc = sub.add_parser("chartable", help="supercharacter values at seeded points")
    pc.add_argument("--case", required=True)
    pc.add_argument("--k", required=True)
    pc.add_argument("--labels", default=None, help="comma-separated weight labels")
    pc.add_argument("--variant", default="ch_minus_modified", choices=VARIANTS)
    pc.add_argument("--points", type=_parse_points, default=6)
    pc.add_argument("--seed", type=_parse_seed, default=20240)
    pc.add_argument("--params", default=None)
    pc.add_argument("--output", default="csv", choices=("json", "csv"))
    pc.add_argument("--out", default=None)
    pc.set_defaults(func=cmd_chartable)

    ps = sub.add_parser("smatrix", help="emit an S-matrix with metadata")
    ps.add_argument("--case", required=True)
    ps.add_argument("--k", default=None)
    ps.add_argument("--params", default=None)
    ps.add_argument("--output", default="json", choices=("json", "csv"))
    ps.add_argument("--out", default=None)
    ps.set_defaults(func=cmd_smatrix)

    # one spelling per option: no prefix stands for a longer one (--p is not --params)
    for parser in (ap, *sub.choices.values()):
        parser.allow_abbrev = False
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        if isinstance(exc.code, str):  # a parse error's message
            print(exc.code, file=sys.stderr)
        return 0 if exc.code in (0, None) else 2
    except (MockThetaError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
