"""Command-line surface: evaluate functions, run named verification
suites, emit weight tables and S-matrices.  Each command imports the
layers it uses, so ``eval`` of a rank-1 function and ``table`` load no
numpy.

Complex arguments use decimal ``a+bi`` syntax; a bare ``i`` means
``0+1i``.  Exit status: 0 on success / all residuals in tolerance, 1 on
failed verification, 2 on configuration errors.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from fractions import Fraction

from .core import DEFAULT_POLICY, VARIANTS, TruncationPolicy
from .errors import MockThetaError

F = Fraction


def parse_complex(text: str) -> complex:
    t = text.strip().replace(" ", "")
    if t in ("i", "+i"):
        return 1j
    if t == "-i":
        return -1j
    try:
        return complex(t.replace("i", "j"))
    except ValueError as exc:
        raise SystemExit(f"error: cannot parse complex number {text!r}") from exc


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ValueError as exc:
        raise SystemExit(f"error: cannot parse rational {text!r}") from exc


def _emit(doc, fmt: str, out_path: str = None):
    if fmt == "json":
        payload = json.dumps(doc, sort_keys=True, indent=2, default=str) + "\n"
    else:
        import csv

        buf = io.StringIO()
        rows = doc if isinstance(doc, list) else doc.get("rows", [doc])
        if rows:
            writer = csv.DictWriter(buf, fieldnames=sorted(rows[0].keys()))
            writer.writeheader()
            for row in rows:
                writer.writerow(row)
        payload = buf.getvalue()
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


_SIGN = {"plus": "plus", "minus": "minus", "unsigned": "unsigned", "+": "plus", "-": "minus"}


def cmd_eval(args) -> int:
    from .mock import MockIndex, phi
    from .modifier import phi_add, phi_tilde, r_jm, r_jm_signed
    from .theta import eta, theta_ab, theta_jm, theta_jm_signed

    policy = TruncationPolicy(abs_tol=args.tol) if args.tol else DEFAULT_POLICY
    tau = parse_complex(args.tau)
    if tau.imag < policy.min_im_tau:
        print(f"error: Im tau must be >= {policy.min_im_tau}", file=sys.stderr)
        return 2
    name = args.function.replace("-", "_")
    try:
        if name == "phi" or name == "phi_tilde" or name == "phi_add":
            idx = MockIndex(
                parse_rational(args.m), parse_rational(args.s), _SIGN[args.sign]
            )
            fn = {"phi": phi, "phi_tilde": phi_tilde, "phi_add": phi_add}[name]
            val = fn(idx, tau, parse_complex(args.z1), parse_complex(args.z2), policy)
        elif name == "theta_jm":
            val = theta_jm(
                int(args.j), int(args.m), tau, parse_complex(args.z), policy
            )
        elif name == "theta_jm_signed":
            sgn = 1 if _SIGN[args.sign] == "plus" else -1
            val = theta_jm_signed(
                sgn, parse_rational(args.j), parse_rational(args.m), tau,
                parse_complex(args.z), policy,
            )
        elif name == "theta_ab":
            val = theta_ab(int(args.a), int(args.b), tau, parse_complex(args.z), policy)
        elif name == "eta":
            val = eta(tau, policy)
        elif name == "r_jm":
            val = r_jm(int(args.j), int(args.m), tau, parse_complex(args.z), policy)
        elif name == "r_jm_signed":
            sgn = 1 if _SIGN[args.sign] == "plus" else -1
            val = r_jm_signed(
                sgn, parse_rational(args.j), parse_rational(args.m), tau,
                parse_complex(args.z), policy,
            )
        else:
            print(f"error: unknown function {args.function!r}; valid: phi, "
                  "phi-tilde, phi-add, theta-jm, theta-jm-signed, theta-ab, "
                  "eta, r-jm, r-jm-signed", file=sys.stderr)
            return 2
    except MockThetaError as exc:
        _emit({"error": type(exc).__name__, "message": str(exc)}, args.output, args.out)
        return 1
    doc = {
        "value": {"re": val.value.real, "im": val.value.imag},
        "err_bound": val.err_bound,
        "terms_used": val.terms_used,
    }
    _emit(doc, args.output, args.out)
    return 0


def cmd_verify(args) -> int:
    import inspect

    from .suites import SUITES, run_suite

    ids = sorted(SUITES) if args.suite == "all" else [args.suite]
    bad = [s for s in ids if s not in SUITES]
    if bad:
        print(
            f"error: unknown suite(s) {bad}; valid ids: {', '.join(sorted(SUITES))}",
            file=sys.stderr,
        )
        return 2
    reports = []
    ok = True
    for sid in ids:
        accepted = inspect.signature(SUITES[sid][0]).parameters
        kwargs = {}
        for key in ("p", "q", "n", "m"):
            val = getattr(args, key, None)
            if val is not None and key in accepted:
                kwargs[key] = val
        rep = run_suite(sid, seed=args.seed, tol=args.tol, **kwargs)
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
        try:
            pre = preset(args.case, _case_params(args))
        except MockThetaError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        payload = pre.to_json() + "\n"
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(payload)
        else:
            sys.stdout.write(payload)
        return 0
    if args.table != "omega":
        print("error: valid tables are 'omega' and 'preset'", file=sys.stderr)
        return 2
    try:
        pre = preset(args.case, _case_params(args))
        weights = enumerate_omega(pre, parse_rational(args.k))
    except MockThetaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
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
    if args.case in ("d21a",) and (args.p or args.q):
        return (args.p or 1, args.q or 1)
    if args.params:
        return tuple(int(x) for x in args.params.split(","))
    return None


def cmd_chartable(args) -> int:
    from .characters import ch_tilde, check_request
    from .modular import sample_points
    from .superalg import WeightSpec

    params = _case_params(args)
    labels = tuple(parse_rational(x) for x in (args.labels or "0").split(","))
    w = WeightSpec(parse_rational(args.k), labels)
    try:
        sys_obj = check_request(args.case, w, args.variant, params)
    except (MockThetaError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
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
    from .smatrix import smatrix

    params = None
    k = parse_rational(args.k) if args.k else None
    if args.case == "d21a":
        p, q, n = args.p or 1, args.q or 1, args.n or 1
        params = (p, q)
        if k is None:
            k = F(-p * q * n, p + q)
    elif args.case == "osp_level1":
        params = tuple(int(x) for x in (args.params or "3,2").split(","))
        k = F(1)
    elif k is None:
        print("error: --k is required for this case", file=sys.stderr)
        return 2
    try:
        sm = smatrix(args.case, k, params)
    except MockThetaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
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
    pe.add_argument("--m", default="1")
    pe.add_argument("--s", default="0")
    pe.add_argument("--j", default="0")
    pe.add_argument("--a", default="0")
    pe.add_argument("--b", default="0")
    pe.add_argument("--sign", default="unsigned", choices=sorted(_SIGN))
    pe.add_argument("--tau", required=True)
    pe.add_argument("--z", default="0")
    pe.add_argument("--z1", default="0")
    pe.add_argument("--z2", default="0")
    pe.add_argument("--tol", type=float, default=None)
    pe.add_argument("--output", default="json", choices=("json", "csv"))
    pe.add_argument("--out", default=None)
    pe.set_defaults(func=cmd_eval)

    pv = sub.add_parser("verify", help="run a named verification suite")
    pv.add_argument("suite")
    pv.add_argument("--seed", type=int, default=None)
    pv.add_argument("--tol", type=float, default=None)
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
    pt.add_argument("--k", default="1")
    pt.add_argument("--p", type=int, default=None)
    pt.add_argument("--q", type=int, default=None)
    pt.add_argument("--params", default=None, help="comma-separated family parameters")
    pt.add_argument("--output", default="json", choices=("json", "csv"))
    pt.add_argument("--out", default=None)
    pt.set_defaults(func=cmd_table)

    pc = sub.add_parser("chartable", help="supercharacter values at seeded points")
    pc.add_argument("--case", required=True)
    pc.add_argument("--k", required=True)
    pc.add_argument("--labels", default=None, help="comma-separated weight labels")
    pc.add_argument("--variant", default="ch_minus_modified", choices=VARIANTS)
    pc.add_argument("--points", type=int, default=6)
    pc.add_argument("--seed", type=int, default=20240)
    pc.add_argument("--p", type=int, default=None)
    pc.add_argument("--q", type=int, default=None)
    pc.add_argument("--params", default=None)
    pc.add_argument("--output", default="csv", choices=("json", "csv"))
    pc.add_argument("--out", default=None)
    pc.set_defaults(func=cmd_chartable)

    ps = sub.add_parser("smatrix", help="emit an S-matrix with metadata")
    ps.add_argument("--case", required=True)
    ps.add_argument("--k", default=None)
    ps.add_argument("--p", type=int, default=None)
    ps.add_argument("--q", type=int, default=None)
    ps.add_argument("--n", type=int, default=None)
    ps.add_argument("--params", default=None)
    ps.add_argument("--output", default="json", choices=("json", "csv"))
    ps.add_argument("--out", default=None)
    ps.set_defaults(func=cmd_smatrix)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except SystemExit as exc:
        if isinstance(exc.code, str):  # a parse error's message
            print(exc.code, file=sys.stderr)
        return 0 if exc.code in (0, None) else 2


if __name__ == "__main__":
    sys.exit(main())
