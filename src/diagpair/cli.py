"""Command-line front end and report emission.

Every artifact embeds a config echo and library versions; the timestamp sits
alone in the header so reports stay byte-comparable otherwise.  Exact integer
results are serialized as decimal strings in JSON because counts here routinely
pass 2^53.

Exit codes: 0 ok, 1 assertion/verify failure, 2 config error, 3 budget refusal.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import platform
import sys
from dataclasses import asdict, dataclass, is_dataclass
from datetime import datetime, timezone
from typing import Any, Optional

import numpy as np
import scipy

from . import __version__
from .acceptance import format_results, run_all
from .arcs import ArcFamily, dirichlet_approx, membership, transfer_bound_check, transfer_lambda
from .archimedean import singular_integral, volume_constant
from .budget import DEFAULT_LEDGER_BUDGET, BudgetError
from .expsums import BoxSumSpec, block_sum
from .local import chi_p_partial, count_congruences, padic_witness, singular_series
from .moments import count_J1, mixed_moment, moment_I, moment_J, moment_T, moment_T_shifted
from .smooth import c_eta, dickman_rho, smooth_set
from .solver import count_solutions, find_real_anchor, predict_and_compare, search_witness
from .systems import BUILTIN_SYSTEMS, DiagonalSystem, check_conditions, classify, format_system, load_system

EXIT_OK = 0
EXIT_ASSERT = 1
EXIT_CONFIG = 2
EXIT_BUDGET = 3

@dataclass(frozen=True)
class RunConfig:
    subcommand: str
    spec: Optional[str]
    seed: int
    budget: int
    out: Optional[str]
    format: str
    params: dict


def _jsonify(obj: Any) -> Any:
    """Results only: ints become decimal strings, dataclasses become dicts."""
    if is_dataclass(obj) and not isinstance(obj, type):
        return _jsonify(asdict(obj))
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    return obj


def _flatten(obj: Any, prefix: str = "") -> list[tuple[str, Any]]:
    if isinstance(obj, dict):
        out = []
        for k, v in obj.items():
            out.extend(_flatten(v, f"{prefix}{k}."))
        return out
    if isinstance(obj, (list, tuple)):
        return [
            (f"{prefix}{i}", json.dumps(v) if isinstance(v, (dict, list, tuple)) else v)
            for i, v in enumerate(obj)
        ]
    return [(prefix.rstrip("."), obj)]


def _report(cfg: RunConfig, result: Any) -> dict:
    return {
        "header": {
            "tool": "diagpair",
            "version": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "timestamp": datetime.now(timezone.utc).isoformat(),
        },
        "config": {
            "subcommand": cfg.subcommand,
            "spec": cfg.spec,
            "seed": cfg.seed,
            "budget": cfg.budget,
            "format": cfg.format,
            "params": cfg.params,
        },
        "result": _jsonify(result),
    }


def _emit(cfg: RunConfig, report: dict) -> None:
    if cfg.format == "json":
        text = json.dumps(report, indent=2)
    else:
        buf = io.StringIO()
        writer = csv.writer(buf)
        pairs = _flatten(report["result"])
        writer.writerow([k for k, _ in pairs])
        writer.writerow([v for _, v in pairs])
        text = buf.getvalue()
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _load_spec(args) -> DiagonalSystem:
    if getattr(args, "builtin", None):
        return BUILTIN_SYSTEMS[args.builtin]
    if getattr(args, "spec", None):
        return load_system(args.spec)
    raise ValueError("need --spec FILE or --builtin NAME")


def _cmd_moments(args, cfg: RunConfig):
    kind = args.kind
    if kind == "T":
        value = int(moment_T(args.s, args.x, budget=cfg.budget))
    elif kind == "T-shifted":
        value = int(moment_T_shifted(args.s, args.x, args.hmax, budget=cfg.budget))
    elif kind == "I":
        value = int(moment_I(args.s, args.y, args.h, budget=cfg.budget))
    elif kind == "J":
        value = int(moment_J(args.s, args.x, budget=cfg.budget))
    elif kind == "J1":
        value = int(count_J1(args.y, args.h, budget=cfg.budget))
    else:  # mixed; argparse choices rule out anything else
        factors, exps = [], []
        for text in args.factor or []:
            part = text.split(":")
            if len(part) not in (4, 5):
                raise ValueError("factor format theta:cubic:quad:exp[:R]")
            factors.append(
                BoxSumSpec(
                    theta=float(part[0]),
                    P=float(args.p),
                    cubic=int(part[1]),
                    quad=int(part[2]),
                    smooth_R=int(part[4]) if len(part) == 5 else None,
                )
            )
            exps.append(int(part[3]))
        if not factors:
            raise ValueError("mixed needs at least one --factor")
        value = int(mixed_moment(factors, exps, budget=cfg.budget))
    return {"kind": kind, "value": value}, False


def _cmd_local(args, cfg: RunConfig):
    sysd = _load_spec(args)
    out: dict = {"system": format_system(sysd), "class": classify(sysd).name}
    if args.series is not None:
        res = singular_series(sysd, args.series, budget=cfg.budget)
        out["series"] = {
            "Q": res.Q,
            "value": res.value,
            "imag": res.imag,
            "A": {str(q): v for q, v in sorted(res.A.items())},
            "partials_tail": [float(v) for v in res.partials[-5:]],
            "tables": res.tables,
            "cells": res.cells,
        }
    if args.q is not None:
        res = count_congruences(sysd, args.q, budget=cfg.budget)
        out["congruences"] = {"q": res.q, "M": res.M}
    if args.chi is not None:
        p, t = args.chi
        part = chi_p_partial(sysd, p, t)
        out["chi"] = asdict(part)
    if args.witness is not None:
        rng = np.random.default_rng(cfg.seed)
        out["padic_witness"] = asdict(padic_witness(sysd, args.witness, rng=rng))
    if len(out) == 2:
        raise ValueError("local needs at least one of --series/--q/--chi/--witness")
    return out, False


def _cmd_arch(args, cfg: RunConfig):
    sysd = _load_spec(args)
    if args.theta:
        theta = tuple(float(t) for t in args.theta.split(","))
    else:
        # the anchor's theta solves its sign-flipped system, not sysd itself
        anchor = find_real_anchor(sysd, rng=np.random.default_rng(cfg.seed))
        sysd, theta = anchor.system, anchor.theta
    value, diag = singular_integral(sysd, Q=args.q, P=args.p, theta=theta)
    out = {
        "system": format_system(sysd),
        "J": value,
        "W": diag["W"],
        "ladder": {str(k): v for k, v in sorted(diag["ladder"].items())},
        "tail_ratios": diag["tail_ratios"],
        "quadrature_work": {str(k): v for k, v in sorted(diag["quadrature_work"].items())},
        "imag_residue": diag["imag_residue"],
        "theta": diag["theta"],
    }
    if args.volume:
        rng = np.random.default_rng(cfg.seed)
        c, sigma = volume_constant(sysd, diag["theta"], rng=rng, samples=args.mc_samples)
        out["volume"] = {"C": c, "stderr": sigma}
    return out, False


def _cmd_arcs(args, cfg: RunConfig):
    out: dict = {}
    if args.member:
        a2, a3 = (float(v) for v in args.member.split(","))
        fam = ArcFamily(Q=args.q, P=args.p, t=args.t, homogeneous=not args.inhomogeneous)
        mem = membership(a2, a3, fam)
        out["member"] = {"inside": mem.inside, "witness": mem.witness}
    if args.dirichlet:
        alpha, n = args.dirichlet.split(",")
        approx = dirichlet_approx(float(alpha), int(n))
        out["dirichlet"] = asdict(approx)
    if args.lam:
        alpha, b, r, z = args.lam.split(",")
        out["lambda"] = float(transfer_lambda(float(alpha), int(b), int(r), float(z)))
    if args.transfer_report:
        rng = np.random.default_rng(cfg.seed)
        grid = {}
        for H in (4, 8, 12):
            for Y in (4, 8, 12):
                samples = []
                for _ in range(16):
                    a1, a2, a3 = rng.random(3)
                    samples.append((float(a3), block_sum(float(a1), float(a2), float(a3), Y, H).magnitude))
                rep = transfer_bound_check(samples, X=float(H * Y), Y=float(Y), Z=float(H * Y * Y), theta=0.5)
                grid[f"H={H},Y={Y}"] = {"C1": rep["C1_fitted"], "C2": rep["C2_observed"]}
        out["transfer_report"] = grid
    if not out:
        raise ValueError("arcs needs one of --member/--dirichlet/--lam/--transfer-report")
    return out, False


def _cmd_smooth(args, cfg: RunConfig):
    out: dict = {}
    if args.x is not None:
        if args.r is None:
            raise ValueError("--x needs --r")
        members = smooth_set(args.x, args.r)
        out["count"] = len(members)
        out["density"] = len(members) / args.x
        if len(members) <= 50:
            out["members"] = members
    if args.rho is not None:
        out["rho"] = dickman_rho(args.rho)
    if args.ceta is not None:
        out["c_eta"] = c_eta(args.ceta)
    if not out:
        raise ValueError("smooth needs one of --x/--rho/--c-eta")
    return out, False


def _cmd_solve(args, cfg: RunConfig):
    sysd = _load_spec(args)
    out: dict = {"system": format_system(sysd), "class": classify(sysd).name}
    if args.conditions:
        rng = np.random.default_rng(cfg.seed)
        rep = check_conditions(sysd, rng=rng)
        out["conditions"] = asdict(rep)
    if args.anchor:
        anchor = find_real_anchor(sysd, rng=np.random.default_rng(cfg.seed))
        out["anchor"] = {
            "theta": anchor.theta,
            "residuals": anchor.residuals,
            "jacobian_rank": anchor.jacobian_rank,
        }
    if args.b is not None:
        res = count_solutions(sysd, args.b, restriction=args.restriction, R=args.r, budget=cfg.budget)
        out["count"] = {"B": args.b, "N": res.count, "restriction": res.restriction,
                        "witnesses": [list(w) for w in res.witnesses],
                        "witnesses_truncated": res.witnesses_truncated}
    if args.witness_bound is not None:
        out["witness"] = search_witness(sysd, args.witness_bound)
    if args.predict is not None:
        rng = np.random.default_rng(cfg.seed)
        out["predict"] = predict_and_compare(sysd, args.predict, Q=args.series_q, eta=args.eta, rng=rng, budget=cfg.budget)
    if len(out) == 2:
        raise ValueError("solve needs one of --conditions/--anchor/--B/--witness-bound/--predict")
    return out, False


def _cmd_verify(args, cfg: RunConfig):
    results = run_all(args.profile)
    sys.stdout.write(format_results(results) + "\n")
    failed = not all(r.passed for r in results)
    if cfg.out:
        payload = {"profile": args.profile, "criteria": [asdict(r) for r in results]}
        _emit(cfg, _report(cfg, payload))
    # stdout already carries the line-per-criterion report
    return None, failed


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write the artifact to this path instead of stdout")
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--budget", type=int, default=DEFAULT_LEDGER_BUDGET)

    parser = argparse.ArgumentParser(prog="diagpair", description=__doc__.splitlines()[0], parents=[common])
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    p = add_parser("moments", help="exact moment counts")
    p.add_argument("--kind", choices=("T", "T-shifted", "I", "J", "J1", "mixed"), default="T")
    p.add_argument("--s", type=int, default=2)
    p.add_argument("--x", type=int, default=10)
    p.add_argument("--y", type=int, default=4)
    p.add_argument("--h", type=int, default=4)
    p.add_argument("--hmax", type=int, default=None)
    p.add_argument("--p", type=float, default=10.0)
    p.add_argument("--factor", action="append", help="theta:cubic:quad:exp[:R], repeatable")
    p.set_defaults(func=_cmd_moments)

    p = add_parser("local", help="singular series, congruence counts, chi identity")
    p.add_argument("--spec")
    p.add_argument("--builtin", choices=sorted(BUILTIN_SYSTEMS))
    p.add_argument("--series", type=int, metavar="Q")
    p.add_argument("--q", type=int)
    p.add_argument("--chi", type=int, nargs=2, metavar=("P", "T"))
    p.add_argument("--witness", type=int, metavar="P")
    p.set_defaults(func=_cmd_local)

    p = add_parser("arch", help="singular integral ladder and MC volume")
    p.add_argument("--spec")
    p.add_argument("--builtin", choices=sorted(BUILTIN_SYSTEMS))
    p.add_argument("--q", type=float, default=32.0)
    p.add_argument("--p", type=float, default=10.0)
    p.add_argument("--theta", help="comma-separated box anchors; default: Newton anchor")
    p.add_argument("--volume", action="store_true")
    p.add_argument("--mc-samples", type=int, default=400_000)
    p.set_defaults(func=_cmd_arch)

    p = add_parser("arcs", help="arc membership, Dirichlet approximation, transference")
    p.add_argument("--member", metavar="A2,A3")
    p.add_argument("--q", type=float, default=8.0)
    p.add_argument("--p", type=float, default=50.0)
    p.add_argument("--t", type=int, default=1)
    p.add_argument("--inhomogeneous", action="store_true")
    p.add_argument("--dirichlet", metavar="ALPHA,N")
    p.add_argument("--lam", metavar="ALPHA,B,R,Z")
    p.add_argument("--transfer-report", action="store_true")
    p.set_defaults(func=_cmd_arcs)

    p = add_parser("smooth", help="smooth sets and the Dickman function")
    p.add_argument("--x", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--rho", type=float, metavar="U")
    p.add_argument("--c-eta", dest="ceta", type=float, metavar="ETA")
    p.set_defaults(func=_cmd_smooth)

    p = add_parser("solve", help="anchors, counts, witnesses, prediction")
    p.add_argument("--spec")
    p.add_argument("--builtin", choices=sorted(BUILTIN_SYSTEMS))
    p.add_argument("--conditions", action="store_true")
    p.add_argument("--anchor", action="store_true")
    p.add_argument("--b", type=int, dest="b", metavar="B")
    p.add_argument("--restriction", choices=("none", "smooth-y", "smooth-xl"), default="none")
    p.add_argument("--r", type=int, dest="r", metavar="R")
    p.add_argument("--witness-bound", type=int, metavar="B")
    p.add_argument("--predict", type=float, metavar="P")
    p.add_argument("--series-q", type=int, default=100)
    p.add_argument("--eta", type=float)
    p.set_defaults(func=_cmd_solve)

    p = add_parser("verify", help="run the acceptance criteria")
    p.add_argument("--profile", choices=("smoke", "desk"), default="smoke")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg = RunConfig(
        subcommand=args.subcommand,
        spec=getattr(args, "spec", None) or getattr(args, "builtin", None),
        seed=args.seed,
        budget=args.budget,
        out=args.out,
        format=args.format,
        params={
            k: v
            for k, v in vars(args).items()
            if k not in ("func", "out", "format", "seed", "budget", "subcommand", "spec", "builtin")
            and v is not None
        },
    )
    try:
        result, failed = args.func(args, cfg)
    except BudgetError as exc:
        sys.stderr.write(
            json.dumps({"error": "budget", "what": exc.what, "estimate": str(exc.estimate), "cap": str(exc.cap)})
            + "\n"
        )
        return EXIT_BUDGET
    except (ValueError, OSError, KeyError) as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    if result is not None:
        _emit(cfg, _report(cfg, result))
    return EXIT_ASSERT if failed else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
