"""Command-line front end and batch experiment runner.

Commands: solve, mech, rho, audit, lowerbound, gen, decompose.  Every
command is deterministic given its full flag set including --seed; when no
seed is given one is drawn and recorded in the persisted report.  Reports
embed the instance hash, seed, tolerance, and package version.  The
environment variable MATCHLAB_TOL overrides the default certificate
tolerance.  Outputs go to --out as JSON/CSV; stdout carries a one-line
summary.

Generator specs use colon syntax, e.g. ``random:8``, ``random:6,grid,4``,
``rsd-worst:5,0.001``, ``ordinal-worst:6,0.001``, ``table1``.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import secrets
import sys

import numpy as np

from . import __version__
from .analysis import (
    benchmark,
    rho_exact,
    rho_scan,
    rpi_expected_utilities,
    truthfulness_audit,
    utility_ratio,
)
from .core import (
    DimensionMismatch,
    Infeasible,
    Instance,
    MatchingError,
    MechanismReport,
    NoConvergence,
    instance_hash,
    load_instance,
    save_instance,
    save_report,
    utilities as core_utilities,
)
from .instances import parse_generator_spec
from .lottery import decompose, sample as sample_lottery
from .lowerbound import gen_lowerbound
from .mechanisms import MECHANISMS, run_mechanism
from .nsw import DEFAULT_KKT_TOL, NswProblem, solve

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_SOLVER = 2


def _default_tol() -> float:
    env = os.environ.get("MATCHLAB_TOL")
    if not env:
        return DEFAULT_KKT_TOL
    try:
        return float(env)
    except ValueError:
        raise MatchingError(f"MATCHLAB_TOL is not a number: {env!r}") from None


def _ensure_seed(seed: int | None) -> int:
    return secrets.randbelow(2 ** 62) if seed is None else int(seed)


def _load_or_generate(args, seed: int) -> Instance:
    if getattr(args, "instance", None):
        return load_instance(args.instance)
    if getattr(args, "gen", None):
        return parse_generator_spec(args.gen, seed=seed)
    raise MatchingError("need --instance FILE or --gen SPEC")


def _out_path(args, name: str) -> str | None:
    if not getattr(args, "out", None):
        return None
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def _base_metadata(inst: Instance, seed: int, tol: float) -> dict:
    return {"instance_hash": instance_hash(inst), "seed": seed,
            "tol": tol, "version": __version__}


def cmd_solve(args) -> int:
    tol = args.tol
    seed = _ensure_seed(args.seed)
    inst = _load_or_generate(args, seed)
    active = None
    if args.agents:
        active = tuple(inst.agent_index(a.strip())
                       for a in args.agents.split(","))
    trace: list | None = [] if args.trace else None
    sol = solve(NswProblem.create(inst, active_agents=active), tol=tol,
                trace=trace)
    payload = {
        "utilities": sol.utilities.tolist(),
        "surplus": sol.surplus.tolist(),
        "objective": sol.objective,
        "probs": np.asarray(sol.assignment.probs).tolist(),
        "duals": {"t": sol.duals.t.tolist(), "q": sol.duals.q.tolist()},
        "kkt_residual": sol.kkt_residual,
        "degenerate_agents": sorted(sol.degenerate_agents),
        "metadata": _base_metadata(inst, seed, tol),
    }
    path = _out_path(args, "solution.json")
    if path:
        save_report(path, payload)
    if args.trace and args.out:
        with open(os.path.join(args.out, "trace.csv"), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iteration", "objective", "mu"])
            writer.writerows(trace)
    us = ", ".join(f"{u:.6g}" for u in sol.utilities)
    print(f"solve: utilities ({us}), kkt residual {sol.kkt_residual:.2e}"
          + (f" -> {path}" if path else ""))
    return EXIT_OK


def cmd_mech(args) -> int:
    if args.reps < 1:
        raise DimensionMismatch("--reps must be at least 1")
    tol = args.tol
    seed = _ensure_seed(args.seed)
    inst = _load_or_generate(args, seed)
    opts: dict = {"tol": tol}
    if args.mechanism == "rsd":
        opts["mode"] = "exact" if args.exact else "sampled"
        opts["samples"] = args.samples
    if args.mechanism == "rpi":
        opts["n0"] = args.n0

    meta = _base_metadata(inst, seed, tol)
    if args.mechanism == "rpi" and args.reps > 1:
        mean, stderr = rpi_expected_utilities(inst, reps=args.reps,
                                              seed=seed, n0=args.n0, tol=tol)
        assignment = run_mechanism("rpi", inst, seed=seed, **opts)
        meta["reps"] = args.reps
        meta["probs_source"] = f"single draw at seed {seed}"
        meta["utilities_source"] = f"mean over {args.reps} draws"
        meta["mean_utilities"] = mean.tolist()
        meta["stderr"] = stderr.tolist()
        mech_utils = mean
    else:
        assignment = run_mechanism(args.mechanism, inst, seed=seed, **opts)
        mech_utils = core_utilities(inst, assignment)

    report = MechanismReport(
        mechanism=args.mechanism, seed=seed,
        probs=np.asarray(assignment.probs),
        utilities=np.asarray(mech_utils), metadata=meta)
    if inst.is_square and inst.has_unit_supplies:
        bench = benchmark(inst, tol=tol)
        report.benchmark_utilities = bench.benchmark_utilities
        report.ratios = utility_ratio(bench, mech_utils).ratios.tolist()
    if args.lottery:
        meta["lottery"] = decompose(assignment).to_jsonable()

    path = _out_path(args, f"mech_{args.mechanism}.json")
    if path:
        save_report(path, report)
    us = ", ".join(f"{u:.6g}" for u in np.asarray(mech_utils))
    worst = (max(report.ratios) if report.ratios else float("nan"))
    print(f"mech {args.mechanism}: utilities ({us}), max ratio {worst:.6g}"
          + (f" -> {path}" if path else ""))
    return EXIT_OK


def cmd_rho(args) -> int:
    if args.trials < 1:
        raise DimensionMismatch("--trials must be at least 1")
    tol = args.tol
    seed = _ensure_seed(args.seed)
    if args.trials > 1:
        if not args.gen:
            raise MatchingError("a scan needs --gen SPEC")
        scan = rho_scan(args.gen, trials=args.trials, seed=seed, tol=tol)
        path = _out_path(args, "rho_scan.json")
        if path:
            save_report(path, scan.to_dict())
            with open(os.path.join(args.out, "rho_hist.csv"), "w",
                      newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["bin_left", "bin_right", "count"])
                for k, count in enumerate(scan.histogram_counts):
                    writer.writerow([scan.histogram_edges[k],
                                     scan.histogram_edges[k + 1], count])
        print(f"rho scan: max {scan.max_rho:.9g} over {scan.trials} trials, "
              f"{scan.skipped_pairs} degenerate (subset, agent) pairs skipped"
              + (f" -> {path}" if path else ""))
        return EXIT_OK
    inst = _load_or_generate(args, seed)
    rep = rho_exact(inst, tol=tol)
    payload = {
        "rho": rep.rho,
        "witness_subset": list(rep.witness_subset),
        "witness_agent": rep.witness_agent,
        "utility_before": rep.utility_before,
        "utility_after": rep.utility_after,
        "rho_half": rep.rho_half,
        "witness_half": list(rep.witness_half),
        "metadata": _base_metadata(inst, seed, tol),
    }
    path = _out_path(args, "rho.json")
    if path:
        save_report(path, payload)
    print(f"rho: {rep.rho:.9g} (witness subset {list(rep.witness_subset)}, "
          f"agent {rep.witness_agent})" + (f" -> {path}" if path else ""))
    return EXIT_OK


def cmd_audit(args) -> int:
    tol = args.tol
    seed = _ensure_seed(args.seed)
    inst = _load_or_generate(args, seed)
    rep = truthfulness_audit(inst, args.mechanism,
                             misreports=args.misreports, seed=seed, tol=tol)
    payload = {
        "mechanism": rep.mechanism,
        "worst_gain": rep.worst_gain,
        "gains": {str(k): v for k, v in rep.gains.items()},
        "audited_agents": list(rep.audited_agents),
        "misreports": rep.misreports,
        "metadata": _base_metadata(inst, seed, tol),
    }
    path = _out_path(args, f"audit_{args.mechanism}.json")
    if path:
        save_report(path, payload)
    print(f"audit {args.mechanism}: worst gain {rep.worst_gain:.3e} over "
          f"{len(rep.audited_agents)} agents x {rep.misreports} misreports"
          + (f" -> {path}" if path else ""))
    return EXIT_OK


def cmd_lowerbound(args) -> int:
    market = gen_lowerbound(args.s)
    summary = f"lowerbound s={args.s}: loser ratio {market.loser_ratio()}"
    if args.out:
        paths = market.write_bundle(args.out)
        summary += f" -> {args.out} ({len(paths)} files)"
    if args.certify:
        reports = market.certificates()
        worst = max(rep.residual for rep in reports)
        summary += f", certified {len(reports)} tables, worst residual {worst:.3g}"
        if args.out:
            with open(os.path.join(args.out, "certificates.json"), "w",
                      encoding="utf-8") as fh:
                json.dump([{
                    "table": rep.table, "equilibrium": rep.equilibrium,
                    "residual": rep.residual,
                    "normalization": rep.normalization,
                    "external_item_gaps": rep.external_item_gaps,
                } for rep in reports], fh, indent=2)
                fh.write("\n")
    print(summary)
    return EXIT_OK


def cmd_gen(args) -> int:
    seed = _ensure_seed(args.seed)
    inst = parse_generator_spec(args.spec, seed=seed)
    path = (_out_path(args, "instance.json")
            if args.out else args.out_file)
    if not path:
        raise MatchingError("need --out DIR or --out-file FILE")
    save_instance(path, inst)
    print(f"gen {args.spec}: {inst.n_agents}x{inst.n_items} (seed {seed}) "
          f"-> {path}")
    return EXIT_OK


def cmd_decompose(args) -> int:
    from .core import ParseError

    seed = _ensure_seed(args.seed)
    with open(args.probs, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{args.probs}: {exc.msg}", line=exc.lineno)
    try:
        probs = np.asarray(data["probs"] if isinstance(data, dict) else data,
                           dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{args.probs}: expected a probs matrix ({exc})",
                         field="probs")
    lot = decompose(probs)
    payload = {
        "terms": lot.to_jsonable(),
        "residual": lot.residual,
        "sample": list(sample_lottery(lot, seed)) if args.sample else None,
        "metadata": {"seed": seed, "version": __version__},
    }
    path = _out_path(args, "lottery.json")
    if path:
        save_report(path, payload)
    print(f"decompose: {len(lot.terms)} terms, residual {lot.residual:.2e}"
          + (f" -> {path}" if path else ""))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matchlab",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, gen=True):
        p.add_argument("--instance", help="instance JSON file")
        if gen:
            p.add_argument("--gen", help="generator spec name:args")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--tol", type=float, default=_default_tol())
        p.add_argument("--out", help="output directory")

    p = sub.add_parser("solve", help="welfare solve with certificate")
    common(p)
    p.add_argument("--agents", help="comma-separated agent labels/indices")
    p.add_argument("--trace", action="store_true",
                   help="write convergence trace CSV")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("mech", help="run a mechanism against the benchmark")
    p.add_argument("mechanism", choices=sorted(MECHANISMS))
    common(p)
    p.add_argument("--reps", type=int, default=1,
                   help="Monte-Carlo repetitions (rpi)")
    p.add_argument("--n0", type=int, default=4, help="rpi recursion cutoff")
    p.add_argument("--exact", action="store_true", help="exact rsd")
    p.add_argument("--samples", type=int, default=1000, help="sampled rsd")
    p.add_argument("--lottery", action="store_true",
                   help="attach a matching lottery")
    p.set_defaults(func=cmd_mech)

    p = sub.add_parser("rho", help="utility-monotonicity measurement")
    common(p)
    p.add_argument("--trials", type=int, default=1,
                   help=">1 scans seeded random instances")
    p.set_defaults(func=cmd_rho)

    p = sub.add_parser("audit", help="truthfulness audit")
    p.add_argument("mechanism", choices=sorted(MECHANISMS))
    common(p)
    p.add_argument("--misreports", type=int, default=20)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("lowerbound", help="adversarial family bundle")
    p.add_argument("--s", type=int, required=True, help="family depth")
    p.add_argument("--certify", action="store_true")
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_lowerbound)

    p = sub.add_parser("gen", help="write a generated instance")
    p.add_argument("spec", help="generator spec name:args")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", help="output directory")
    p.add_argument("--out-file", help="output file path")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("decompose", help="matching lottery of a marginal matrix")
    p.add_argument("--probs", required=True,
                   help="JSON file with a probs matrix")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--sample", action="store_true",
                   help="draw one matching")
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_decompose)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (OSError, MatchingError) as exc:
        if isinstance(exc, (NoConvergence, Infeasible)):
            print(f"solver error: {exc}", file=sys.stderr)
            return EXIT_SOLVER
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
