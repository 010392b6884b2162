"""Command-line pipeline: solve, simulate, verify, convergence study.

Exit codes: 0 success, 1 usage error (also a grid or path count too
large for memory, or too large to represent), 2 unreadable or invalid
problem file, 3 non-finite numbers in a sweep or a simulation (a
singular block or an overflowed layer in a backward sweep, an overflowed
cost in ``simulate``, a non-finite statistic or bound in ``verify`` or
value in ``convergence``, which then write no report), 4 verification
failure. Only a run that exits 0 or 4 prints on stdout. All randomness
flows from the single --seed: every Monte Carlo pass generates its
increments from it, one step at a time (``simulator.increment_rows``),
as a block or streamed, so runs are reproducible byte for byte.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import exports
from .continuous_limit import (continuous_residuals, extract_fields,
                               invertibility_rcond)
from .discrete_engine import SweepCoefficients, backward_sweep
from .errors import (DelayGameError, IncommensurateDelays, NonFiniteLayer,
                     SingularGamma)
from .gains import IDENTITY_TOL, assemble_gains, stationarity_identity_check
from .model import build_grid, grid_counts, load_problem, validate
from .simulator import estimate_costs, simulate_path_gains
from . import verify as vfy

EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3
EXIT_VERIFY = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """A usage error is one stderr line, without the usage text."""
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="delaygame",
        description="LQ stochastic differential games with asymmetric "
                    "information delays: solve, simulate, verify.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
            ("solve", "backward sweep, field extraction, gain assembly"),
            ("simulate", "Monte Carlo closed-loop simulation and costs"),
            ("verify", "residual and deviation verification suite"),
            ("convergence", "step-halving convergence study")):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--problem", type=Path, required=True,
                       help="problem file (JSON)")
        p.add_argument("--delta", type=float, default=None,
                       help="target step length (default h2/2)")
        p.add_argument("--out", type=Path, default=Path("out"),
                       help="output directory")
        if name in ("simulate", "verify"):
            p.add_argument("--paths", type=int, default=2000,
                           help="Monte Carlo paths")
            p.add_argument("--seed", type=int, default=0,
                           help="RNG seed (u64)")
        if name in ("verify", "convergence"):
            p.add_argument("--halvings", type=int, default=2,
                           help="step halvings for convergence/trend checks")
        if name == "verify":
            p.add_argument("--debug-zero-layer", type=int, default=None,
                           help="zero one layer before testing "
                                "(mutation harness)")
    return parser


def _positive(args) -> str | None:
    """The first out-of-range value among the flags the command takes."""
    given = vars(args)
    if args.delta is not None and not args.delta > 0:
        return "--delta must be positive"      # also rejects nan
    if given.get("paths", 1) <= 0:
        return "--paths must be positive"
    if args.command == "verify" and args.paths < 2:
        return "verify needs --paths >= 2 (paired standard errors)"
    if given.get("halvings", 0) < 0:
        return "--halvings must be nonnegative"
    if not 0 <= given.get("seed", 0) <= 2 ** 64 - 1:
        return "--seed must fit an unsigned 64-bit value"
    return None


def _oversized(args, spec, delta_target: float) -> str | None:
    """The one-line error for the first array of the command that numpy
    could not index (more than intp-max bytes), naming the flag that sizes
    it, or None; worked out from the flags alone, before anything is
    allocated. The arrays are the ladder's largest stack, phat_lag (N+2,
    2, d1+1, n, n), on the base grid and on the finest re-solve
    (delta / 2^halvings), the paired pass's windows (1+D, d1+1, n, P) in
    ``verify`` and the trajectory block (N+2, P, max(n, d1c, d2c)) in
    ``simulate``."""
    limit = np.iinfo(np.intp).max
    given, n = vars(args), spec.n
    # capped, as a larger count overflows all the same and a huge int
    # cannot be converted to a float
    paths = min(given.get("paths", 1), limit)

    def ladder(target):
        steps, d1, _ = grid_counts(spec, target)
        return (steps + 1) * 2 * (d1 + 1) * n * n

    steps, d1, _ = grid_counts(spec, delta_target)
    sizes = [("--delta", repr(delta_target), "ladder", ladder(delta_target))]
    if "halvings" in given:
        sizes.append(("--halvings", args.halvings, "finest re-solve's ladder",
                      ladder(math.ldexp(spec.T / steps, -args.halvings))))
    if args.command == "verify":
        sizes.append(("--paths", args.paths, "paired pass's windows",
                      (1 + len(vfy.DEVIATION_FAMILY)) * (d1 + 1) * n * paths))
    if args.command == "simulate":
        sizes.append(("--paths", args.paths, "trajectory block",
                      (steps + 1) * paths * max(n, spec.d1c, spec.d2c)))
    for flag, value, what, elements in sizes:
        nbytes = 8.0 * elements
        if not nbytes <= limit:
            return (f"error: too large to allocate: {flag} {value} makes "
                    f"the {what} {nbytes:.3g} bytes, more than numpy can "
                    f"index ({limit})")
    return None


def _load(args):
    """Parse + validate + solve; shared front half of every command."""
    try:
        spec = load_problem(args.problem)
    except (OSError, ValueError, TypeError) as exc:
        print(f"cannot load problem: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_VALIDATION)
    report = validate(spec)
    if not report.passed:
        print("validation: " + "; ".join(report.violations), file=sys.stderr)
        raise SystemExit(EXIT_VALIDATION)
    delta_target = args.delta if args.delta is not None else spec.h2 / 2
    oversized = _oversized(args, spec, delta_target)
    if oversized:
        print(oversized, file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    grid = build_grid(spec, delta_target)
    coeffs = SweepCoefficients.from_spec(spec)
    return spec, coeffs, backward_sweep(coeffs, grid)


def cmd_solve(args) -> int:
    spec, coeffs, ladder = _load(args)
    fields = extract_fields(ladder)
    law = assemble_gains(fields, spec)
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    exports.export_ladder_csv(ladder, out / "ladder.csv")
    exports.export_fields_csv(fields, out / "fields.csv")
    exports.export_gains_csv(law, out / "gains.csv")
    rc = invertibility_rcond(fields, coeffs)
    exports.export_ladder_metadata(
        ladder, out / "metadata.json", problem_path=args.problem,
        extra={"closure_rcond_min": {k: float(np.min(v))
                                     for k, v in rc.items()},
               "effective_weight_rcond_min": {"rt1": law.rt1_rcond_min,
                                              "rt2": law.rt2_rcond_min}})
    grid = ladder.grid
    print(f"grid: N={grid.N} delta={grid.delta:.6g} d1={grid.d1} d2={grid.d2}")
    for which, val in sorted(ladder.rcond_min.items()):
        print(f"block rcond min {which}: {val:.3e}")
    for which, v in rc.items():
        print(f"closure rcond min {which}: {float(np.min(v)):.3e}")
    print(f"effective weight rcond min: rt1={law.rt1_rcond_min:.3e} "
          f"rt2={law.rt2_rcond_min:.3e}")
    print(f"artifacts written to {out}")
    return 0


def cmd_simulate(args) -> int:
    spec, _, ladder = _load(args)
    fields = extract_fields(ladder)
    law = assemble_gains(fields, spec)
    # an overflow shows as a non-finite cost, checked before any export
    with np.errstate(over="ignore", invalid="ignore"):
        traj = simulate_path_gains(law, spec, seed=args.seed,
                                   n_paths=args.paths)
        est = estimate_costs(traj, spec)
    if not np.all(np.isfinite((est.j1, est.j2, est.j1_se or 0.0,
                               est.j2_se or 0.0))):
        print("simulation: non-finite cost (overflow)", file=sys.stderr)
        return EXIT_NUMERIC
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    exports.export_trajectories_csv(traj, out / "trajectories.csv")
    exports.export_cost_report(est, out / "costs.json")
    se1 = "n/a" if est.j1_se is None else f"{est.j1_se:.4g}"
    se2 = "n/a" if est.j2_se is None else f"{est.j2_se:.4g}"
    print(f"J1 = {est.j1:.6g} (se {se1}), J2 = {est.j2:.6g} (se {se2}), "
          f"paths={est.n_paths}, seed={est.seed}")
    print(f"artifacts written to {out}")
    return 0


def _trend_ratio(values) -> float:
    """Worst ratio of a value to the one before it (0.0 for fewer than
    two); a NaN value gives NaN, which ``verify`` ends on."""
    return float(np.max([b / a if a > 0 else (0.0 if b == 0 else np.inf)
                         for a, b in zip(values, values[1:])], initial=0.0))


def _halvings(spec, coeffs, ladder, halvings: int, zero_at=None):
    """The solved ladder, then a re-solve at each halved step; with
    ``zero_at`` each re-solve is corrupted like the first ladder."""
    yield ladder
    for j in range(1, halvings + 1):
        g = build_grid(spec, ladder.grid.delta / 2 ** j)
        lad = backward_sweep(coeffs, g)
        if zero_at is not None:
            vfy.zero_layer(lad, min(zero_at, g.N + 1))
        yield lad


def cmd_verify(args) -> int:
    spec, coeffs, ladder = _load(args)
    grid = ladder.grid
    if args.debug_zero_layer is not None:
        if not 0 <= args.debug_zero_layer <= grid.N + 1:
            print("--debug-zero-layer out of range", file=sys.stderr)
            return EXIT_USAGE
        vfy.zero_layer(ladder, args.debug_zero_layer)
    fields = extract_fields(ladder)
    law = assemble_gains(fields, spec)
    records, lines = [], []

    def add(name, statistic, bound, ok, skipped=None):
        """Record one check, whose verdict ``ok`` compares ``statistic``
        with ``bound``; ``skipped`` gives the reason a check compared
        nothing (it then counts as a pass with statistic 0). A non-finite
        statistic or bound ends the command before any report is written
        or any line printed."""
        if skipped:
            statistic, ok = 0.0, True
        if not np.isfinite((statistic, bound)).all():
            print(f"verification: non-finite statistic in {name} (overflow)",
                  file=sys.stderr)
            raise SystemExit(EXIT_NUMERIC)
        records.append({"name": name, "statistic": float(statistic),
                        "bound": float(bound), "pass": bool(ok),
                        "evaluated": skipped is None})
        verdict = (f"not evaluated ({skipped})" if skipped
                   else "pass" if ok else "FAIL")
        lines.append(f"{name}: stat={statistic:.4e} bound={bound:.4e} "
                     f"{verdict}")

    term_gap = max(float(np.max(np.abs(ladder.phat[-1] - [spec.H1, spec.H2]))),
                   float(np.max(np.abs(ladder.phat_lag[-1]))),
                   float(np.max(np.abs(ladder.ccheck_lag[-1]))))
    add("terminal_exactness", term_gap, 0.0, term_gap == 0.0)

    def beyond_horizon(lag):
        """Largest lag entry whose forward index k + j exceeds N."""
        k = np.arange(len(lag))[:, None]
        j = np.arange(lag.shape[2])
        return np.max(np.abs(lag).max(axis=(1, 3, 4))[k + j > grid.N],
                      initial=0.0)

    trunc = float(max(beyond_horizon(ladder.phat_lag),
                      beyond_horizon(ladder.ccheck_lag)))
    add("lag_truncation", trunc, 0.0, trunc == 0.0)

    ident = stationarity_identity_check(law, fields, spec).max
    add("gain_stationarity_identity", ident, IDENTITY_TOL,
        ident <= IDENTITY_TOL)

    # an overflow on the paths shows as a non-finite statistic
    with np.errstate(over="ignore", invalid="ignore"):
        rep = vfy.fbsde_residual_test(ladder, spec, args.paths, args.seed)
        net = rep.component("projection_net").max
        bound = vfy.FBSDE_BAND_C * grid.delta
        add("fbsde_martingale_projection", net, bound, net <= bound)

        rep, verdicts = vfy.paired_law_checks(ladder, law, spec, args.paths,
                                              args.seed)
        net = rep.component("projection_net").max
        bound = vfy.STATIONARITY_BAND_C * grid.delta
        add("stationarity_projection", net, bound, net <= bound)

        # one-sided: a deviation must not beat the equilibrium beyond noise
        for v in verdicts:
            bound = -3.0 * v.combined_se
            add(f"nash_deviation_p{v.player}_"
                f"{v.description.replace(' ', '_')}",
                v.margin, bound, v.margin >= bound)

        cross = vfy.cross_representation_gap(ladder, law, spec,
                                             min(args.paths, 256), args.seed)
        bound = vfy.CROSS_REP_C * grid.delta
        add("cross_representation", cross, bound, cross <= bound)

    # step-halving trends for the deterministic residuals
    ode_series, semi_series, ladders = [], [], []
    for lad in _halvings(spec, coeffs, ladder, args.halvings,
                         args.debug_zero_layer):
        ladders.append(lad)
        cr = continuous_residuals(fields if lad is ladder
                                  else extract_fields(lad), coeffs)
        ode_series.append(cr.component("riccati_ode").max)
        semi_series.append(cr.component("semigroup_check").max)
    # only ladders with active level-coupling factors enter the z trend
    # (the lag gap, hence the factor count, changes with the step length)
    zrep = vfy.z_factor_convergence(ladders)
    zdist = [v for v in zrep.component("identity_distance").value if v > 0.0]
    for name, series, bound, why in (
            ("riccati_ode_trend", ode_series, 0.95, "needs --halvings >= 1"),
            ("semigroup_trend", semi_series, 0.95, "needs --halvings >= 1"),
            ("z_factor_convergence", zdist, 0.7,
             "fewer than two grids with coupling factors")):
        # a ratio of round-off noise shows no trend
        skipped = (why if len(series) < 2
                   else f"every residual <= {IDENTITY_TOL:g}"
                   if np.max(series) <= IDENTITY_TOL else None)
        ratio = _trend_ratio(series)
        add(name, ratio, bound, ratio <= bound, skipped=skipped)

    args.out.mkdir(parents=True, exist_ok=True)
    exports.export_verification_report(records, args.out / "verify_report.json")
    ok = all(r["pass"] for r in records)
    print("\n".join(lines))
    print("verification: " + ("all tests passed" if ok else "FAILURES present"))
    return 0 if ok else EXIT_VERIFY


def cmd_convergence(args) -> int:
    spec, coeffs, ladder = _load(args)
    deltas = [ladder.grid.delta / 2 ** j for j in range(args.halvings + 1)]
    lines, records, prev_fields = [], [], None
    # an overflow shows as a non-finite value, checked before any export
    with np.errstate(over="ignore", invalid="ignore"):
        for lad in _halvings(spec, coeffs, ladder, args.halvings):
            g = lad.grid
            f = extract_fields(lad)
            cr = continuous_residuals(f, coeffs)
            row = {"delta": g.delta,
                   "riccati_ode": cr.component("riccati_ode").max,
                   "semigroup": cr.component("semigroup_check").max,
                   "z_distance": vfy.z_factor_distances(lad)}
            if prev_fields is not None:
                # compare state coefficients on the coarser sample set
                stride = int(round(prev_fields.delta / g.delta))
                diff = np.max(np.abs(
                    f.P[:, ::stride][:, :prev_fields.P.shape[1]]
                    - prev_fields.P))
                row["state_coeff_diff_vs_coarser"] = float(diff)
            prev_fields = f
            records.append(row)
            lines.append("  ".join(f"{k}={v:.5g}" for k, v in row.items()))
        if not any(np.any(m) for m in (spec.Abar, spec.B1bar, spec.B2bar)):
            rep = vfy.no_delay_oracle(spec, deltas)
            for dt, gapv in zip(deltas, rep.component("gain_gap").value):
                lines.append(
                    f"no-delay gain gap at delta={dt:.5g}: {gapv:.5g}")
                records.append({"delta": dt,
                                "no_delay_gain_gap": float(gapv)})
        else:
            lines.append("no-delay reduction skipped (increment maps nonzero)")
    bad = next((k for r in records for k, v in r.items()
                if not np.isfinite(v)), None)
    if bad is not None:
        print(f"convergence: non-finite value in {bad} (overflow)",
              file=sys.stderr)
        return EXIT_NUMERIC
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    report = out / "convergence.json"
    exports.write_json(report, records)
    print("\n".join(lines))
    print(f"report written to {report}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    usage_error = _positive(args)
    if usage_error:
        print(usage_error, file=sys.stderr)
        return EXIT_USAGE
    if not args.problem.is_file():
        print(f"problem file not found: {args.problem}", file=sys.stderr)
        return EXIT_USAGE
    handler = {"solve": cmd_solve, "simulate": cmd_simulate,
               "verify": cmd_verify, "convergence": cmd_convergence}
    try:
        return handler[args.command](args)
    except SystemExit as exc:
        return int(exc.code)
    except MemoryError as exc:
        # e.g. a --delta so fine that the grid's arrays cannot be allocated
        print(f"error: out of memory: {str(exc) or 'allocation failed'}",
              file=sys.stderr)
        return EXIT_USAGE
    except (SingularGamma, NonFiniteLayer) as exc:
        print(f"backward sweep: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except DelayGameError as exc:
        print(f"error: {exc}", file=sys.stderr)
        # delays that share no step are a fault of the problem file
        return (EXIT_VALIDATION if isinstance(exc, IncommensurateDelays)
                else EXIT_USAGE)


if __name__ == "__main__":
    sys.exit(main())
