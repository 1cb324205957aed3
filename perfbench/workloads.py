"""The benchmark's four workloads: catalogues, ops and correctness checks.

Each workload draws its instances from a fixed catalogue of seeded
instances, so that ``reference.json`` can hold a reference result for every
entry.  The workload seed decides the order in which a run visits the
catalogue.  Catalogues are sized so that a 50 s run visits about every
entry: runs with different seeds then differ in order, not in content, and
the run-to-run spread measures the machine rather than the draw.  Ops come
in rounds; a round holds one op of each kind the workload mixes (sizes,
market families, solve variants), so a run of whole rounds always has the
same mix whatever its length.

All library calls go through module attributes (``analysis.rho_exact``,
``lottery.decompose``, ...), so that the traced run's wrappers see them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from matchlab import analysis, instances, lottery, mechanisms, nsw

SOLVE_TOL = 1e-7          # the library's default certificate tolerance
STOCHASTIC_TOL = 1e-8     # RPI marginals are doubly stochastic (AC-07)
RECON_TOL = 1e-8          # lottery reconstruction error (AC-11)
RHO_FLOOR = 1.0 - 1e-9
# Fingerprints must match the reference to |a - b| <= FP_ATOL + FP_RTOL |b|.
# Certified solves land near 1e-12 of the optimum, so 1e-6 only lets through
# answers that are the same up to solver round-off.
FP_RTOL = 1e-6
FP_ATOL = 1e-6


def fingerprint_matches(got: list[float], ref: list[float]) -> bool:
    return len(got) == len(ref) and all(
        abs(a - b) <= FP_ATOL + FP_RTOL * abs(b) for a, b in zip(got, ref))


@dataclass
class Checked:
    """What the benchmark's check found on one op's output."""

    problems: list[str] = field(default_factory=list)
    fingerprint: list[float] | None = None
    recon_err: float | None = None


@dataclass
class Task:
    """One op: ``key`` names its catalogue entry (and reference fingerprint)."""

    key: str
    run: Callable[[], Any]
    check: Callable[[Any], Checked]


@dataclass(frozen=True)
class Workload:
    name: str
    deadline_s: float                         # per op; a miss fails it and ends the run
    setup: Callable[[int], Any]               # workload seed -> generated inputs
    warm_up: Callable[[], None]
    round: Callable[[Any, int], list[Task]]   # (inputs, round index) -> ops
    catalogue: Callable[[Any], list[Task]] | None = None  # every entry once, for the reference


def _order(name: str, seed: int, group: Any, size: int) -> list[int]:
    """The seed's visiting order of one catalogue group."""
    ids = list(range(size))
    random.Random(f"{name}:{seed}:{group}").shuffle(ids)
    return ids


def _permutation_problem(matching, n: int) -> list[str]:
    if sorted(matching) != list(range(n)):
        return [f"sampled matching {list(matching)} is not a permutation of 0..{n - 1}"]
    return []


def _lottery_check(lot, probs: np.ndarray, matching, checked: Checked) -> None:
    n = probs.shape[0]
    err = float(np.abs(lot.reconstruct() - probs).max())
    checked.recon_err = err
    if not err <= RECON_TOL:
        checked.problems.append(f"lottery reconstruction error {err:.3e} > {RECON_TOL}")
    if len(lot.terms) > (n - 1) ** 2 + 1:
        checked.problems.append(f"{len(lot.terms)} lottery terms > (n-1)^2+1 at n={n}")
    if any(not w > 0 for w, _ in lot.terms):
        checked.problems.append("lottery has a non-positive weight")
    checked.problems += _permutation_problem(matching, n)


def _row_utilities(inst, probs: np.ndarray) -> list[float]:
    return (np.asarray(inst.values) * probs).sum(axis=1).tolist()


# ---------------------------------------------------------------------------
# rho_scan: rho_exact on n=5 markets of three families
# ---------------------------------------------------------------------------

RHO_SPECS = ("random:5", "random:5,grid", "random:5,sparse,0.5")
RHO_MARKETS = 32          # per family


def _rho_task(markets, spec: str, k: int) -> Task:
    inst = markets[(spec, k)]

    def check(report) -> Checked:
        out = Checked(fingerprint=[float(report.rho)])
        if not report.rho >= RHO_FLOOR:
            out.problems.append(f"rho {report.rho!r} < 1 - 1e-9")
        return out

    return Task(f"{spec}#{k}", lambda: analysis.rho_exact(inst, tol=SOLVE_TOL), check)


def _rho_setup(seed: int):
    markets = {(spec, k): instances.parse_generator_spec(spec, seed=100_000 + 1_000 * f + k)
               for f, spec in enumerate(RHO_SPECS) for k in range(RHO_MARKETS)}
    return markets, {spec: _order("rho_scan", seed, spec, RHO_MARKETS) for spec in RHO_SPECS}


def _rho_round(inputs, r: int) -> list[Task]:
    markets, order = inputs
    return [_rho_task(markets, spec, order[spec][r % RHO_MARKETS]) for spec in RHO_SPECS]


def _rho_catalogue(inputs) -> list[Task]:
    markets, _ = inputs
    return [_rho_task(markets, spec, k) for spec, k in markets]


# Warm-ups run each op kind once, outside the catalogue, on an instance large
# enough that one-time start-up (OpenBLAS starts its threads on the first
# big enough matrix) is paid at set-up and not timed as an op.

def _rho_warm_up() -> None:
    analysis.rho_exact(instances.gen_random(5, seed=1))


# ---------------------------------------------------------------------------
# rpi_lottery: an RPI draw, then the lottery of its marginals and a sample
# ---------------------------------------------------------------------------

RPI_SIZES = tuple(range(4, 13))
RPI_DISTS = ("uniform01", "sparse")
RPI_MARKETS = 4           # per (n, distribution)
RPI_DRAWS = 6             # draws per market visit; they share one PA memo
RPI_N0 = 4


def _rpi_draw(inst, seed: int, memo: dict):
    """What ``matchlab mech rpi --lottery`` does for one draw, plus a sample."""
    marginals = mechanisms.rpi_run(inst, n0=RPI_N0, seed=seed, tol=SOLVE_TOL, _pa_memo=memo)
    lot = lottery.decompose(marginals)
    return marginals, lot, lottery.sample(lot, seed)


def _rpi_check(inst):
    def check(result) -> Checked:
        marginals, lot, matching = result
        probs = np.asarray(marginals.probs)
        out = Checked(fingerprint=_row_utilities(inst, probs))
        dev = max(float(np.abs(probs.sum(axis=1) - 1).max()),
                  float(np.abs(probs.sum(axis=0) - 1).max()),
                  float(max(0.0, -probs.min())))
        if not dev <= STOCHASTIC_TOL:
            out.problems.append(f"RPI marginals off doubly stochastic by {dev:.3e}")
        _lottery_check(lot, probs, matching, out)
        return out
    return check


def _rpi_visit(markets, n: int, dist: str, k: int) -> list[Task]:
    """All draws of one market visit, sharing a fresh PA memo."""
    inst = markets[(n, dist, k)]
    memo: dict = {}
    tasks = []
    for d in range(RPI_DRAWS):
        seed = 300_000 + 10_000 * n + 1_000 * RPI_DISTS.index(dist) + 10 * k + d
        tasks.append(Task(f"n{n},{dist}#{k}/draw{d}",
                          lambda seed=seed: _rpi_draw(inst, seed, memo), _rpi_check(inst)))
    return tasks


def _rpi_setup(seed: int):
    markets = {(n, dist, k): instances.gen_random(n, dist, seed=200_000 + 1_000 * n + 100 * f + k)
               for n in RPI_SIZES for f, dist in enumerate(RPI_DISTS) for k in range(RPI_MARKETS)}
    order = {(n, dist): _order("rpi_lottery", seed, (n, dist), RPI_MARKETS)
             for n in RPI_SIZES for dist in RPI_DISTS}
    return markets, order


def _rpi_round(inputs, r: int) -> list[Task]:
    markets, order = inputs
    tasks = []
    for n in RPI_SIZES:
        dist = RPI_DISTS[(r + n) % 2]
        tasks += _rpi_visit(markets, n, dist, order[(n, dist)][(r // 2) % RPI_MARKETS])
    return tasks


def _rpi_catalogue(inputs) -> list[Task]:
    markets, _ = inputs
    return [t for (n, dist, k) in markets for t in _rpi_visit(markets, n, dist, k)]


def _rpi_warm_up() -> None:
    _rpi_draw(instances.gen_random(RPI_SIZES[-1], seed=1), 1, {})


# ---------------------------------------------------------------------------
# large_solve: certified solves at n in {16, 24, 32}
# ---------------------------------------------------------------------------

SOLVE_SIZES = (16, 24, 32)
SOLVE_MARKETS = 6         # per size and variant
SOLVE_VARIANTS = ("benchmark", "plain")


def _solve_once(inst, variant: str):
    if variant == "benchmark":
        return analysis.benchmark(inst, tol=SOLVE_TOL).solution
    return nsw.solve(nsw.NswProblem.create(inst), tol=SOLVE_TOL)


def _solve_check(inst):
    def check(sol) -> Checked:
        out = Checked(fingerprint=[float(u) for u in sol.utilities])
        if not sol.kkt_residual <= SOLVE_TOL:
            out.problems.append(f"reported kkt residual {sol.kkt_residual:.3e} > {SOLVE_TOL}")
        skip = set(range(inst.n_agents)) - set(sol.problem.active_agents)
        skip |= set(sol.degenerate_agents)
        offsets = np.zeros(inst.n_agents)
        offsets[list(sol.problem.active_agents)] = sol.problem.offsets
        resid = nsw.kkt_check(inst, sol.assignment, sol.duals, offsets, skip_agents=skip)
        if not resid <= SOLVE_TOL:
            out.problems.append(f"rechecked kkt residual {resid:.3e} > {SOLVE_TOL}")
        probs = np.asarray(sol.assignment.probs)
        if (probs.min() < -1e-9 or probs.sum(axis=1).max() > 1 + 1e-9
                or probs.sum(axis=0).max() > 1 + 1e-9):
            out.problems.append("assignment is not doubly substochastic")
        return out
    return check


def _solve_task(markets, n: int, variant: str, k: int) -> Task:
    inst = markets[(n, variant, k)]
    return Task(f"n{n}/{variant}#{k}", lambda: _solve_once(inst, variant), _solve_check(inst))


def _solve_setup(seed: int):
    markets = {(n, variant, k): instances.gen_random(n, seed=400_000 + 1_000 * n + 100 * v + k)
               for n in SOLVE_SIZES for v, variant in enumerate(SOLVE_VARIANTS)
               for k in range(SOLVE_MARKETS)}
    order = {(n, variant): _order("large_solve", seed, (n, variant), SOLVE_MARKETS)
             for n in SOLVE_SIZES for variant in SOLVE_VARIANTS}
    return markets, order


def _solve_round(inputs, r: int) -> list[Task]:
    """One solve per size; each size alternates benchmark and plain solves."""
    markets, order = inputs
    tasks = []
    for i, n in enumerate(SOLVE_SIZES):
        variant = SOLVE_VARIANTS[(r + i) % 2]
        tasks.append(_solve_task(markets, n, variant,
                                 order[(n, variant)][(r // 2) % SOLVE_MARKETS]))
    return tasks


def _solve_catalogue(inputs) -> list[Task]:
    markets, _ = inputs
    return [_solve_task(markets, n, variant, k) for (n, variant, k) in markets]


def _solve_warm_up() -> None:
    inst = instances.gen_random(SOLVE_SIZES[0], seed=1)
    _solve_once(inst, "benchmark")
    _solve_once(inst, "plain")


# ---------------------------------------------------------------------------
# bvn: lottery of one doubly-stochastic matrix, and a sample from it
# ---------------------------------------------------------------------------

BVN_DENSE = (24, 30)      # random_doubly_stochastic sizes
BVN_PS_N = 32             # PS marginals of random:32, computed at set-up
BVN_MATRICES = 16         # per kind
BVN_KINDS = tuple(f"dense{n}" for n in BVN_DENSE) + (f"ps{BVN_PS_N}",)


def _bvn_op(probs: np.ndarray, seed: int):
    lot = lottery.decompose(probs)
    return lot, lottery.sample(lot, seed)


def _bvn_task(matrices, kind: str, k: int) -> Task:
    probs = matrices[(kind, k)]

    def check(result) -> Checked:
        out = Checked()
        lot, matching = result
        _lottery_check(lot, probs, matching, out)
        return out

    return Task(f"{kind}#{k}", lambda: _bvn_op(probs, 500_000 + k), check)


def _bvn_setup(seed: int):
    matrices = {}
    for k in range(BVN_MATRICES):
        for n in BVN_DENSE:
            matrices[(f"dense{n}", k)] = lottery.random_doubly_stochastic(n, seed=600_000 + 1_000 * n + k)
        market = instances.gen_random(BVN_PS_N, seed=700_000 + k)
        matrices[(f"ps{BVN_PS_N}", k)] = np.asarray(mechanisms.ps_run(market).probs)
    order = {kind: _order("bvn", seed, kind, BVN_MATRICES) for kind in BVN_KINDS}
    return matrices, order


def _bvn_round(inputs, r: int) -> list[Task]:
    matrices, order = inputs
    return [_bvn_task(matrices, kind, order[kind][r % BVN_MATRICES]) for kind in BVN_KINDS]


def _bvn_warm_up() -> None:
    _bvn_op(lottery.random_doubly_stochastic(BVN_DENSE[0], seed=1), 1)


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload("rho_scan", 10.0, _rho_setup, _rho_warm_up, _rho_round, _rho_catalogue),
    Workload("rpi_lottery", 10.0, _rpi_setup, _rpi_warm_up, _rpi_round, _rpi_catalogue),
    Workload("large_solve", 30.0, _solve_setup, _solve_warm_up, _solve_round, _solve_catalogue),
    # Lotteries are checked by structure only: any valid decomposition is correct.
    Workload("bvn", 30.0, _bvn_setup, _bvn_warm_up, _bvn_round),
)}
