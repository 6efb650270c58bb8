"""The benchmark's workloads: inputs built from a seed, and one pass of operations.

Each workload is a list of `Op`s run in order by one closed-loop client.  An
op binds its inputs untimed (`bind`), the returned thunk is the timed program
call, and `check` judges the result untimed.  Checks come back as `Check`
tuples; `sound` is False when the output is wrong rather than merely outside a
statistical band (see `_report_checks`).
"""

import functools
import math
import os
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from momentflow import configspace as cs
from momentflow import flow, harness
from momentflow import relaxation as rx
from momentflow.ensembles import EnsembleSpec
from momentflow.harness import ExperimentConfig
from momentflow.spectral import RegularityWindow, SpectralDecomposition

# Run-length knobs (sizes follow the acceptance suite; these counts do not).
GW200_TRIALS = 100
ER500_TRIALS = 25
SEE_PATHS = 2000
ANSATZ_REPEATS = 2
FSP_REPEATS = 10
DBM_N, DBM_n = 27, 4
DBM_CONFIGS = 2133
DBM_RK4_STEPS = 1
DBM_SEE_DT = 1e-4
DBM_STAGE_REPEATS = 5

# A statistical check may miss its band by chance; an estimate this many
# standard errors from its target is a wrong output instead.
GROSS_SIGMAS = 8.0
# Invariants of the flow: exact up to rounding (measured drift about 4e-16).
INVARIANT_TOL = 1e-12

Check = namedtuple("Check", "name value passed sound")


@dataclass
class Op:
    label: str
    bind: object               # bind(state) -> thunk; the thunk is timed
    check: object              # check(state, result) -> [Check]
    kind: str | None = None    # experiment kind, for experiment_s.<kind>
    repeats: int = 1
    work: dict = field(default_factory=dict)
    emit_dir: str | None = None


# ----------------------------------------------------------------------------
# experiment ops


def _config(kind, seed, out, **fields):
    """ExperimentConfig with every field given: the CLI defaults, then `fields`."""
    values = dict(
        kind=kind, seed=seed, N=0, n=2, threads=1, out=out, format="csv",
        ensemble=None, window=None, t=0.0, omega_c=0.0, enforce_scales=False,
        trials=0, paths=0, delta=1e-3, dt=1e-5, directions=2,
        exponent_budget=0.5, haar_samples=200_000, l1_trials=20, ells=(),
        upsilon=1.0, uc_N=10, uc_n=4, nash_bound=50.0, poincare_spread=4.0,
        ell=4, kappa=0.1, pairs=5, mc_trials=400, mc_N=64, record_runtime=True,
    )
    unknown = set(fields) - set(values)
    if unknown:
        raise ValueError(f"not ExperimentConfig fields: {sorted(unknown)}")
    values.update(fields)
    return ExperimentConfig(**values)


def _report_checks(state, report):
    """Every check of a report; unsound when it is non-finite, when an exact
    check fails, or when a statistical one is off by GROSS_SIGMAS stderr."""
    kind = report.config["kind"]
    moments = {}
    if kind == "joint-normality":
        moments = {row[0]: row for row in report.tables["moments"][1]}
    out = []
    for c in report.checks:
        finite = math.isfinite(c.value) and math.isfinite(c.target)
        if kind == "joint-normality":
            _, est, target, se = moments[c.name]
            sound = abs(est - target) <= GROSS_SIGMAS * se
        elif (kind, c.name) == ("ansatz-compare", "moment-vs-wick") or (
                kind == "generator-validate" and c.name.startswith("drift-config-")):
            sound = abs(c.value - c.target) <= GROSS_SIGMAS / 3.0 * c.tol  # tol = 3 se
        elif (kind, c.name) == ("operator-suite", "haar-crosscheck-sigmas"):
            sound = c.value <= GROSS_SIGMAS                          # value in se
        else:
            sound = c.passed
        out.append(Check(c.name, c.value, c.passed and finite, sound and finite))
    return out


def _experiment(label, cfg, repeats=1, work=None):
    # Module attributes are read at bind time, so a traced run sees its wrappers.
    return Op(label=label, bind=lambda state: functools.partial(harness.run_experiment, cfg),
              check=_report_checks, kind=cfg.kind, repeats=repeats,
              work=work or {}, emit_dir=cfg.out)


def monte_carlo(seed, out):
    gw = EnsembleSpec(kind="generalized-wigner", N=200, seed=seed)
    er = EnsembleSpec(kind="erdos-renyi", N=500, p=50, seed=seed)
    see_steps = int(round(1e-3 / 1e-5))
    return [
        _experiment("joint-normality.gw200", _config(
            "joint-normality", seed, f"{out}/gw200", N=200, ensemble=gw, t=0.0,
            trials=GW200_TRIALS, pairs=5), work={"trials": GW200_TRIALS}),
        _experiment("joint-normality.er500", _config(
            "joint-normality", seed, f"{out}/er500", N=500, ensemble=er, t=0.0,
            trials=ER500_TRIALS, pairs=5), work={"trials": ER500_TRIALS}),
        _experiment("generator-validate", _config(
            "generator-validate", seed, f"{out}/generator-validate", N=5, n=2,
            delta=1e-3, dt=1e-5, paths=SEE_PATHS),
            work={"path_steps": SEE_PATHS * see_steps}),
    ]


def operator_algebra(seed, out):
    window = RegularityWindow(E0=0.0, r=1.0, eta_star=500 ** -0.9, kappa=0.1, C=4.0)
    return [
        # n=4 is pinned: the kind default `cfg.n or 4` never fires against the
        # dataclass default n=2, so a config without n runs the n=2 suite.
        _experiment("operator-suite", _config(
            "operator-suite", seed, f"{out}/operator-suite", N=8, n=4,
            haar_samples=200_000, l1_trials=20)),
        _experiment("mixing", _config(
            "mixing", seed, f"{out}/mixing", N=161, ells=(8, 16, 32, 64),
            upsilon=1.0, uc_N=10, uc_n=4, nash_bound=50.0, poincare_spread=4.0)),
        _experiment("ansatz-compare", _config(
            "ansatz-compare", seed, f"{out}/ansatz-compare", N=6, n=4, t=1.0,
            mc_N=64, mc_trials=400), repeats=ANSATZ_REPEATS),
        _experiment("fsp", _config(
            "fsp", seed, f"{out}/fsp", N=40, n=2, t=1.0, ell=4, kappa=0.1),
            repeats=FSP_REPEATS),
        _experiment("assumptions", _config(
            "assumptions", seed, f"{out}/assumptions", N=500,
            ensemble=EnsembleSpec(kind="goe", N=500, seed=seed), window=window,
            t=0.5, directions=2, exponent_budget=0.5)),
    ]


# ----------------------------------------------------------------------------
# the moment flow along a Dyson Brownian motion path


def semicircle_locations(N):
    """Quantiles of the semicircle law on [-2, 2] at levels (i - 1/2)/N."""
    levels = (np.arange(1, N + 1) - 0.5) / N
    lo, hi = np.full(N, -2.0), np.full(N, 2.0)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        cdf = 0.5 + (mid * np.sqrt(4.0 - mid**2) + 4.0 * np.arcsin(mid / 2.0)) / (4.0 * np.pi)
        below = cdf < levels
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def generator_inf_norm(space, C):
    """||B(C)||_inf = max_x sum_y |B_xy| without assembling B.

    Row x has move weight M = sum_{i: n_i >= 2} n_i sum_j C_ij (n_j + 1) off
    the diagonal, exchange weight E = sum_{i<j} 2 C_ij n_i n_j off it with the
    other sign, and diagonal E - M, so its absolute sum is M + E + |M - E|.
    """
    occ = space.occ.astype(float)
    M = (np.where(occ >= 2, occ, 0.0) * ((occ + 1.0) @ C)).sum(axis=1)
    E = np.einsum("xi,xi->x", occ @ C, occ)
    return float(np.max(M + E + np.abs(M - E)))


def dbm_coefficients(lam):
    return rx.CoefficientSchedule.from_eigenvalues(lam).coefficients()


def interpolated_schedule(times, eigenvalues):
    """c_ij(s) = 1/(2N (lambda_i(s) - lambda_j(s))^2), lambda linear between nodes."""
    def fn(s):
        k = int(np.clip(np.searchsorted(times, s, side="right") - 1, 0, len(times) - 2))
        w = (s - times[k]) / (times[k + 1] - times[k])
        return dbm_coefficients((1.0 - w) * eigenvalues[k] + w * eigenvalues[k + 1])
    return rx.CoefficientSchedule.from_function(fn, eigenvalues.shape[1], tag="dbm-path")


def stable_horizon(space, times, eigenvalues, steps):
    """Last path node T with steps >= 4 T max_{s <= T} ||B(s)||_inf at the nodes."""
    norms = np.array([generator_inf_norm(space, dbm_coefficients(lam)) for lam in eigenvalues])
    ok = 4.0 * times * np.maximum.accumulate(norms) <= steps * (1.0 - 1e-9)
    return int(np.flatnonzero(ok)[-1])


def moment_flow_dbm(seed, out):
    rng = np.random.default_rng([seed, 27])
    pairing = cs.matchings(DBM_n)[int(rng.integers(3))]
    sites = rng.integers(DBM_N, size=2)
    x = [0] * DBM_n
    pairs = [(a, b) for a, b in enumerate(pairing) if a < b]  # the involution's 2-cycles
    for site, (a, b) in zip(sites, pairs):
        x[a] = x[b] = int(site)
    x = tuple(x)
    dec0 = SpectralDecomposition(semicircle_locations(DBM_N), np.eye(DBM_N))

    def bind_enumerate(state):
        return functools.partial(cs.enumerate_space, DBM_N, DBM_n)

    def check_enumerate(state, space):
        state["space"] = space
        return [Check("configurations", space.size, space.size == DBM_CONFIGS,
                      space.size == DBM_CONFIGS)]

    def bind_see(state):
        norm0 = generator_inf_norm(state["space"], dbm_coefficients(dec0.eigenvalues))
        horizon = DBM_RK4_STEPS / (4.0 * norm0)
        return functools.partial(flow.integrate_see, dec0, horizon, DBM_SEE_DT, (seed, 1))

    def check_see(state, path):
        state["path"] = path
        ordered = bool(np.all(np.diff(path.eigenvalues, axis=1) > 0))
        finite = bool(np.all(np.isfinite(path.eigenvalues)) and np.all(np.isfinite(path.frames)))
        return [Check("ordered-finite-path", float(ordered and finite), ordered and finite,
                      ordered and finite)]

    def bind_flow(state):
        space, path = state["space"], state["path"]
        k = stable_horizon(space, path.times, path.eigenvalues, DBM_RK4_STEPS)
        sched = interpolated_schedule(path.times[:k + 1], path.eigenvalues[:k + 1])
        state["f0"] = space.delta(x)
        return functools.partial(rx.propagate, space, sched, state["f0"], 0.0,
                                 float(path.times[k]), steps=DBM_RK4_STEPS)

    def check_flow(state, result):
        return flow_invariants(state["space"], result.snapshots)

    return [
        Op("flow.enumerate_space", bind_enumerate, check_enumerate, repeats=DBM_STAGE_REPEATS),
        Op("flow.integrate_see", bind_see, check_see, repeats=DBM_STAGE_REPEATS),
        Op("flow.propagate", bind_flow, check_flow, work={"rk4_steps": DBM_RK4_STEPS}),
    ]


def flow_invariants(space, snapshots):
    """pi-mass, every <chi_sigma, f>_pi, and ||f||_1 <= |M_n| along the flow."""
    f0 = snapshots[0]
    scale = INVARIANT_TOL * max(1.0, space.norm_l1(f0))
    ones = np.ones(space.size)
    checks = []
    drift = max(abs(space.inner(ones, f) - space.inner(ones, f0)) for f in snapshots)
    checks.append(Check("pi-mass-drift", drift, drift <= scale, drift <= scale))
    for sigma in cs.matchings(space.n):
        chi = cs.chi_indicator(space, sigma)
        drift = max(abs(space.inner(chi, f) - space.inner(chi, f0)) for f in snapshots)
        name = "chi-drift-" + "".join(map(str, sigma))
        checks.append(Check(name, drift, drift <= scale, drift <= scale))
    bound = len(cs.matchings(space.n))
    l1 = max(space.norm_l1(f) for f in snapshots)
    checks.append(Check("l1-norm", l1, l1 <= bound + scale, l1 <= bound + scale))
    return checks


BUILDERS = {
    "monte-carlo": monte_carlo,
    "operator-algebra": operator_algebra,
    "moment-flow-dbm": moment_flow_dbm,
}


def build(workload, seed, root):
    """The ops of one pass of `workload`; reports go under root/perfbench/out."""
    out = os.path.join(root, "perfbench", "out", workload)
    return BUILDERS[workload](seed, out)


# ----------------------------------------------------------------------------
# exact call counts a traced pass must show, per op span

# A default mixing run: 201 Nash ratios (200 random f and one delta), 5
# Poincare constants (ell = 8, 16, 32, 64 and the singleton) and 1 UC curve.
MIXING_COUNTS = {("assemble_generator", None): 207,
                 ("assemble_generator", "nash_ratio"): 201,
                 ("assemble_generator", "poincare_constant"): 5,
                 ("assemble_generator", "ultracontractivity_curve"): 1}


def expected_counts(op):
    """{(function, nearest caller or None): calls} inside one span of `op`."""
    label = op.label
    if label.startswith("joint-normality."):
        n = op.work["trials"]
        return {("sample_ensemble", None): n, ("eig_sym", None): n}
    if label == "generator-validate":
        return {("see_endpoint_ensemble", None): 1, ("assemble_generator", None): 1,
                ("eig_sym", None): 0}
    if label == "mixing":
        return {**MIXING_COUNTS, ("eig_sym", None): 0}
    if label == "ansatz-compare":
        return {("eig_sym", None): 400, ("sample_ensemble", None): 400}
    if label == "assumptions":
        return {("eig_sym", None): 1, ("sample_ensemble", None): 1}
    if label in ("operator-suite", "fsp"):
        return {("eig_sym", None): 0, ("sample_ensemble", None): 0}
    if label == "flow.enumerate_space":
        return {("enumerate_space", None): 1, ("assemble_generator", None): 0}
    if label == "flow.integrate_see":
        return {("integrate_see", None): 1}
    if label == "flow.propagate":
        return {("propagate", None): 1,
                ("assemble_generator", None): 2 + 3 * DBM_RK4_STEPS}
    return {}
