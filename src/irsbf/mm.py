"""Reflect-beamforming optimizer over the lifted unit-modulus vector.

Each step minorizes the separable objective with a tight
linear-plus-constant surrogate built at the previous iterate; the
surrogate's maximizer over the torus is the unit projection of its linear
coefficient, which takes a single matrix-vector product.  The quadratic
coupling term is bounded by shifting with the dominant eigenvalue of a
positive semidefinite coupling matrix, computed exactly on an n_s x n_s
Gram matrix by ``_top_eigenvalue``, which calls the LAPACK gufunc behind
``np.linalg.eigvalsh`` directly, so the objective never decreases from
step to step.  Each iterate is evaluated once: the effective channel
Psi tt, the per-antenna weights and the objective computed there serve the
convergence test, the SQUAREM acceptance test and the next step alike, so
a plain step costs two products with Psi.

The optimizer has one loop, over rows (``_ascend_rows``), with two kinds of
pass: a plain step, or with ``MMSettings.accelerate`` a SQUAREM cycle
(Varadhan & Roland, Scand. J. Stat. 2008; ``_squarem_cycle``): two steps,
a squared extrapolation, and backtracking that keeps the sequence
monotone.  The backtracking tries at most three candidates per cycle and
row, then keeps the plain two-step point: a later try was almost never
kept, and when it was, its step lay within 0.1 of the plain
composition's.  ``run_mm`` runs one problem as the loop's one row;
``run_stacked_mm`` runs a stack of problems that share a configuration in
lockstep, each operation once over the stack, the R eigensolves in one
gufunc call, and each row with its own SQUAREM step length and
backtracking.  A backtracking round tries every row's candidate at once
and writes the kept ones in place, by mask.  A row leaves the stack when
it converges, its place taken by a row from the back, and the last one
left runs in the layout of a single run.  No operation mixes rows, and
each rounds row by row as it does on one problem (a stack keeps each
composite's memory layout), so a row's result does not depend on the
stack; the stacked unit projection rounds as its one-row form does.  Both
return each run's last lifted iterate and the objective of each iterate;
the last is the objective there, and ``txbf.snr_from_psi_tilde`` maps it
to the SNR of the optimal beam, so no beam is built to score a design.
The channel argument ``psi`` is the plain n_s x (n_i + 1) composite array
of ``model.build_composite``, and a stack holds R of them;
``quantize_phases`` rounds a continuous solution to the 2**bits levels of
a b-bit phase set.

The loop also ascends, as a single run, a Burer-Monteiro factor V of the
relaxation X = V V^H (one unit-norm row per element), which ``sdr`` uses:
the same surrogate coefficient applies with the per-antenna power taken as
a row norm, and the unit projection normalizes rows.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .model import ConfigError, ReflectConfig, SystemConfig, check_unit_modulus, extract_reflect

# Multiplicative safety margin applied to the coupling eigenvalue so the
# shifted coupling matrix stays dominated despite the eigensolver's
# rounding.  The surrogate's tightness and gradient at the expansion point
# are independent of the shift, so this only strengthens the minorization.
_LAMBDA_MARGIN = 1e-6


@dataclass(frozen=True)
class MMSettings:
    """Knobs of the iterative optimizer."""

    epsilon: float = 1e-5
    max_iter: int = 5000
    accelerate: bool = True

    def __post_init__(self):
        if not (0.0 < self.epsilon < math.inf):
            raise ConfigError(f"epsilon must be positive and finite, got {self.epsilon}")
        if self.max_iter < 1:
            raise ConfigError(f"max_iter must be >= 1, got {self.max_iter}")


def lifted_objective(theta_tilde: np.ndarray, psi: np.ndarray, cfg: SystemConfig) -> float:
    """Objective of the lifted problem; equals the reflect objective after extraction.

    At a factor (one row per element) it is the relaxed objective at V V^H.
    It is the objective of the optimizer's one evaluation, ``_evaluate``.
    """
    return _evaluate(np.asarray(theta_tilde, dtype=complex), _run_constants(psi, cfg))[2]


def _top_eigenvalue(h: np.ndarray):
    """Largest eigenvalue of a nonempty Hermitian array, bit for bit as ``np.linalg.eigvalsh``.

    It calls the LAPACK gufunc that ``eigvalsh`` wraps (lower triangle,
    complex or double as ``eigvalsh`` picks them) without the wrapper's
    per-call checks, which cost more than the eigensolve at n_s = 4.  A NaN
    result raises ``LinAlgError``: a failed solve, on which ``eigvalsh``
    raises the same (numpy's default error state also warns of it, which
    ``eigvalsh`` suppresses), or a NaN that LAPACK passes through, which
    ``eigvalsh`` would return.  A stack of matrices (R, n, n) gives the
    array of each one's largest eigenvalue, and a NaN in any raises.
    """
    signature = "D->d" if h.dtype.kind == "c" else "d->d"
    eigenvalues = _umath_linalg.eigvalsh_lo(h, signature=signature)
    if h.ndim == 3:
        top = eigenvalues[:, -1]
        if np.isnan(top).any():
            raise LinAlgError("Eigenvalues did not converge")
        return top
    top = float(eigenvalues[-1])
    if math.isnan(top):
        raise LinAlgError("Eigenvalues did not converge")
    return top


# The optimizer's eigensolves go through this module global, so that the
# benchmark's tracer (bench/tracing.py) can wrap it for the ``mm.lambda_max``
# span without counting the bound's; the name goes when the library owns
# its spans (ROADMAP item 2).
lambda_max_power_iteration = _top_eigenvalue


class _Run(NamedTuple):
    """Constants of one optimizer run: Psi, Psi^H, the Gram Psi Psi^H and (a, c).

    For a stack of runs that share (a, c), Psi, Psi^H and the Gram hold one
    matrix per row: a 3-D ``m`` marks a stack.
    """

    m: np.ndarray
    mh: np.ndarray
    gram: np.ndarray
    a: float
    c: float


def _run_constants(psi: np.ndarray, cfg: SystemConfig) -> _Run:
    """The constants of a run on ``psi``, or of a stack of runs on ``psi`` (R, n_s, n_i + 1)."""
    mh = np.swapaxes(psi.conj(), -1, -2)
    a, c = cfg.objective_coeffs
    return _Run(psi, mh, psi @ mh, a, c)


def _times(mat: np.ndarray, x: np.ndarray, rows: bool) -> np.ndarray:
    """``mat @ x``; with ``rows``, row r of the vector stack ``x`` times matrix r of ``mat``."""
    return (mat @ x[:, :, None])[:, :, 0] if rows else mat @ x


def _evaluate(tt: np.ndarray, run: _Run):
    """The one evaluation of an iterate: (v, xi, obj).

    ``v = Psi tt`` is the effective channel (one row per source antenna for
    a factor), ``xi = a |v|^2 + c`` the per-antenna weight, and ``obj`` the
    lifted objective sum |v|^2 / xi, which ``lifted_objective`` returns.
    On a stack, ``tt`` holds one phase vector per row, v and xi gain a
    leading row axis, and ``obj`` is the array of the rows' objectives.
    """
    rows = run.m.ndim == 3
    v = _times(run.m, tt, rows)
    q = np.abs(v) ** 2
    if q.ndim == 2 and not rows:
        q = q.sum(axis=1)
    xi = run.a * q + run.c
    obj = (q / xi).sum(axis=-1)
    return v, xi, obj if rows else float(obj)


def _surrogate_coefficient(tt0: np.ndarray, v0: np.ndarray, xi: np.ndarray, run: _Run):
    """Linear coefficient of the minorizer built at ``tt0``: (alpha, d, lam).

    With u = v0 / xi, ``d`` = |u|^2 per antenna is the diagonal of the
    coupling matrix factor, ``lam`` the margin-inflated dominant eigenvalue
    of the coupling matrix Psi^H diag(d) Psi, and
    alpha = Psi^H (u - a d v0) + a lam tt0, one matrix-vector product.  On a
    stack each gains a leading row axis, and the rows' eigenvalues come
    from one eigensolve of the stacked Grams.
    """
    rows = run.m.ndim == 3
    factor = v0.ndim == 2 and not rows
    u = v0 / (xi[:, None] if factor else xi)
    if run.a == 0.0:
        return _times(run.mh, u, rows), np.zeros_like(xi), np.zeros(len(xi)) if rows else 0.0
    d = np.abs(u) ** 2
    if factor:
        d = d.sum(axis=1)
    # lambda_max of m^H diag(d) m equals that of the small Gram
    # sqrt(d) (m m^H) sqrt(d), the same for a phase vector and a factor.
    sd = np.sqrt(d)
    if rows:
        top = lambda_max_power_iteration(sd[:, :, None] * run.gram * sd[:, None, :])
        # max(top, 0.0) per row, keeping -0.0 as Python's max does
        lam = np.where(top < 0.0, 0.0, top) * (1.0 + _LAMBDA_MARGIN)
        if np.count_nonzero(d) < d.size:
            # a row with d = 0 takes 0, as a single run does without an eigensolve
            lam[~d.any(axis=1)] = 0.0
        shift = (run.a * lam)[:, None]
    else:
        lam = 0.0
        if np.count_nonzero(d):
            lam = lambda_max_power_iteration(sd[:, None] * run.gram * sd[None, :])
            lam = max(lam, 0.0) * (1.0 + _LAMBDA_MARGIN)
        shift = run.a * lam
    ad = run.a * (d[:, None] if factor else d)
    alpha = _times(run.mh, u - ad * v0, rows) + shift * tt0
    return alpha, d, lam


def _project_unit(vec: np.ndarray, fallback, rows: bool = False) -> np.ndarray:
    """Scale each entry (each row of a factor) to unit modulus; zeros take ``fallback``.

    This is the surrogate's maximizer over the torus (over unit-norm rows
    for a factor) when ``vec`` is its linear coefficient.  With ``rows``,
    ``vec`` is a stack of phase vectors, scaled entry by entry: bit for bit
    ``vec / |vec|``, the one-row form, but cheaper.  numpy divides by a
    magnitude m, cast to complex, as ((re + im 0) (1/m), (im - re 0) (1/m)),
    and the product with the complex 1/m - 0j rounds alike, signed zeros
    included (with the real 1/m a zero part can flip its sign); only a
    nonzero part under 2**-1074 m, which rounds to zero, can differ in sign.
    The product is formed in the array that holds 1/m - 0j, so no
    stack-sized cast buffer is made.
    """
    if vec.ndim == 1 or rows:
        mags = np.abs(vec)
    else:
        # the body of np.linalg.norm(vec, axis=1, keepdims=True), bit for bit,
        # without its per-call dispatch
        mags = np.sqrt(np.add.reduce((vec.conj() * vec).real, axis=1, keepdims=True))
    if np.count_nonzero(mags) == mags.size:
        if not rows:
            return vec / mags
        scale = np.empty(vec.shape, complex)
        np.divide(1.0, mags, out=scale.real)
        scale.imag = -0.0
        return np.multiply(vec, scale, out=scale)
    return np.where(mags > 0.0, vec / np.where(mags > 0.0, mags, 1.0), fallback)


def _step(tt0: np.ndarray, ev, run: _Run) -> np.ndarray:
    """One minorize-maximize step from ``tt0``, whose evaluation is ``ev``.

    On a stack it steps each row.  Zero coefficients keep the old entry.
    """
    alpha = _surrogate_coefficient(tt0, ev[0], ev[1], run)[0]
    return _project_unit(alpha, tt0, run.m.ndim == 3)


# Cap on the candidates that one SQUAREM cycle tries per row: the step
# lengths alpha0, (alpha0 - 1) / 2 and (alpha0 - 3) / 4.  Over sweeps at n_s
# 1-8, n_i 4-200 and kappa 0-0.3, a fourth or later try was kept in about
# 1 of 4,500 backtracking cycles, at a step within 0.1 of the plain
# composition's -1, yet those tries were a fifth of all candidate
# evaluations; without a kept candidate the cycle keeps the plain point.
_BACKTRACKS = 3


def _step_length(r: np.ndarray, v: np.ndarray):
    """SQUAREM's step length -|r| / |v|, or None when r or v is zero."""
    nr = math.sqrt(np.vdot(r, r).real)
    nv = math.sqrt(np.vdot(v, v).real)
    return None if nr == 0.0 or nv == 0.0 else -nr / nv


def _step_lengths(r: np.ndarray, v: np.ndarray) -> list:
    """``_step_length`` of each row of the stacks ``r`` and ``v``, bit for bit, as a list.

    Each squared norm is one batched product conj(r_k)^T r_k, which rounds
    as ``np.vdot`` does.
    """
    nr, nv = (np.sqrt((x.conj()[:, None, :] @ x[:, :, None])[:, 0, 0].real).tolist() for x in (r, v))
    return [None if a == 0.0 or b == 0.0 else -a / b for a, b in zip(nr, nv)]


def _backtrack(tt, r, v, x2, ev2, run: _Run, alpha: float, tries: int):
    """SQUAREM's backtracking on one problem, from step length ``alpha``, at most ``tries`` times.

    Each try reprojects the extrapolation through ``tt`` along ``r`` and
    ``v`` and keeps it, with its evaluation, if its objective is not below
    that of ``x2`` (evaluated as ``ev2``); otherwise it halves the step's
    distance from the plain composition (step -1).  Returns ``x2`` and
    ``ev2`` when no try is kept or the step reaches -1.  ``tries`` is at
    most ``_BACKTRACKS``, three candidates per cycle (see there why).
    """
    for _ in range(tries):
        if abs(alpha + 1.0) < 1e-4:
            break
        cand = _project_unit(tt - 2.0 * alpha * r + alpha**2 * v, fallback=x2)
        ev_c = _evaluate(cand, run)
        if ev_c[2] >= ev2[2]:
            return cand, ev_c
        alpha = (alpha - 1.0) / 2.0
    return x2, ev2


def _squarem_cycle(tt, ev, run: _Run):
    """One accelerated cycle from ``tt``, whose evaluation is ``ev``.

    Takes two MM steps, extrapolates through them with a negative squared
    step length, reprojects onto the torus, and backtracks the step toward
    the plain composition until the objective does not decrease, at most
    three candidates per cycle (``_BACKTRACKS``), after which it keeps the
    plain two-step point: later tries were almost never kept.  Returns
    the new iterate and its evaluation, whose objective is never below the
    plain two-step value, so monotonicity of the outer sequence is
    preserved; at a fixed point the cycle degenerates to the plain steps.

    On a stack the two steps and their evaluations run once over the rows.
    Each row keeps its own step length (``_step_lengths``, as on one
    problem) and its own backtracking.  A round extrapolates every row,
    evaluates the candidates together, decides acceptance with one
    comparison masked to the rows still trying, and writes the kept rows
    of ``x2`` and its evaluation in place (``np.copyto``).  The last row
    left trying backtracks in the layout of a single run.
    """
    x1 = _step(tt, ev, run)
    x2 = _step(x1, _evaluate(x1, run), run)
    ev2 = _evaluate(x2, run)
    r = x1 - tt
    # v = x2 - x1 - r, written over x1, which is not needed past here
    v = np.subtract(x2, x1, out=x1)
    v -= r
    if run.m.ndim == 2:
        alpha = _step_length(r, v)
        if alpha is None:
            return x2, ev2
        return _backtrack(tt, r, v, x2, ev2, run, alpha, _BACKTRACKS)
    # each row's step length, or -1 (the plain composition) without one
    steps = [-1.0 if alpha is None else alpha for alpha in _step_lengths(r, v)]
    # x2 and ev2 are this cycle's own arrays, and a row whose candidate is
    # kept is done, so its rows of them are overwritten in place
    for tried in range(_BACKTRACKS):
        going = [abs(alpha + 1.0) >= 1e-4 for alpha in steps]
        trying = going.count(True)
        if trying == 1:
            k = going.index(True)
            row_ev = (ev2[0][k], ev2[1][k], float(ev2[2][k]))
            row_run = _Run(run.m[k], None, None, run.a, run.c)
            x2[k], ev_k = _backtrack(
                tt[k], r[k], v[k], x2[k], row_ev, row_run, steps[k], _BACKTRACKS - tried
            )
            for whole, part in zip(ev2, ev_k):
                whole[k] = part
            break
        if not trying:
            break
        # every row is extrapolated, so that no stack is gathered, and the
        # candidates of rows not trying are ignored.  The scalars 2 alpha and
        # alpha**2 are formed per row, as on one problem, and as complex
        # numbers, so that the products need no cast.
        cand = np.multiply(np.array([2.0 * alpha for alpha in steps], complex)[:, None], r)
        np.subtract(tt, cand, out=cand)
        cand += np.array([alpha**2 for alpha in steps], complex)[:, None] * v
        cand = _project_unit(cand, x2, True)
        ev_c = _evaluate(cand, run)
        kept = np.greater_equal(ev_c[2], ev2[2]) & going
        for whole, part in zip((x2, *ev2), (cand, *ev_c)):
            np.copyto(whole, part, where=kept if whole.ndim == 1 else kept[:, None])
        for k, (go, keep) in enumerate(zip(going, kept.tolist())):
            if go:
                steps[k] = -1.0 if keep else (steps[k] - 1.0) / 2.0
    return x2, ev2


@dataclass(frozen=True)
class MMResult:
    """Outcome of a full optimizer run; ``objectives[-1]`` is the objective at ``lifted``.

    ``lifted`` is the last iterate, and ``reflect`` its reflection, read
    off on first use: a caller that stays lifted never builds it.
    """

    lifted: np.ndarray
    iterations: int
    converged: bool
    objectives: tuple

    @functools.cached_property
    def reflect(self) -> ReflectConfig:
        return extract_reflect(self.lifted)


def random_lifted_init(rng: np.random.Generator, n_i: int) -> np.ndarray:
    """Entrywise-normalized random complex vector of length n_i + 1."""
    z = rng.standard_normal(n_i + 1) + 1j * rng.standard_normal(n_i + 1)
    return _project_unit(z, 1.0 + 0.0j)


def _keep_rows(tt: np.ndarray, ev, run: _Run, keep: list, order: list):
    """The loop state (iterate, evaluation, constants) of rows ``keep`` of a stack, and their places.

    Returns the state and the list of the stack's rows at the new state's
    places.  A single row leaves the stack for the layout of a single run,
    whose arithmetic is the same with less dispatch.  Otherwise each place
    below ``len(keep)`` whose row departed takes, in place, a kept row from
    the back of the stack, so that a compaction moves no more rows than
    departed and copies nothing: Psi by swaps, recorded in ``order`` (the
    caller's row at each place of Psi), since Psi is the caller's array;
    the loop's own arrays (Psi^H, the Gram, the iterate and its
    evaluation) by overwriting.
    """
    if len(keep) == 1:
        (k,) = keep
        row_run = _Run(run.m[k], run.mh[k], run.gram[k], run.a, run.c)
        return tt[k], (ev[0][k], ev[1][k], float(ev[2][k])), row_run, keep
    n = len(keep)
    places = list(range(n))
    holes = sorted(set(places).difference(keep))
    mc = np.swapaxes(run.mh, 1, 2)
    # keep is ascending, so its last len(holes) rows lie behind place n
    for j, k in zip(holes, reversed(keep[n - len(holes):])):
        _swap_rows(run.m, order, j, k)
        for x in (mc, run.gram, tt, *ev):
            x[j] = x[k]
        places[j] = k
    row_run = _Run(run.m[:n], np.swapaxes(mc[:n], 1, 2), run.gram[:n], run.a, run.c)
    return tt[:n], tuple(x[:n] for x in ev), row_run, places


def _swap_rows(m: np.ndarray, order: list, j: int, k: int) -> None:
    """Swap matrices ``j`` and ``k`` of the stack ``m``, and entries ``j`` and ``k`` of ``order``."""
    held = m[j].copy()
    m[j] = m[k]
    m[k] = held
    order[j], order[k] = order[k], order[j]


def _plain_step(tt: np.ndarray, ev, run: _Run):
    """A plain step from ``tt``, whose evaluation is ``ev``: the new iterate and its evaluation."""
    tt = _step(tt, ev, run)
    return tt, _evaluate(tt, run)


def _ascend_rows(tt: np.ndarray, run: _Run, settings: MMSettings, order=None):
    """The optimizer loop, on one phase vector or factor, or on the rows of a stack.

    Each pass is a SQUAREM cycle with ``settings.accelerate``, else a plain
    step.  Row r of ``tt`` runs on row r of ``run``, and the rows pass in
    lockstep, each operation running once over the stack.  A row leaves
    the stack when its relative change falls below ``settings.epsilon``,
    and the last one left runs on as a single run.  Returns per row the
    last iterate, the objective after each pass (the start first) and
    whether the row converged within ``settings.max_iter`` passes.  Each
    iterate is evaluated once; that evaluation serves the convergence
    test, the SQUAREM acceptance test and the next step.  No operation
    mixes rows, so a row's result does not depend on the others in the
    stack.  ``run`` holds the constants of the problem
    (``_run_constants``).  ``tt`` is not changed.  On a stack, as rows
    leave, the loop fills their places of Psi in place with kept matrices
    from the back (``_keep_rows``), and ``order``, which starts as 0, 1,
    ..., R - 1, tracks the caller's row at each place.
    """
    advance = _squarem_cycle if settings.accelerate else _plain_step
    stacked = run.m.ndim == 3
    live = list(range(len(tt) if stacked else 1))
    last, converged = [None] * len(live), [False] * len(live)
    ev = _evaluate(tt, run)
    objectives = [[obj] for obj in (ev[2].tolist() if stacked else [ev[2]])]
    if stacked and len(live) == 1:
        tt, ev, run, _ = _keep_rows(tt, ev, run, [0], order)
        stacked = False
    for _ in range(settings.max_iter):
        tt, ev = advance(tt, ev, run)
        done = []
        for k, (r, obj_new) in enumerate(zip(live, ev[2].tolist() if stacked else [ev[2]])):
            obj = objectives[r][-1]
            objectives[r].append(obj_new)
            if abs(obj_new - obj) / max(1.0, abs(obj)) < settings.epsilon:
                done.append(k)
        if done:
            for k in done:
                # a row's own copy, so that the stack's arrays can be freed
                last[live[k]] = tt[k].copy() if stacked else tt
                converged[live[k]] = True
            keep = [k for k in range(len(live)) if k not in done]
            if not keep:
                return last, objectives, converged
            tt, ev, run, places = _keep_rows(tt, ev, run, keep, order)
            live = [live[k] for k in places]
            stacked = len(keep) > 1
    for k, r in enumerate(live):
        last[r] = tt[k] if stacked else tt
    return last, objectives, converged


def run_stacked_mm(
    inits: np.ndarray,
    psis: np.ndarray,
    cfg: SystemConfig,
    settings: MMSettings,
) -> list:
    """MM on a stack of problems in lockstep, one ``MMResult`` per row.

    Row r starts at ``inits[r]`` (R x (n_i + 1)) on the composite
    ``psis[r]`` (R x n_s x (n_i + 1)), each an array or a sequence of
    rows; every row shares ``cfg`` and ``settings``, plain steps or
    SQUAREM cycles alike.  A row stops as ``run_mm`` does, and its result
    is bit for bit what ``run_mm`` returns for it.  An array ``psis`` is
    used in place, not copied, and holds the same bytes in the same order
    when this returns.
    """
    inits = np.asarray(inits, dtype=complex)
    check_unit_modulus(inits)
    if not isinstance(psis, np.ndarray):
        # np.stack keeps each matrix's memory layout, and with it the
        # rounding of its products (the draws are Fortran-ordered, and
        # np.array of a list of them would be C-ordered)
        psis = np.stack(psis)
    order = list(range(len(psis)))
    try:
        last, objectives, converged = _ascend_rows(inits, _run_constants(psis, cfg), settings, order)
        return [MMResult(t, len(o) - 1, c, tuple(o)) for t, o, c in zip(last, objectives, converged)]
    finally:
        # the caller's matrices back in their places, returning or raising
        for j in range(len(order)):
            while order[j] != j:
                _swap_rows(psis, order, j, order[j])


def run_mm(
    init: np.ndarray,
    psi: np.ndarray,
    cfg: SystemConfig,
    settings: MMSettings = MMSettings(),
) -> MMResult:
    """Iterate the optimizer to a stationary reflection configuration.

    Stops when the relative objective change over one iteration (one
    accelerated cycle when ``settings.accelerate``) falls below
    ``settings.epsilon``, or flags non-convergence after
    ``settings.max_iter`` iterations.  The result keeps the final lifted
    vector; its reflection is read off by dividing out the slack entry,
    which leaves the objective unchanged.  It runs in the loop of
    ``run_stacked_mm``, as its one row.
    """
    tt = check_unit_modulus(init).copy()
    ((last,), (objectives,), (converged,)) = _ascend_rows(tt, _run_constants(psi, cfg), settings)
    return MMResult(last, len(objectives) - 1, converged, tuple(objectives))


# Beyond this many bits, x = mod(phase, 2 pi) / step (below 2**bits) no
# longer holds the half-integers that the rounding rule compares against.
_MAX_BITS = 52


def check_bits(bits) -> None:
    """Reject a phase resolution other than None (continuous) or an integer in [1, 52]."""
    if bits is None:
        return
    if not (int(bits) == bits and bits >= 1):
        raise ConfigError(f"discrete phases need bits >= 1, got {bits}")
    if bits > _MAX_BITS:
        raise ConfigError(f"discrete phases need bits <= {_MAX_BITS}, got {bits}")


def quantize_phases(theta: ReflectConfig, bits: int) -> ReflectConfig:
    """Round each phase to the nearest of the levels 2 pi k / 2**bits, in O(n_i).

    With x = mod(phase, 2 pi) / (2 pi / 2**bits), the index is
    k = ceil(x - 1/2) mod 2**bits, the nearest level under angular distance.
    An exact tie (x a half-integer) goes to the lower index, and at the
    wrap (x = 2**bits - 1/2) to 2**bits - 1.
    """
    return ReflectConfig(_quantized(theta.phases, bits))


def _quantized(phases: np.ndarray, bits: int) -> np.ndarray:
    """``quantize_phases``' rounding of a phase array of any shape, entry by entry."""
    if bits is None:
        raise ConfigError("quantize_phases needs bits >= 1, got None")
    check_bits(bits)
    n_levels = 2 ** int(bits)
    x = np.mod(phases, 2.0 * np.pi) / (2.0 * np.pi / n_levels)
    k = np.mod(np.ceil(x - 0.5), n_levels)
    return 2.0 * np.pi * k / n_levels
