"""Reflect-beamforming optimizer over the lifted unit-modulus vector.

Each step minorizes the separable objective with a tight
linear-plus-constant surrogate built at the previous iterate; the
surrogate's maximizer over the torus is the unit projection of its linear
coefficient, which takes a single matrix-vector product.  The quadratic
coupling term is bounded by a diagonal majorizer diag(y) of its positive
semidefinite coupling matrix M = Psi^H diag(d) Psi, constant on the torus
(Sun, Babu & Palomar, IEEE TSP 2017), so the objective never decreases
from step to step.  A robust run builds y fresh on every fourth of its
steps (``_REFRESH``), the first included: y weights each element by the
relaxation bound's image at the iterate, the MaxCut certificate of
``sdr``, scaled by the dominant eigenvalue of an n_s x n_s weighted Gram
matrix, which ``_top_eigenvalue`` computes exactly, calling the LAPACK
gufunc behind ``np.linalg.eigvalsh`` directly.  A weakly coupled element
takes a long step.  The steps in between scale the last fresh y_ref,
built for d_ref, by rho = max_m d_m / d_ref_m: M is linear and monotone
in d >= 0, so M(d) <= rho M(d_ref) <= rho diag(y_ref), and the step
stays monotone (``_Majorizer``).  Each iterate is evaluated once: the
effective channel Psi tt, the per-antenna weights and the objective
computed there serve the convergence test, the SQUAREM acceptance test
and the next step alike.  A step costs two products with Psi, and a
fresh robust step one with |Psi^H|^2 and the weighted Gram more.

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
gufunc call, and each row with its own SQUAREM step length, backtracking
and majorizer reference.  A backtracking round tries every row's
candidate at once and writes the kept ones in place, by mask.  A row
leaves the stack when it converges, its place taken by a row from the
back with its iterate, evaluation and majorizer reference (``_keep_rows``,
the one place where rows move), and the last one left runs in the layout
of a single run.  No operation mixes rows, and each rounds row by row as
it does on one problem (a stack keeps each composite's memory layout),
so a row's result does not depend on the stack; the stacked unit
projection rounds as its one-row form does.  Both return each run's last
lifted iterate, its n_i phases (``MMResult.phases``) and the objective of
each iterate; the last is the objective there, and
``txbf.snr_from_psi_tilde`` maps it to the SNR of the optimal beam, so no
beam is built to score a design.  The channel argument ``psi`` is the
plain n_s x (n_i + 1) composite array of ``model.build_composite``, and a
stack holds R of them, each with its init (``_check_init``);
``quantize_phases`` rounds phases of any shape to a b-bit phase set.

The loop also ascends, as a single run, a Burer-Monteiro factor V of the
relaxation X = V V^H (one unit-norm row per element), which ``sdr`` uses:
the same surrogate coefficient applies with the per-antenna power taken as
a row norm (tr V^H diag(y) V = sum(y) is constant too), and the unit
projection normalizes rows.  The factor builds its majorizer fresh on
every step: with scaled ones in between, its ascent, which stops on its
relative change alone, left the bound's certified gap wider.
"""

from __future__ import annotations

import functools
import math
import types
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .model import UNIT_MODULUS_TOL, ConfigError, DimensionError, SystemConfig, reflect_phases

# Multiplicative safety margin applied to the majorizer's eigenvalue, so
# that diag(y) - M stays positive semidefinite despite the eigensolver's
# rounding.  The surrogate's tightness and gradient at the expansion point
# are independent of y, so this only strengthens the minorization.
_LAMBDA_MARGIN = 1e-6
# Weight of the identity in the image that weights the majorizer's elements.
_BLEND = 0.3
# Rows of a stack whose weighted Gram is formed at once (``_diagonal_certificate``).
_ROWS = 8
# A robust run builds its majorizer fresh on every _REFRESH-th step, the
# first included, and scales the last fresh one in between (``_Majorizer``).
_REFRESH = 4


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
    """Constants of one optimizer run: Psi, Psi^H, |Psi^H|^2 entrywise and (a, c).

    For a stack of runs that share (a, c), Psi, Psi^H and |Psi^H|^2 hold
    one matrix per row: a 3-D ``m`` marks a stack.
    """

    m: np.ndarray
    mh: np.ndarray
    power: np.ndarray
    a: float
    c: float


def _run_constants(psi: np.ndarray, cfg: SystemConfig) -> _Run:
    """The constants of a run on ``psi``, or of a stack of runs on ``psi`` (R, n_s, n_i + 1)."""
    mh = np.swapaxes(psi.conj(), -1, -2)
    a, c = cfg.objective_coeffs
    return _Run(psi, mh, np.abs(mh) ** 2, a, c)


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
    q = np.abs(v)
    q *= q
    if q.ndim == 2 and not rows:
        q = q.sum(axis=1)
    xi = run.a * q
    xi += run.c
    obj = np.add.reduce(np.divide(q, xi, out=q), axis=-1)
    return v, xi, obj if rows else float(obj)


def _diagonal_certificate(b, bh, u, top, margin, scale=None):
    """(y, s): y = t u with t = (1 + margin) lambda_max(s) and s = b diag(1/u) b^H.

    diag(1/sqrt(u)) b^H b diag(1/sqrt(u)) has the eigenvalues of s, so
    diag(y) - b^H b is positive semidefinite for any u > 0: ``sdr``'s
    MaxCut certificate, and the step's majorizer.  ``bh`` is b^H, and
    ``scale`` scales the rows of b (b = diag(scale) b'), applied to s.  An
    entry u_i = 0 gets y_i = 0, valid where column i of b is zero.  On a
    stack each row gets its own t from one call of ``top``, and s is
    formed ``_ROWS`` rows at a time into one array, so that no other
    temporary the size of the stack is made.
    """
    # an empty u has no minimum, and u.min() is NaN if any entry is
    inv = 1.0 / u if u.size and u.min() > 0.0 else np.divide(1.0, u, out=np.zeros(u.shape), where=u > 0.0)
    if b.ndim == 2 or len(b) <= _ROWS:
        s = (b * inv[..., None, :]) @ bh
    else:
        s = np.empty((len(b), b.shape[1], bh.shape[2]), np.result_type(b, inv, bh))
        # the first chunk's scaled copy, in the layout that the product gives
        # it, holds each later chunk's too, so every chunk rounds alike
        scaled = b[:_ROWS] * inv[:_ROWS, None, :]
        for k in range(0, len(b), _ROWS):
            part = scaled[:len(b) - k]
            if k:
                np.multiply(b[k:k + _ROWS], inv[k:k + _ROWS, None, :], out=part)
            np.matmul(part, bh[k:k + _ROWS], out=s[k:k + _ROWS])
    if scale is not None:
        s *= scale[..., :, None]
        s *= scale[..., None, :]
    t = top(s) * (1.0 + margin)
    return (t * u if b.ndim == 2 else t[:, None] * u), s


def _fresh_majorizer(z: np.ndarray, d: np.ndarray, xi: np.ndarray, run: _Run, factor: bool):
    """y = t w, the majorizer built at the iterate, from z = Psi^H (u / xi) (``_surrogate_coefficient``)."""
    w = np.abs(z) ** 2
    if factor:
        w = w.sum(axis=1)
    w *= 1.0 - _BLEND
    w += (_BLEND / d.shape[-1]) * np.add.reduce(d, axis=-1, keepdims=True) * _times(
        run.power, xi**-2.0, run.m.ndim == 3
    )
    np.sqrt(w, out=w)
    return _diagonal_certificate(run.m, run.mh, w, lambda_max_power_iteration, _LAMBDA_MARGIN, np.sqrt(d))[0]


class _Majorizer:
    """A robust run's majorizer state, on a phase vector or a stack: its step count and last fresh majorizer.

    ``y`` holds y_ref and ``d`` the d_ref it was built for, one row per row
    of a stack, so that diag(y_ref) - Psi^H diag(d_ref) Psi >= 0; ``whole``
    says whether every d_ref entry is positive.  The rows move with the
    stack's in ``_keep_rows``.  The step count is the run's own, so a row
    of a stack keeps the schedule of its single run.
    """

    def __init__(self):
        self.steps = 0
        self.y = self.d = None
        self.whole = False

    def next(self, z: np.ndarray, d: np.ndarray, xi: np.ndarray, run: _Run) -> np.ndarray:
        """This step's y: fresh on every ``_REFRESH``-th step, the first included, else rho y_ref.

        rho = max_m d_m / d_ref_m per row.  M = Psi^H diag(d) Psi is linear
        and monotone in d >= 0, so diag(d) <= rho diag(d_ref) gives
        M <= rho Psi^H diag(d_ref) Psi <= rho diag(y_ref).  A zero entry of
        d_ref (or a NaN of d) leaves rho infinite or NaN, and that row's y
        is built fresh and kept as its new reference: on a stack, copied by
        mask from one build over the rows, each row bit for bit its own.
        """
        fresh = self.steps % _REFRESH == 0
        self.steps += 1
        if not fresh:
            if self.whole:
                rho = np.maximum.reduce(d / self.d, axis=-1)
            else:
                with np.errstate(divide="ignore", invalid="ignore"):
                    rho = np.maximum.reduce(d / self.d, axis=-1)
            if run.m.ndim == 2:
                if math.isfinite(rho):
                    return rho * self.y
            else:
                stale = ~np.isfinite(rho)
                if not stale.any():
                    return rho[:, None] * self.y
                np.copyto(self.y, _fresh_majorizer(z, d, xi, run, False), where=stale[:, None])
                np.copyto(self.d, d, where=stale[:, None])
                rho[stale] = 1.0
                self.whole = bool(self.d.min() > 0.0)
                return rho[:, None] * self.y
        self.y, self.d, self.whole = _fresh_majorizer(z, d, xi, run, False), d, bool(d.min() > 0.0)
        return self.y


def _surrogate_coefficient(tt0: np.ndarray, v0: np.ndarray, xi: np.ndarray, run: _Run, ref=None):
    """Linear coefficient of the minorizer built at ``tt0``: (alpha, d, y).

    With u = v0 / xi, ``d`` = |u|^2 per antenna is the diagonal of the
    coupling matrix factor, and ``y`` the diagonal of a majorizer
    diag(y) - M >= 0 of the coupling matrix M = Psi^H diag(d) Psi.  A
    fresh majorizer is y = t w (``_diagonal_certificate`` of
    diag(sqrt(d)) Psi), which weights each element by the bound's image at
    the iterate (``sdr._linearize``): with b = diag(sqrt(c) / xi) Psi and
    m = b tt0, w_i^2 = b_i^H z b_i for z = (1 - beta) m m^H
    + beta |m|^2 / n_s I, positive on every nonzero column of Psi unless
    d = 0.  As u - a d v0 = c v0 / xi^2, alpha = Psi^H (u - a d v0)
    + a y tt0 is b^H m + a y tt0, with w's product.

    Without ``ref`` the call builds y fresh.  With the ``_Majorizer`` of a
    run (a phase vector, or a stack), the run builds y fresh on every
    ``_REFRESH``-th of its own steps, the first included, and keeps it as
    y_ref with its d_ref; the steps in between take y = rho y_ref with
    rho = max_m d_m / d_ref_m (``_Majorizer.next``), a majorizer of M
    too, and skip the weights and the eigensolve.  On a stack each gains a
    leading row axis; one eigensolve gives all t.
    """
    rows = run.m.ndim == 3
    factor = v0.ndim == 2 and not rows
    per = (lambda x: x[:, None]) if factor else (lambda x: x)
    u = v0 / per(xi)
    if run.a == 0.0:
        return _times(run.mh, u, rows), np.zeros_like(xi), np.zeros(run.mh.shape[:-1])
    d = np.abs(u) ** 2
    if factor:
        d = d.sum(axis=1)
    alpha = _times(run.mh, u / per(xi), rows)
    y = _fresh_majorizer(alpha, d, xi, run, factor) if ref is None else ref.next(alpha, d, xi, run)
    alpha *= run.c
    alpha += run.a * per(y) * tt0
    return alpha, d, y


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


def _step(tt0: np.ndarray, ev, run: _Run, ref=None) -> np.ndarray:
    """One minorize-maximize step from ``tt0``, whose evaluation is ``ev``.

    On a stack it steps each row.  Zero coefficients keep the old entry.
    ``ref`` is the run's ``_Majorizer``, or None for a fresh majorizer.
    """
    alpha = _surrogate_coefficient(tt0, ev[0], ev[1], run, ref)[0]
    return _project_unit(alpha, tt0, run.m.ndim == 3)


# Cap on the candidates that one SQUAREM cycle tries per row: the step
# lengths alpha0, (alpha0 - 1) / 2 and (alpha0 - 3) / 4.  Over robust runs
# continued from the nonrobust design (8 draws each at n_s 1, 4, 8, n_i 4,
# 32, 200 and kappa 0.05, 0.1, 0.3), uncapped cycles kept their first try
# in 1006 of 1090, their second in 79 and their third in 3, and no later
# one; without a kept candidate the cycle keeps the plain point.
_BACKTRACKS = 3


def _step_length(r: np.ndarray, v: np.ndarray) -> float:
    """SQUAREM's step length -|r| / |v|, or -1 (the plain composition) when r or v is zero."""
    nr = math.sqrt(np.vdot(r, r).real)
    nv = math.sqrt(np.vdot(v, v).real)
    return -1.0 if nr == 0.0 or nv == 0.0 else -nr / nv


def _step_lengths(r: np.ndarray, v: np.ndarray) -> list:
    """``_step_length`` of each row of the stacks ``r`` and ``v``, bit for bit, as a list.

    Each squared norm is one batched product conj(r_k)^T r_k, which rounds
    as ``np.vdot`` does.
    """
    nr, nv = (np.sqrt((x.conj()[:, None, :] @ x[:, :, None])[:, 0, 0].real).tolist() for x in (r, v))
    return [-1.0 if a == 0.0 or b == 0.0 else -a / b for a, b in zip(nr, nv)]


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


def _squarem_cycle(tt, ev, run: _Run, ref=None):
    """One accelerated cycle from ``tt``, whose evaluation is ``ev``, and the run's ``ref``.

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
    x1 = _step(tt, ev, run, ref)
    x2 = _step(x1, _evaluate(x1, run), run, ref)
    ev2 = _evaluate(x2, run)
    r = x1 - tt
    # v = x2 - x1 - r, written over x1, which is not needed past here
    v = np.subtract(x2, x1, out=x1)
    v -= r
    if run.m.ndim == 2:
        return _backtrack(tt, r, v, x2, ev2, run, _step_length(r, v), _BACKTRACKS)
    steps = _step_lengths(r, v)
    # x2 and ev2 are this cycle's own arrays, and a row whose candidate is
    # kept is done, so its rows of them are overwritten in place
    for tried in range(_BACKTRACKS):
        going = [abs(alpha + 1.0) >= 1e-4 for alpha in steps]
        trying = going.count(True)
        if trying == 1:
            k = going.index(True)
            x2[k], ev_k = _backtrack(tt[k], r[k], v[k], x2[k], *_row(ev2, run, k), steps[k], _BACKTRACKS - tried)
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

    ``lifted`` is the last iterate, and ``phases`` its n_i phases
    (``model.reflect_phases``), read off on first use: a caller that stays
    lifted never computes them.
    """

    lifted: np.ndarray
    iterations: int
    converged: bool
    objectives: tuple

    @functools.cached_property
    def phases(self) -> np.ndarray:
        return reflect_phases(self.lifted)

    # The benchmark's tracer (bench/tracing.py) reads ``reflect.theta`` of
    # each run; the hook goes with the other hook names (ROADMAP item 8).
    reflect = property(lambda self: types.SimpleNamespace(theta=np.exp(1j * self.phases)))


def random_lifted_init(rng: np.random.Generator, n_i: int) -> np.ndarray:
    """Entrywise-normalized random complex vector of length n_i + 1."""
    z = rng.standard_normal(n_i + 1) + 1j * rng.standard_normal(n_i + 1)
    return _project_unit(z, 1.0 + 0.0j)


def _row(ev, run: _Run, k: int):
    """Row ``k`` of a stack's evaluation ``ev`` and constants ``run``, in the layout of a single run."""
    return (ev[0][k], ev[1][k], float(ev[2][k])), _Run(run.m[k], run.mh[k], run.power[k], run.a, run.c)


def _keep_rows(tt: np.ndarray, ev, run: _Run, keep: list, order: list, ref: _Majorizer):
    """The loop state (iterate, evaluation, constants) of rows ``keep`` of a stack, and their places.

    Returns the state and the list of the stack's rows at the new state's
    places; the rows of the run's majorizer state ``ref`` move with it, in
    place.  This is the one place where a stack's rows move.  A single row
    leaves the stack for the layout of a single run, whose arithmetic is
    the same with less dispatch.  Otherwise each place below ``len(keep)``
    whose row departed takes, in place, a kept row from the back of the
    stack, so that a compaction moves no more rows than departed and copies
    nothing: Psi by swaps, recorded in ``order`` (the caller's row at each
    place of Psi), since Psi is the caller's array; the loop's own arrays
    (Psi^H, |Psi^H|^2, the iterate, its evaluation and y_ref, d_ref) by
    overwriting.
    """
    held = () if ref.y is None else (ref.y, ref.d)
    if len(keep) == 1:
        (k,) = keep
        if held:
            ref.y, ref.d = ref.y[k], ref.d[k]
        return (tt[k], *_row(ev, run, k), keep)
    n = len(keep)
    places = list(range(n))
    holes = sorted(set(places).difference(keep))
    mc = np.swapaxes(run.mh, 1, 2)
    # keep is ascending, so its last len(holes) rows lie behind place n
    for j, k in zip(holes, reversed(keep[n - len(holes):])):
        _swap_rows(run.m, order, j, k)
        for x in (mc, run.power, tt, *ev, *held):
            x[j] = x[k]
        places[j] = k
    if held:
        ref.y, ref.d = ref.y[:n], ref.d[:n]
    row_run = _Run(run.m[:n], np.swapaxes(mc[:n], 1, 2), run.power[:n], run.a, run.c)
    return tt[:n], tuple(x[:n] for x in ev), row_run, places


def _swap_rows(m: np.ndarray, order: list, j: int, k: int) -> None:
    """Swap matrices ``j`` and ``k`` of the stack ``m``, and entries ``j`` and ``k`` of ``order``."""
    held = m[j].copy()
    m[j] = m[k]
    m[k] = held
    order[j], order[k] = order[k], order[j]


def _plain_step(tt: np.ndarray, ev, run: _Run, ref=None):
    """A plain step from ``tt``, whose evaluation is ``ev``: the new iterate and its evaluation."""
    tt = _step(tt, ev, run, ref)
    return tt, _evaluate(tt, run)


def _ascend_rows(tt: np.ndarray, run: _Run, settings: MMSettings, order=None):
    """The optimizer loop, on one phase vector or factor, or on the rows of a stack.

    Each pass is a SQUAREM cycle with ``settings.accelerate``, else a plain
    step.  Row r of ``tt`` runs on row r of ``run``, and the rows pass in
    lockstep, each operation running once over the stack.  A row leaves
    the stack when its relative change falls below ``settings.epsilon``,
    and the last one left runs on as a single run (a stack of one row
    stays stacked; ``sim._run_rows`` makes none).  Returns per row the
    last iterate, the objective after each pass (the start first) and
    whether the row converged within ``settings.max_iter`` passes.  Each
    iterate is evaluated once; that evaluation serves the convergence
    test, the SQUAREM acceptance test and the next step.  No operation
    mixes rows, so a row's result does not depend on the others in the
    stack.  ``run`` holds the constants of the problem
    (``_run_constants``).  ``tt`` is not changed.  On a stack, as rows
    leave, the loop fills their places of Psi in place with kept matrices
    from the back (``_keep_rows``), and ``order``, which starts as 0, 1,
    ..., R - 1, tracks the caller's row at each place.  A robust run's
    majorizer state (``_Majorizer``) moves with its rows there; a factor,
    the bound's ascent, builds a fresh majorizer on every step.
    """
    advance = _squarem_cycle if settings.accelerate else _plain_step
    stacked = run.m.ndim == 3
    ref = None if tt.ndim == 2 and not stacked else _Majorizer()
    live = list(range(len(tt) if stacked else 1))
    last, converged = [None] * len(live), [False] * len(live)
    ev = _evaluate(tt, run)
    objectives = [[obj] for obj in (ev[2].tolist() if stacked else [ev[2]])]
    for _ in range(settings.max_iter):
        tt, ev = advance(tt, ev, run, ref)
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
            tt, ev, run, places = _keep_rows(tt, ev, run, keep, order, ref)
            live = [live[k] for k in places]
            stacked = len(keep) > 1
    for k, r in enumerate(live):
        last[r] = tt[k] if stacked else tt
    return last, objectives, converged


def _check_init(init, psi: np.ndarray) -> np.ndarray:
    """A unit-modulus complex ``init`` of shape (n_i + 1,), or (R, n_i + 1) for a stack ``psi`` of R composites."""
    init, shape = np.asarray(init, dtype=complex), psi.shape[:-2] + psi.shape[-1:]
    if init.shape != shape:
        raise DimensionError(f"init must have shape {shape}, got {init.shape}")
    err = np.max(np.abs(np.abs(init) - 1.0), initial=0.0)
    if not err <= UNIT_MODULUS_TOL:  # a NaN entry fails too
        raise ConfigError(f"entries deviate from unit modulus by {err:.3e}")
    return init


def run_stacked_mm(
    inits: np.ndarray,
    psis: np.ndarray,
    cfg: SystemConfig,
    settings: MMSettings,
) -> list:
    """MM on a stack of problems in lockstep, one ``MMResult`` per row.

    Row r starts at ``inits[r]`` (R x (n_i + 1)) on the composite
    ``psis[r]`` of the array ``psis`` (R x n_s x (n_i + 1)); every row
    shares ``cfg`` and ``settings``, plain steps or SQUAREM cycles alike.
    A row stops as ``run_mm`` does, and its result is bit for bit what
    ``run_mm`` returns for it.  ``psis`` is used in place, not copied, and
    holds the same bytes in the same order when this returns.
    """
    inits = _check_init(inits, psis)
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
    """Iterate the optimizer from the lifted ``init`` (n_i + 1 entries) to a stationary reflection.

    Stops when the relative objective change over one iteration (one
    accelerated cycle when ``settings.accelerate``) falls below
    ``settings.epsilon``, or flags non-convergence after
    ``settings.max_iter`` iterations.  The result keeps the final lifted
    vector; its phases (``MMResult.phases``) are read off by dividing out
    the slack entry, which leaves the objective unchanged.  It runs in the
    loop of ``run_stacked_mm``, as its one row.
    """
    tt = _check_init(init, psi).copy()
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


def quantize_phases(phases: np.ndarray, bits: int) -> np.ndarray:
    """Round each phase of an array of any shape to the nearest level 2 pi k / 2**bits.

    With x = mod(phase, 2 pi) / (2 pi / 2**bits), the index is
    k = ceil(x - 1/2) mod 2**bits, the nearest level under angular distance.
    An exact tie (x a half-integer) goes to the lower index, and at the
    wrap (x = 2**bits - 1/2) to 2**bits - 1.  Entries round one by one, so
    a row of a stack (R, n_i) rounds as it does alone.
    """
    if bits is None:
        raise ConfigError("quantize_phases needs bits >= 1, got None")
    check_bits(bits)
    n_levels = 2 ** int(bits)
    x = np.mod(phases, 2.0 * np.pi) / (2.0 * np.pi / n_levels)
    k = np.mod(np.ceil(x - 0.5), n_levels)
    return 2.0 * np.pi * k / n_levels
