"""In-memory tracing of irsbf's layers from outside the program.

Each target is a public function wrapped at the module attribute its
callers look it up by (``irsbf.sim.run_mm``, not ``irsbf.mm.run_mm``), so
the program's own calls go through the wrapper while tracing is on.  A
wrapper records a span per call and folds it at once into per-name totals:
calls, inclusive seconds and self seconds (inclusive minus the time of
traced calls made inside it).  Spans are not kept one by one, because the
lambda_max step alone runs thousands of times a second.  Observers read the
returned values for counts the program keeps (iterations, convergence) and
for the checks that need them; their own time is charged to no layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

import numpy as np

# (module, attribute, span name).  Several attributes may share a span name.
TARGETS = (
    ("irsbf.cli", "main", "cli.main"),
    ("irsbf.cli", "run_sweep", "sim.sweep"),
    ("irsbf.cli", "run_iteration_study", "sim.sweep"),
    ("irsbf.sim", "generate_channels", "channels.generate"),
    ("irsbf.sim", "build_composite", "model.build_composite"),
    ("irsbf.sim", "run_mm", "mm.run_mm"),
    ("irsbf.mm", "lambda_max_power_iteration", "mm.lambda_max"),
    ("irsbf.mm", "lifted_objective", "mm.objective"),
    ("irsbf.sim", "solve_sdr", "sdr.solve"),
    ("irsbf.sim", "optimal_transmit_beam", "txbf.beam"),
    ("irsbf.sim", "optimal_beam_from_v", "txbf.beam"),
    ("irsbf.sim", "evaluate_snr", "txbf.snr"),
    ("irsbf.sim", "psi_tilde", "txbf.snr"),
    ("irsbf.sim", "simulate_ser", "sim.ser"),
    # Not a span: read for the per-realization bound gap.
    ("irsbf.sim", "_realization_stats", None),
)

MONOTONE_TOL = 1e-12
UNIT_MODULUS_TOL = 1e-9


class Tracer:
    """Aggregated spans and observed counts of one or more traced rounds."""

    def __init__(self):
        self.spans: dict[str, list] = {}  # name -> [calls, inclusive_s, self_s]
        self.absent: list[str] = []
        self.mm_iterations = 0
        self.mm_unconverged = 0
        self.sdr_iterations = 0
        self.sdr_unconverged = 0
        self.symbols = 0
        self.bounded = 0
        self.below_design = 0
        self.gap_db_sum = 0.0
        self.problems: list[str] = []
        self._stack: list[float] = []
        self._patches: list[tuple] = []

    def __enter__(self) -> "Tracer":
        observers = {
            "run_mm": self._observe_mm,
            "solve_sdr": self._observe_sdr,
            "simulate_ser": self._observe_ser,
            "_realization_stats": self._observe_realization,
        }
        for module_name, attr, span in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                if f"{module_name}.{attr}" not in self.absent:
                    self.absent.append(f"{module_name}.{attr}")
                continue
            wrapped = self._wrap(original, span, observers.get(attr))
            setattr(module, attr, wrapped)
            self._patches.append((module, attr, original))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, fn, span, observe):
        stack = self._stack
        totals = self.spans.setdefault(span, [0, 0.0, 0.0]) if span else None
        clock = time.perf_counter
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = stack.pop()
            if observe is not None:
                observe(signature.bind(*args, **kwargs).arguments, result)
            if totals is not None:
                totals[0] += 1
                totals[1] += elapsed
                totals[2] += elapsed - inner
            if stack:
                # the caller's self time excludes this call and its observer
                stack[-1] += clock() - start
            return result

        return wrapper

    def _observe_mm(self, arguments, result) -> None:
        self.mm_iterations += result.iterations
        self.mm_unconverged += not result.converged
        objectives = np.asarray(result.objectives)
        drops = objectives[:-1] - objectives[1:]
        if np.any(drops > MONOTONE_TOL * np.maximum(1.0, np.abs(objectives[:-1]))):
            self.problems.append(f"run_mm objective decreased by {drops.max():.3e}")
        modulus_error = float(np.max(np.abs(np.abs(result.reflect.theta) - 1.0), initial=0.0))
        if modulus_error > UNIT_MODULUS_TOL:
            self.problems.append(f"reflection coefficient off unit modulus by {modulus_error:.3e}")

    def _observe_sdr(self, arguments, result) -> None:
        self.sdr_iterations += result.iterations
        self.sdr_unconverged += not result.converged

    def _observe_ser(self, arguments, result) -> None:
        self.symbols += int(arguments["n_symbols"])

    def _observe_realization(self, arguments, result) -> None:
        if "upper_bound" not in result:
            return
        bound = result["upper_bound"][0]
        robust = result["robust_irs"][0]
        self.bounded += 1
        self.below_design += bound < max(robust, result["nonrobust_irs"][0])
        self.gap_db_sum += 10.0 * np.log10(bound / robust)

    def layer_metrics(self, realizations: int, scale: float = 1.0) -> dict[str, tuple[float, str]]:
        """Per-layer metrics per realization of the traced rounds, with units.

        Span seconds are multiplied by ``scale``.
        """

        def calls(name):
            return self.spans.get(name, [0, 0.0, 0.0])[0]

        def seconds(name, column=1):
            return self.spans.get(name, [0, 0.0, 0.0])[column] * scale / realizations

        def per(value):
            return value / realizations

        mm_calls, sdr_calls = calls("mm.run_mm"), calls("sdr.solve")
        return {
            "mm.run_mm_s": (seconds("mm.run_mm"), "s/realization"),
            "mm.run_mm_calls": (per(mm_calls), "1/realization"),
            "mm.iterations_mean": (self.mm_iterations / max(mm_calls, 1), "iterations"),
            "mm.unconverged": (per(self.mm_unconverged), "1/realization"),
            "mm.lambda_max_s": (seconds("mm.lambda_max"), "s/realization"),
            "mm.lambda_max_calls": (per(calls("mm.lambda_max")), "1/realization"),
            "mm.objective_evals": (per(calls("mm.objective")), "1/realization"),
            "sdr.solve_s": (seconds("sdr.solve"), "s/realization"),
            "sdr.calls": (per(sdr_calls), "1/realization"),
            "sdr.iterations_mean": (self.sdr_iterations / max(sdr_calls, 1), "iterations"),
            "sdr.unconverged": (per(self.sdr_unconverged), "1/realization"),
            "sdr.below_design": (per(self.below_design), "1/realization"),
            "sdr.gap_db_mean": (self.gap_db_sum / max(self.bounded, 1), "dB"),
            "sim.ser_s": (seconds("sim.ser"), "s/realization"),
            "sim.symbols": (per(self.symbols), "1/realization"),
            "sim.self_s": (seconds("sim.sweep", 2), "s/realization"),
            "channels.generate_s": (seconds("channels.generate"), "s/realization"),
            "model.build_composite_s": (seconds("model.build_composite"), "s/realization"),
            "txbf.beam_s": (seconds("txbf.beam"), "s/realization"),
            "txbf.snr_s": (seconds("txbf.snr"), "s/realization"),
            "cli.self_s": (seconds("cli.main", 2), "s/realization"),
        }
