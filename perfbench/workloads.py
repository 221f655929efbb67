"""The benchmark's workloads: one scenario config each, and why it was chosen.

Each workload is a ``cli.ScenarioConfig`` dict; the benchmark writes the
workload instance into its ``seed``.  Sizes (sweep values, starts, iteration
caps, trial counts) are fixed here so that every commit does the same work
in a pass.

``calibration_exponent`` is how strongly the workload's time follows the
benchmark's calibration (``harness.calibrate``) when the host's other tenants
slow both: the slope of log pass time on log calibration time, measured on a
shared 2-vCPU Xeon VM and rounded.  Interpreter-bound sweep-small slowed as
much as the calibration (slope 0.85-1.16); the two workloads dominated by
large numpy operations slowed about a third as much (0.27-0.40), and half of
the correction steadied them best.
"""

from __future__ import annotations

from dataclasses import dataclass

_ARRAY = {
    "dims": {"m": 64, "n": 64, "k_t": 2, "k_r": 2, "tau_c": 200, "tau": 4},
    "geometry": {"bs_xy": [0.0, 0.0], "ris_xy": [50.0, 10.0], "d0": 20.0},
    "correlation": {"bs_model": "exponential", "bs_param": 0.5, "ris_spacing": 0.25},
}


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    why: str
    calibration_exponent: float = 1.0

    def scenario(self, seed: int) -> dict:
        """A fresh config dict for one instance."""
        raw = {key: (dict(value) if isinstance(value, dict) else value)
               for key, value in self.config.items()}
        raw["seed"] = int(seed)
        return raw

    def system_overrides(self) -> list[dict]:
        """``cli.build_system`` keyword overrides, one per distinct system model."""
        sweep = self.config.get("sweep", {})
        values = sweep.get("values", [None])
        flags = sorted({p == "es-no-direct" for p in self.config.get("protocols", ["es"])})
        out = []
        for value in values:
            for no_direct in flags:
                overrides = {"no_direct": no_direct}
                if value is not None:
                    overrides[sweep["parameter"]] = value
                out.append(overrides)
        return out


WORKLOADS = {
    w.name: w for w in (
        # The shape of configs/sweep_elements.json at a cap of 100 iterations:
        # at the baseline every PGAM run hits the cap (uncapped runs take
        # 823-1468 iterations), so the work per pass does not depend on the
        # instance.  Python overhead dominates; "ms" repeats the "es"
        # multi-start and build_system runs once per protocol.
        Workload(
            name="sweep-small",
            config=dict(
                _ARRAY,
                name="bench-sweep-small",
                powers={"snr_db": 115.0},
                protocols=["es", "ms", "conventional", "random-phase", "es-no-direct"],
                optimizer={"n_starts": 5, "max_iters": 100},
                mc={"enabled": False},
                sweep={"parameter": "n", "values": [16, 36, 64]},
            ),
            why="M=64, N in {16,36,64}, all five protocols, 5 starts: Python overhead of "
                "sum_se/gradient/PGAM dominates; ms repeats the es multi-start",
            calibration_exponent=1.0,
        ),
        # One PGAM iteration per point.  At N=4096 the baseline's absolute
        # stopping rule ends a run after 1 to 30 iterations depending on the
        # start, so any larger cap would make wall time a function of the
        # instance; at a cap of 1 both points always do one iteration.
        Workload(
            name="surface-large",
            config=dict(
                _ARRAY,
                name="bench-surface-large",
                powers={"snr_db": 115.0},
                protocols=["es"],
                optimizer={"n_starts": 1, "max_iters": 1},
                mc={"enabled": False},
                sweep={"parameter": "n", "values": [1024, 4096]},
            ),
            why="es only, one start, N in {1024,4096} (32x32 and 64x64 grids): the O(N^2) "
                "surface kernel and correlation build dominate time and memory",
            calibration_exponent=0.5,
        ),
        # The shape of configs/mc_validation.json: random-phase only, so the
        # optimizer does no work and sampling, estimation and mc_sinr do it
        # all.  N=1024 stays: the closed form sits about 7% above MC there.
        Workload(
            name="mc-validate",
            config=dict(
                _ARRAY,
                name="bench-mc-validate",
                powers={"snr_db": 100.0},
                protocols=["random-phase"],
                optimizer={"n_starts": 5},
                mc={"enabled": True, "trials": 100},
                sweep={"parameter": "n", "values": [64, 256, 1024]},
            ),
            why="random-phase with 100 Monte Carlo trials, N in {64,256,1024}: channel "
                "sampling, LMMSE filtering and mc_sinr do the work, the optimizer none",
            calibration_exponent=0.5,
        ),
    )
}
