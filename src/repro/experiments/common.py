"""Shared experiment scaffolding."""

from __future__ import annotations

import importlib
from dataclasses import dataclass

#: Every paper experiment, in presentation order; the values are the
#: module names under :mod:`repro.experiments`.  This registry is the
#: single source of truth for the CLI and for the runtime's experiment
#: jobs (which need a picklable, name-addressed entry point).
EXPERIMENT_MODULES = {
    "fig2": "fig2_ensemble",
    "fig3": "fig3_ablations",
    "fig4": "fig4_instance",
    "fig5": "fig5_reordering",
    "fig7": "fig7_control_loop",
    "fig8": "fig8_discovery",
    "table1": "table1_rtc",
    "speed": "speed",
}

EXPERIMENT_NAMES = tuple(EXPERIMENT_MODULES)


@dataclass(frozen=True)
class Scale:
    """Experiment sizing.

    ``quick()`` keeps every experiment under roughly a minute for CI and
    the pytest-benchmark suite; ``paper()`` approaches the paper's sample
    sizes (minutes to tens of minutes on a laptop).
    """

    n_paths: int
    duration: float
    runs_per_instance: int
    n_rtc_calls: int
    ml_epochs: int

    @classmethod
    def quick(cls) -> "Scale":
        return cls(
            n_paths=6,
            duration=20.0,
            runs_per_instance=4,
            n_rtc_calls=24,
            ml_epochs=9,
        )

    @classmethod
    def paper(cls) -> "Scale":
        return cls(
            n_paths=20,
            duration=30.0,
            runs_per_instance=10,
            n_rtc_calls=60,
            ml_epochs=18,
        )


def experiment_module(name: str):
    """Import the experiment module registered under ``name``."""
    try:
        modname = EXPERIMENT_MODULES[name]
    except KeyError:
        raise ValueError(
            f"unknown experiment {name!r}; "
            f"choose from {', '.join(EXPERIMENT_NAMES)}"
        ) from None
    return importlib.import_module(f"repro.experiments.{modname}")


def run_experiment(name: str, scale: str = "quick") -> str:
    """Run one experiment by name and return its formatted report.

    This is the worker-process entry point for ``reproduce all``: both
    arguments and the return value are plain strings, so the result
    crosses the process boundary regardless of what the experiment's
    result object contains.
    """
    sizing = Scale.quick() if scale == "quick" else Scale.paper()
    return experiment_module(name).run(sizing).format_report()


def format_header(title: str) -> str:
    """A boxed section header for experiment reports."""
    bar = "=" * max(len(title), 8)
    return f"{bar}\n{title}\n{bar}"
