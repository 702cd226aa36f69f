"""Experiment discovery: turn ``BENCH`` declarations into specs.

The registry is the single source of truth for which paper artifacts
(HALO Figures 3-13, Tables 1/4, and the §3.4/§4.7 studies) the repo
reproduces; ``repro run``, ``repro bench`` and the docs catalog all
read from it.

Every module listed in ``repro.analysis.experiments.__all__`` that
exposes a ``BENCH`` dict plus ``bench_run``/``bench_report`` functions
becomes an :class:`~repro.runner.schema.ExperimentSpec`.  Discovery is
purely declarative — the registry never executes experiment code — so
``python -m repro list`` stays instant no matter how heavy the
experiments are.
"""

from __future__ import annotations

import importlib
from typing import Dict, Iterable, List

from .schema import ExperimentSpec, GridPoint, validate_bench

EXPERIMENTS_PACKAGE = "repro.analysis.experiments"

_cache: Dict[str, ExperimentSpec] = {}


class UnknownExperimentError(KeyError):
    """``--only``/``run`` named an experiment the registry doesn't have."""

    def __init__(self, name: str, known: Iterable[str]) -> None:
        self.name = name
        self.known = sorted(known)
        super().__init__(
            f"unknown experiment {name!r}; known: {', '.join(self.known)}")


class ExperimentLoadError(RuntimeError):
    """An experiment module failed to import or register.

    Raised instead of the raw ``ImportError``/``AttributeError`` so the
    failing *module* is named: a syntax error in one experiment file
    otherwise surfaces as an opaque discovery failure for the whole CLI.
    """

    def __init__(self, module_name: str, cause: BaseException) -> None:
        self.module_name = module_name
        super().__init__(
            f"failed to load experiment module {module_name!r}: "
            f"{type(cause).__name__}: {cause}")


def _spec_from_module(module_name: str) -> ExperimentSpec:
    try:
        module = importlib.import_module(module_name)
    except Exception as exc:
        raise ExperimentLoadError(module_name, exc) from exc
    bench = getattr(module, "BENCH", None)
    if bench is None:
        raise ValueError(f"{module_name} has no BENCH declaration")
    validate_bench(module_name, bench)
    for hook in ("bench_run", "bench_report"):
        if not callable(getattr(module, hook, None)):
            raise ValueError(f"{module_name} is missing {hook}()")
    grid = tuple(GridPoint(label, dict(params),
                           dict(quick) if quick is not None else None)
                 for label, params, quick in bench["grid"])
    return ExperimentSpec(
        name=bench["name"],
        artifact=bench["artifact"],
        slug=bench["slug"],
        title=bench["title"],
        module=module_name,
        grid=grid,
        run=module.bench_run,
        report=module.bench_report,
    )


def discover(refresh: bool = False) -> Dict[str, ExperimentSpec]:
    """All registered experiments, keyed by CLI name, in package order."""
    global _cache
    if _cache and not refresh:
        return dict(_cache)
    package = importlib.import_module(EXPERIMENTS_PACKAGE)
    specs: Dict[str, ExperimentSpec] = {}
    for short_name in package.__all__:
        spec = _spec_from_module(f"{EXPERIMENTS_PACKAGE}.{short_name}")
        if spec.name in specs:
            raise ValueError(
                f"duplicate experiment name {spec.name!r} "
                f"({specs[spec.name].module} vs {spec.module})")
        specs[spec.name] = spec
    _cache = specs
    return dict(specs)


def get_experiment(name: str) -> ExperimentSpec:
    specs = discover()
    try:
        return specs[name]
    except KeyError:
        raise UnknownExperimentError(name, specs) from None


def resolve_names(only: Iterable[str] = ()) -> List[ExperimentSpec]:
    """Specs for ``only`` (registry order), or all when ``only`` is empty.

    Raises :class:`UnknownExperimentError` on the first bad name so a
    typo in ``--only fig9`` fails loudly instead of silently running
    nothing.
    """
    specs = discover()
    wanted = list(only)
    if not wanted:
        return list(specs.values())
    for name in wanted:
        if name not in specs:
            raise UnknownExperimentError(name, specs)
    wanted_set = set(wanted)
    return [spec for name, spec in specs.items() if name in wanted_set]
