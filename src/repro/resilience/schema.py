"""The ``fault_sweep`` JSON payload: schema version and validator.

Kept apart from :mod:`repro.resilience.harness`, which imports the
simulator and the upper-bound algorithms, so that validating a payload
-- every ``fault-sweep`` run, cached hits included, checks the one it
prints -- loads only this module and the fault kinds.
"""

from __future__ import annotations

from typing import Any, List, Mapping

from repro.resilience.faults import FAULT_KINDS

__all__ = ["FAULT_SWEEP_SCHEMA_VERSION", "validate_fault_sweep_payload"]

#: Bump when the fault-sweep JSON payload changes incompatibly.
FAULT_SWEEP_SCHEMA_VERSION = 1

_NUMERIC = (int, float)

_REQUIRED_TOP = {
    "schema_version": int,
    "kind": str,
    "created_unix": _NUMERIC,
    "n": int,
    "trials": int,
    "seed": int,
    "wall_time_seconds": _NUMERIC,
    "curves": list,
}

_REQUIRED_POINT = {
    "rate": _NUMERIC,
    "trials": int,
    "correct": int,
    "correctness_rate": _NUMERIC,
    "faults_injected": int,
    "mean_rounds": _NUMERIC,
}


def validate_fault_sweep_payload(payload: Mapping[str, Any]) -> List[str]:
    """Return a list of schema violations (empty = valid).

    Structure and types only, in the style of
    :func:`repro.obs.validate_bench_payload`: a sweep showing terrible
    degradation is still a *valid* payload.
    """
    problems: List[str] = []
    if not isinstance(payload, Mapping):
        return [f"payload is {type(payload).__name__}, expected object"]
    for field, expected in _REQUIRED_TOP.items():
        if field not in payload:
            problems.append(f"missing required field {field!r}")
            continue
        value = payload[field]
        if expected is int and isinstance(value, bool):
            problems.append(f"field {field!r} must be an integer, got bool")
        elif not isinstance(value, expected):
            problems.append(f"field {field!r} has type {type(value).__name__}")
    if payload.get("kind") not in (None, "fault_sweep"):
        problems.append(f"kind is {payload.get('kind')!r}, expected 'fault_sweep'")
    version = payload.get("schema_version")
    if isinstance(version, int) and not isinstance(version, bool):
        if version > FAULT_SWEEP_SCHEMA_VERSION:
            problems.append(
                f"schema_version {version} is newer than supported "
                f"{FAULT_SWEEP_SCHEMA_VERSION}"
            )
        elif version < 1:
            problems.append("schema_version must be >= 1")
    curves = payload.get("curves")
    if isinstance(curves, list):
        if not curves:
            problems.append("curves is empty")
        for i, curve in enumerate(curves):
            if not isinstance(curve, Mapping):
                problems.append(f"curves[{i}] is not an object")
                continue
            if not isinstance(curve.get("algorithm"), str):
                problems.append(f"curves[{i}].algorithm is not a string")
            if curve.get("fault_kind") not in FAULT_KINDS:
                problems.append(
                    f"curves[{i}].fault_kind {curve.get('fault_kind')!r} "
                    f"not in {FAULT_KINDS}"
                )
            points = curve.get("points")
            if not isinstance(points, list) or not points:
                problems.append(f"curves[{i}].points missing or empty")
                continue
            for j, point in enumerate(points):
                if not isinstance(point, Mapping):
                    problems.append(f"curves[{i}].points[{j}] is not an object")
                    continue
                for field, expected in _REQUIRED_POINT.items():
                    value = point.get(field)
                    if isinstance(value, bool) or not isinstance(value, expected):
                        problems.append(
                            f"curves[{i}].points[{j}].{field} is not "
                            f"{'numeric' if expected is _NUMERIC else 'an integer'}"
                        )
    population = payload.get("population")
    if population is not None:
        # optional additive section: name -> serialized sketch state
        if not isinstance(population, Mapping):
            problems.append("population is not an object")
        else:
            for pname, state in population.items():
                if not isinstance(state, Mapping) or not isinstance(
                    state.get("kind"), str
                ):
                    problems.append(
                        f"population[{pname!r}] is not a serialized sketch state"
                    )
    return problems
