"""Deterministic fault injection and recovery primitives.

:mod:`repro.resilience.faults` provides the seeded :class:`FaultPlan` and
the :func:`fault_point` hooks that :mod:`repro.store`, the ``repro serve``
shard pool (:mod:`repro.serve.pool`) and the simulation-engine compile path
declare.  :class:`WorkerError` is the typed error the serve shard pool
raises when a request fails every retry or outlives its timeout.

See the README "Robustness & persistence" section for the fault-point map
and the degradation ladder.
"""

from repro.ir.errors import HLSError
from repro.resilience.faults import (
    FAULT_KINDS,
    FaultPlan,
    FaultPlanError,
    FaultRule,
    InjectedError,
    InjectedFault,
    InjectedIOError,
    TornWrite,
    active_plan,
    bump,
    fault_point,
    install_plan,
    reset_resilience_counters,
    resilience_counters,
    set_plan,
)


class WorkerError(HLSError):
    """A ``repro serve`` shard-pool request failed every in-place retry, or
    timed out before any worker resolved it."""


__all__ = [
    "FAULT_KINDS",
    "FaultPlan",
    "FaultPlanError",
    "FaultRule",
    "InjectedError",
    "InjectedFault",
    "InjectedIOError",
    "TornWrite",
    "WorkerError",
    "active_plan",
    "bump",
    "fault_point",
    "install_plan",
    "reset_resilience_counters",
    "resilience_counters",
    "set_plan",
]
