"""Rule catalogue — importing this package registers every rule.

| code   | name             | invariant                                            |
|--------|------------------|------------------------------------------------------|
| NRP001 | layering         | storage/engine/service split; stats & obs stay leaves|
| NRP002 | determinism      | no ambient RNG or wall-clock in the numeric kernel   |
| NRP003 | float-eq         | no exact float ==/!= in the dominance arithmetic     |
| NRP004 | obs-guard        | core metric emission sits behind the enabled guard   |
| NRP005 | private-access   | no _private reach across module boundaries           |
| NRP006 | purity           | dominates*/prune* kernels are side-effect free       |
| NRP007 | silent-except    | no bare/silent broad excepts in core/resilience/serve/obs |
| NRP008 | lock-discipline  | guarded attrs only read-modify-written under their lock |
| NRP009 | blocking-lock    | no blocking I/O or unbounded waits while a lock is held |
| NRP010 | atomic-write     | durable artefacts go through repro.resilience.atomic |
| NRP011 | param-threading  | deadline_s forwarded through internal fan-out        |
"""

from __future__ import annotations

from nrplint.rules import (  # noqa: F401  (registration side effects)
    atomic_write,
    blocking_lock,
    determinism,
    float_eq,
    layering,
    lock_discipline,
    obs_guard,
    param_threading,
    private_access,
    purity,
    silent_except,
)
