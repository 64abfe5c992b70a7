"""Fixture: in the kernel module *every* function must be pure,
even ones whose names match no ``dominates*``/``prune*`` pattern."""

_CACHE: dict[str, object] = {}


def best_label(out):
    out.append(1.0)  # mutates its argument
    return out


def refine_keep(values):
    _CACHE["last"] = values  # mutates module-level state
    return list(values)
