#!/usr/bin/env python3
"""Validate a ``repro.obs`` export document against docs/obs_schema.json.

Usage::

    python tools/check_obs_schema.py DUMP.json [TRACE.json ...]

The document kind is auto-detected: a top-level ``traceEvents`` key selects
the Chrome trace-event schema (``repro.obs.trace/1:chrome``); otherwise the
document's own ``schema`` field picks the entry.  Exit code 0 means every
file validated; any problem prints a path-qualified error and exits 1.

The validator is a deliberately small, dependency-free subset of JSON
Schema — exactly the keywords docs/obs_schema.json uses: ``type``,
``required``, ``properties``, ``additionalProperties`` (as a schema for
map values), ``items``, ``enum``, ``const``, ``minimum``.  On top of the
structural check, ``repro.obs.metrics/2`` documents must carry the serving
plane's ``_serve_metrics`` taxonomy (counters, gauges, histograms) — those
names are pre-registered at import, so a dump missing one means the
taxonomy and the code have drifted; legacy ``/1`` baselines pre-date it.
CI runs it on a fresh ``repro obs dump`` and ``repro query --trace``
output on every supported Python version, so exported documents cannot
drift from the checked-in schema unnoticed.

Every run also cross-checks the *other* schema gate: the nrplint report
schema (``tools/nrplint/schema.json``) must pin the exact version id the
analyzer emits and the exact rule catalogue it registers, so the two
schema-versioned surfaces cannot drift apart silently.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

SCHEMA_PATH = Path(__file__).resolve().parent.parent / "docs" / "obs_schema.json"

_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "boolean": bool,
    "null": type(None),
}


def _type_ok(value, name: str) -> bool:
    if name == "number":
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if name == "integer":
        return isinstance(value, int) and not isinstance(value, bool)
    return isinstance(value, _TYPES[name])


def validate(value, schema: dict, path: str = "$") -> list[str]:
    """Return a list of error strings (empty when the document conforms)."""
    errors: list[str] = []
    if "const" in schema and value != schema["const"]:
        errors.append(f"{path}: expected {schema['const']!r}, got {value!r}")
        return errors
    if "enum" in schema and value not in schema["enum"]:
        errors.append(f"{path}: {value!r} not in {schema['enum']!r}")
        return errors
    if "type" in schema:
        names = schema["type"]
        if isinstance(names, str):
            names = [names]
        if not any(_type_ok(value, n) for n in names):
            errors.append(
                f"{path}: expected type {'/'.join(names)}, "
                f"got {type(value).__name__}"
            )
            return errors
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        minimum = schema.get("minimum")
        if minimum is not None and value < minimum:
            errors.append(f"{path}: {value!r} below minimum {minimum!r}")
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                errors.append(f"{path}: missing required key {key!r}")
        properties = schema.get("properties", {})
        for key, sub in properties.items():
            if key in value:
                errors.extend(validate(value[key], sub, f"{path}.{key}"))
        additional = schema.get("additionalProperties")
        if isinstance(additional, dict):
            for key, item in value.items():
                if key not in properties:
                    errors.extend(validate(item, additional, f"{path}.{key}"))
        elif additional is False:
            for key in value:
                if key not in properties:
                    errors.append(f"{path}: unexpected key {key!r}")
    if isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            errors.extend(validate(item, schema["items"], f"{path}[{i}]"))
    return errors


def schema_id_for(document: dict) -> str:
    """Auto-detect which checked-in schema a document claims to follow."""
    if "traceEvents" in document:
        return "repro.obs.trace/1:chrome"
    schema_id = document.get("schema")
    if not isinstance(schema_id, str):
        raise ValueError("document has neither 'traceEvents' nor a 'schema' field")
    return schema_id


def serve_metric_errors(document: dict, schemas: dict) -> list[str]:
    """The serving plane's health/lifecycle taxonomy (``_serve_metrics``)
    must be present in every current-format metrics dump.

    Only enforced for ``repro.obs.metrics/2``: the legacy ``/1`` sidecar
    baselines pre-date the serving plane and stay valid as checked in.
    """
    errors: list[str] = []
    documented = schemas.get("_serve_metrics", {})
    for section in ("counters", "gauges", "histograms"):
        present = document.get(section)
        if not isinstance(present, dict):
            continue  # structural validation already reported this
        for name in documented.get(section, ()):
            if name not in present:
                errors.append(
                    f"$.{section}: missing pre-registered serve metric {name!r}"
                )
    return errors


def check_file(path: Path, schemas: dict) -> list[str]:
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        return [f"{path}: unreadable: {exc}"]
    if not isinstance(document, dict):
        return [f"{path}: top level must be a JSON object"]
    try:
        schema_id = schema_id_for(document)
    except ValueError as exc:
        return [f"{path}: {exc}"]
    schema = schemas.get(schema_id)
    if schema is None:
        return [f"{path}: unknown schema id {schema_id!r}"]
    errors = validate(document, schema)
    if schema_id == "repro.obs.metrics/2":
        errors.extend(serve_metric_errors(document, schemas))
    return [f"{path} [{schema_id}] {e}" for e in errors]


def nrplint_schema_errors() -> list[str]:
    """The two schema gates must not drift: the nrplint report schema's
    pinned version/rule enum and the analyzer itself have to agree.

    A rule added without bumping ``tools/nrplint/schema.json`` (or a
    version bump that the analyzer does not emit) would otherwise only
    surface when some later report failed validation; checking it here
    ties the drift to the same CI step that guards the obs schemas.
    """
    tools_dir = str(Path(__file__).resolve().parent)
    if tools_dir not in sys.path:
        sys.path.insert(0, tools_dir)
    try:
        from nrplint.core import rule_registry
        from nrplint.report import REPORT_SCHEMA_ID, SCHEMA_PATH as NRPLINT_SCHEMA
    except ImportError as exc:  # pragma: no cover - tree layout violation
        return [f"nrplint not importable from {tools_dir}: {exc}"]
    errors: list[str] = []
    try:
        schema = json.loads(NRPLINT_SCHEMA.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        return [f"{NRPLINT_SCHEMA}: unreadable: {exc}"]
    declared = schema.get("properties", {}).get("schema", {}).get("const")
    if declared != REPORT_SCHEMA_ID:
        errors.append(
            f"nrplint schema drift: schema.json pins {declared!r} but the "
            f"analyzer emits {REPORT_SCHEMA_ID!r}"
        )
    pinned = set(
        schema.get("properties", {})
        .get("findings", {})
        .get("items", {})
        .get("properties", {})
        .get("rule", {})
        .get("enum", ())
    )
    registered = set(rule_registry())
    if pinned != registered:
        missing = sorted(registered - pinned)
        stale = sorted(pinned - registered)
        detail = []
        if missing:
            detail.append(f"rules missing from the enum: {missing}")
        if stale:
            detail.append(f"stale enum entries: {stale}")
        errors.append("nrplint schema drift: " + "; ".join(detail))
    return errors


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    schemas = json.loads(SCHEMA_PATH.read_text(encoding="utf-8"))
    failed = False
    drift = nrplint_schema_errors()
    if drift:
        failed = True
        print("\n".join(drift), file=sys.stderr)
    else:
        print("nrplint schema: OK (version and rule enum match the analyzer)")
    for name in argv:
        errors = check_file(Path(name), schemas)
        if errors:
            failed = True
            print("\n".join(errors), file=sys.stderr)
        else:
            print(f"{name}: OK")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
