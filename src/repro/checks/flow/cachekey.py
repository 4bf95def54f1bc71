"""FLOW002/FLOW003 — cache-key soundness for the ``*Spec`` hierarchy.

The content-addressed result cache (PR 1) is sound only if the spec
hash covers **every field the execution path actually consumes**. These
two rules prove the two halves statically:

- **FLOW002** — for every hashed spec class (a ``*Spec`` class with a
  ``to_dict`` method), every field read off a spec-typed value anywhere
  in the project must appear in the hash payload (``to_dict`` keys plus
  ``payload["..."] = ...`` additions in ``_hash_payload`` /
  ``spec_hash`` / ``content_hash``). A field the executor reads but the
  hash ignores means two *different* runs share one cache key — the
  cache serves one of them the other's result.

- **FLOW003** — the hash-relevant schema (fields + hashed keys of every
  spec class, per class) is pinned in a committed manifest together
  with ``SPEC_VERSION``. Changing the schema without bumping
  ``SPEC_VERSION`` (or without regenerating the manifest) is reported:
  version bumps are how stale caches self-invalidate, so a silent
  schema drift defeats them.

Spec-typed values are recognised statically, from the call graph's
class environments: parameters annotated with a spec class, locals
assigned from a spec constructor, and ``self`` inside the class.
Methods that *define* the hash or (de)serialise the spec are exempt
from FLOW002 (they legitimately touch every field).
"""

from __future__ import annotations

import ast
import json
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple, Union

from repro.checks.findings import Finding
from repro.checks.flow.project import ClassInfo, Project, attribute_chain

#: Spec-class methods allowed to read any field: they define the hash
#: payload or rebuild/normalise the instance.
HASH_DEFINING_METHODS = {
    "to_dict", "from_dict", "_hash_payload", "spec_hash", "content_hash",
    "__post_init__",
}

#: Default committed manifest location (regenerate with
#: ``repro check --deep --update-hash-schema``).
DEFAULT_MANIFEST = Path(__file__).resolve().parent / "hash_schema.json"


def spec_classes(project: Project) -> List[ClassInfo]:
    """Hashed spec classes: ``*Spec`` with a ``to_dict`` method."""
    return sorted(
        (
            cls
            for cls in project.classes.values()
            if cls.name.endswith("Spec") and "to_dict" in cls.methods
        ),
        key=lambda cls: cls.qualname,
    )


def hashed_keys(cls: ClassInfo) -> Set[str]:
    """String keys the class's hash payload covers."""
    keys: Set[str] = set()
    for method_name in HASH_DEFINING_METHODS:
        method = cls.methods.get(method_name)
        if method is None:
            continue
        for node in method.walk():
            if isinstance(node, ast.Dict):
                for key in node.keys:
                    if isinstance(key, ast.Constant) and isinstance(
                        key.value, str
                    ):
                        keys.add(key.value)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Subscript) and isinstance(
                        target.slice, ast.Constant
                    ) and isinstance(target.slice.value, str):
                        keys.add(target.slice.value)
    return keys


def unsound_read_findings(project: Project) -> List[Finding]:
    """FLOW002: spec-field reads the content hash does not cover."""
    specs = {cls.name: cls for cls in spec_classes(project)}
    if not specs:
        return []
    hashed = {name: hashed_keys(cls) for name, cls in specs.items()}
    fields = {name: set(cls.fields) for name, cls in specs.items()}
    class_envs = project.call_graph.class_envs
    findings: List[Finding] = []
    for func in project.functions.values():
        if func.cls is not None and func.cls.name in specs \
                and func.name in HASH_DEFINING_METHODS:
            continue
        # Local/param name → the spec class it holds (the last one an
        # annotation names).
        env = {
            name: cls_name
            for name, classes in class_envs[func.qualname].items()
            for cls_name in classes
            if cls_name in specs
        }
        if not env:
            continue
        for node in func.walk():
            if not isinstance(node, ast.Attribute):
                continue
            chain = attribute_chain(node)
            if len(chain) < 2 or chain[0] not in env:
                continue
            cls_name = env[chain[0]]
            field_name = chain[1]
            if field_name not in fields[cls_name]:
                continue
            if field_name in hashed[cls_name]:
                continue
            findings.append(Finding(
                path=func.module.path,
                line=node.lineno,
                col=node.col_offset,
                rule="FLOW002",
                message=(
                    f"{func.display} reads {cls_name}.{field_name}, which "
                    f"is absent from {cls_name}'s content-hash payload; "
                    f"two specs differing only in {field_name!r} share a "
                    f"cache key and can serve each other's results"
                ),
            ))
    return findings


# -- FLOW003: hash-schema manifest ----------------------------------------


def compute_hash_schema(project: Project) -> Optional[Dict[str, object]]:
    """The current hash-relevant schema, or ``None`` without spec
    classes or a ``SPEC_VERSION`` constant."""
    specs = spec_classes(project)
    if not specs:
        return None
    version: Optional[int] = None
    for cls in specs:
        if "SPEC_VERSION" in cls.module.int_constants:
            version = cls.module.int_constants["SPEC_VERSION"][0]
            break
    if version is None:
        for mod in project.modules.values():
            if "SPEC_VERSION" in mod.int_constants:
                version = mod.int_constants["SPEC_VERSION"][0]
                break
    if version is None:
        return None
    return {
        "spec_version": version,
        "schema": {
            cls.name: {
                "fields": list(cls.fields),
                "hashed": sorted(hashed_keys(cls)),
            }
            for cls in specs
        },
    }


def write_hash_schema(
    project: Project, manifest_path: Union[str, Path] = DEFAULT_MANIFEST
) -> Optional[Path]:
    """Regenerate the committed manifest; returns its path (or ``None``
    when the tree has no hashed spec classes)."""
    schema = compute_hash_schema(project)
    if schema is None:
        return None
    path = Path(manifest_path)
    path.write_text(
        json.dumps(schema, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return path


def _version_anchor(project: Project) -> Tuple[str, int]:
    for mod in project.modules.values():
        if "SPEC_VERSION" in mod.int_constants:
            return mod.path, mod.int_constants["SPEC_VERSION"][1]
    mod = next(iter(project.modules.values()))
    return mod.path, 1


def schema_findings(
    project: Project,
    manifest_path: Union[str, Path] = DEFAULT_MANIFEST,
) -> List[Finding]:
    """FLOW003: schema drift vs the committed manifest."""
    current = compute_hash_schema(project)
    if current is None:
        return []
    path, line = _version_anchor(project)
    manifest_path = Path(manifest_path)
    if not manifest_path.is_file():
        return [Finding(
            path=path, line=line, col=0, rule="FLOW003",
            message=(
                "no committed hash-schema manifest found at "
                f"{manifest_path}; generate one with "
                "'repro check --deep --update-hash-schema'"
            ),
        )]
    try:
        committed = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        committed = None
    if not isinstance(committed, dict):
        return [Finding(
            path=path, line=line, col=0, rule="FLOW003",
            message=(
                f"unreadable hash-schema manifest {manifest_path}; "
                "regenerate with --update-hash-schema"
            ),
        )]
    same_schema = committed.get("schema") == current["schema"]
    same_version = committed.get("spec_version") == current["spec_version"]
    if same_schema and same_version:
        return []
    if same_schema:
        message = (
            f"SPEC_VERSION is {current['spec_version']} but the committed "
            f"hash-schema manifest records "
            f"{committed.get('spec_version')}; regenerate the manifest "
            f"(--update-hash-schema)"
        )
    elif same_version:
        message = (
            "hash-relevant spec schema changed without a SPEC_VERSION "
            f"bump ({_schema_diff(committed.get('schema'), current['schema'])}); "
            "stale cached results would keep their old keys — bump "
            "SPEC_VERSION and regenerate the manifest "
            "(--update-hash-schema)"
        )
    else:
        message = (
            "hash-relevant spec schema changed "
            f"({_schema_diff(committed.get('schema'), current['schema'])}) "
            "and SPEC_VERSION was bumped; acknowledge by regenerating the "
            "manifest (--update-hash-schema)"
        )
    return [Finding(
        path=path, line=line, col=0, rule="FLOW003", message=message
    )]


def _schema_diff(old: object, new: Dict[str, object]) -> str:
    if not isinstance(old, dict):
        return "manifest schema missing"
    changes: List[str] = []
    for name in sorted(set(old) | set(new)):
        if name not in old:
            changes.append(f"+{name}")
        elif name not in new:
            changes.append(f"-{name}")
        elif old[name] != new[name]:
            changes.append(f"~{name}")
    return ", ".join(changes) or "contents differ"
