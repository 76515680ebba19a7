#!/usr/bin/env python
"""Static layering check for the repro package.

Walks every module under ``src/repro`` with :mod:`ast` (nothing is
imported, so the check is fast and side-effect free) and fails when a
layer reaches into one it must not depend on.  The rules keep the online
serving path deployable without dragging the offline experiment harness
(and its plotting/IO weight) into the server image:

* ``repro.serving``  must not import ``repro.experiments`` or ``repro.baselines``,
  and of ``repro.attacks`` may import only the dependency-light
  ``repro.attacks.defense`` gate (via the ``ALLOWED`` carve-out below)
* ``repro.attacks``  may import ``repro.nn``/``repro.metrics``/``repro.obs``
  but must not reach into ``repro.core``, ``repro.data``, ``repro.traffic``,
  ``repro.serving``, ``repro.experiments`` or ``repro.baselines`` — attacks
  operate on arrays and predict callables, so any victim pipeline can use them
* ``repro.core``     sits *above* attacks: only the adversarial-training
  module may import the attack primitives it replays during training
  (``base``/``constraints``/``gradients``/``whitebox`` — via the per-module
  ``ALLOWED`` carve-out below); the rest of core, and everything attacks
  itself imports, stays attack-free so the dependency edge cannot cycle
* ``repro.data``     must not import ``repro.core``, ``repro.serving`` or ``repro.experiments``
* ``repro.nn``       must not import anything above it (only numpy/stdlib)
* ``repro.obs``      must not import anything above ``repro.nn`` — every
  layer instruments itself with obs, so obs depending on a higher layer
  would be a cycle
* ``repro.parallel`` may import only ``repro.obs`` (it ships arbitrary
  picklable work, so depending on any compute layer would be a cycle);
  of the compute layers only ``core`` / ``attacks`` / ``experiments`` /
  ``fleet`` (and tools) may import ``repro.parallel`` — the
  single-process serving path and the low layers stay substrate-free
* ``repro.fleet``    sits at the top of the serving stack: it may import
  ``repro.serving`` / ``repro.parallel`` / ``repro.obs`` (plus the
  ``repro.attacks.defense`` gate and the ``repro.core.zoo`` checkpoint
  loader via carve-outs) but nothing else; and nothing imports
  ``repro.fleet`` except ``repro.experiments`` and tools — replicas are
  plain serving processes that must not know they are being fleeted
* ``repro.mlops``    orchestrates across the stack, so it may import
  core / data / traffic / metrics / serving / fleet / obs / parallel —
  but never the experiment harness or attack stack; and only
  ``repro.experiments`` and tools may import ``repro.mlops`` back — the
  serving path must work without the continual-learning loop
* ``repro.network``  is an input source at the traffic layer's level:
  it may import only ``repro.traffic`` / ``repro.routing`` /
  ``repro.data`` / ``repro.obs`` (everything else is banned), and only
  ``repro.experiments`` (plus tools and tests) may import it back — the
  serving stack and the fleet consume its ``TrafficSeries`` output and
  plain-data shard starts, never its types

Run directly or via ``tools/ci.sh``::

    python tools/check_imports.py
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: layer prefix -> package prefixes it must never import.
FORBIDDEN: dict[str, tuple[str, ...]] = {
    "repro.serving": (
        "repro.experiments",
        "repro.baselines",
        "repro.attacks",
        "repro.parallel",
        "repro.fleet",
    ),
    "repro.attacks": (
        "repro.core",
        "repro.data",
        "repro.traffic",
        "repro.serving",
        "repro.experiments",
        "repro.baselines",
        "repro.fleet",
    ),
    "repro.core": (
        "repro.attacks",
        "repro.serving",
        "repro.experiments",
        "repro.baselines",
        "repro.traffic",
        "repro.fleet",
    ),
    "repro.data": (
        "repro.core",
        "repro.serving",
        "repro.experiments",
        "repro.parallel",
        "repro.fleet",
    ),
    "repro.nn": (
        "repro.core",
        "repro.data",
        "repro.serving",
        "repro.experiments",
        "repro.traffic",
        "repro.baselines",
        "repro.obs",
        "repro.parallel",
        "repro.fleet",
    ),
    "repro.obs": (
        "repro.core",
        "repro.data",
        "repro.serving",
        "repro.experiments",
        "repro.traffic",
        "repro.baselines",
        "repro.parallel",
        "repro.fleet",
    ),
    "repro.parallel": (
        "repro.core",
        "repro.data",
        "repro.serving",
        "repro.experiments",
        "repro.traffic",
        "repro.baselines",
        "repro.attacks",
        "repro.nn",
        "repro.metrics",
        "repro.routing",
        "repro.fleet",
    ),
    "repro.fleet": (
        "repro.core",
        "repro.data",
        "repro.traffic",
        "repro.experiments",
        "repro.baselines",
        "repro.attacks",
        "repro.nn",
        "repro.metrics",
        "repro.routing",
    ),
    "repro.mlops": (
        "repro.experiments",
        "repro.baselines",
        "repro.attacks",
        "repro.nn",
        "repro.routing",
        "repro.network",
    ),
    # The network engine generalises the traffic layer and feeds the
    # routing layer; it must stay servable-output-only — no models, no
    # serving, no experiment harness.
    "repro.network": (
        "repro.core",
        "repro.nn",
        "repro.serving",
        "repro.experiments",
        "repro.baselines",
        "repro.attacks",
        "repro.parallel",
        "repro.fleet",
        "repro.mlops",
        "repro.metrics",
    ),
}

#: Narrow carve-outs from FORBIDDEN: module prefix -> module names it may
#: import despite a banning rule (including names imported *from* them).
#: Keys may be whole layers *or* single modules — a single-module key
#: scopes the exemption to that file alone, so the carve-out cannot
#: silently widen to its package siblings.
ALLOWED: dict[str, tuple[str, ...]] = {
    # The serving-side defense gate is stdlib-only by design; the rest of
    # repro.attacks (autograd, metrics, harness) stays out of the server image.
    "repro.serving": ("repro.attacks.defense",),
    # Adversarial training replays the white-box attacks on minibatches,
    # so this one core module may import the attack primitives.  Scoped to
    # the leaf module: trainers reach attacks only through it, and the
    # sweep harness / defense gate stay off-limits to all of core.
    "repro.core.adversarial_training": (
        "repro.attacks.base",
        "repro.attacks.constraints",
        "repro.attacks.gradients",
        "repro.attacks.whitebox",
    ),
    # The fleet mirrors serving's gate carve-out (replicas screen their
    # own halo streams) and loads checkpoints through the zoo; the rest
    # of core — trainers, tuning, the APOTS facade — stays out of the
    # fleet parent and its replica images.
    "repro.fleet": ("repro.attacks.defense", "repro.core.zoo"),
}

#: Module -> importer prefixes that may reach it.  Unlike FORBIDDEN
#: (which bans layers wholesale) this pins a single internal module to a
#: short list of owners.  The compiled forward replayer is an engine detail
#: of the autograd substrate: only repro.nn itself and its one caller, the
#: served forward, may import it, so everything else goes through the
#: public eager API and the replay surface can change without a repo-wide
#: audit.  Note it is deliberately NOT exported from ``repro.nn.__init__``.
RESTRICTED_IMPORTERS: dict[str, tuple[str, ...]] = {
    "repro.nn.compile": ("repro.nn", "repro.serving.forward"),
    # The continual-learning loop drives serving, never the reverse: a
    # forecast server must boot without the retraining machinery.  Tools
    # live outside src/repro, so the smoke scripts stay free to use it.
    "repro.mlops": ("repro.mlops", "repro.experiments"),
    # The scenario engine is an input *source*: only the experiment
    # harness (and tools/tests outside src) may drive it.  The serving
    # stack and the fleet consume its TrafficSeries output and its
    # plain-data shard starts — never its types — so the engine can
    # evolve without touching the deployable path.
    "repro.network": ("repro.network", "repro.experiments"),
    # Graph-neighbourhood windows: built by the data layer, persisted by
    # the zoo, parameterised by the network engine and consumed by the
    # experiment harness.  The serving stack and the fleet stay
    # layout-agnostic by design — they duck-type `features.layout` off
    # checkpoints (see SegmentStateStore / ForecastFleet) instead of
    # importing the module, so the server image needs no graph code.
    "repro.data.graph_features": (
        "repro.data",
        "repro.core.zoo",
        "repro.network",
        "repro.experiments",
    ),
}


def module_name(path: Path) -> str:
    relative = path.relative_to(SRC).with_suffix("")
    parts = list(relative.parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def imported_modules(tree: ast.AST, module: str) -> list[tuple[int, str]]:
    """Absolute module names imported anywhere in the tree."""
    package_parts = module.split(".")
    found: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.extend((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                base = node.module or ""
            else:
                # Resolve `from ..x import y` relative to this module.
                anchor = package_parts[: len(package_parts) - node.level]
                base = ".".join(anchor + ([node.module] if node.module else []))
            found.append((node.lineno, base))
            # `from repro import experiments` smuggles a module too.
            found.extend((node.lineno, f"{base}.{alias.name}") for alias in node.names)
    return found


def check() -> list[str]:
    violations: list[str] = []
    for path in sorted(SRC.glob("repro/**/*.py")):
        module = module_name(path)
        tree = ast.parse(path.read_text(), filename=str(path))
        imports = imported_modules(tree, module)
        for target, importers in RESTRICTED_IMPORTERS.items():
            if module == target or any(
                module == p or module.startswith(p + ".") for p in importers
            ):
                continue
            for lineno, imported in imports:
                if imported == target or imported.startswith(target + "."):
                    violations.append(
                        f"{path.relative_to(SRC.parent)}:{lineno}: "
                        f"{module} imports {imported} (restricted to "
                        f"{', '.join(importers) or 'nothing: deprecated'})"
                    )
        layers = [
            layer
            for layer in FORBIDDEN
            if module == layer or module.startswith(layer + ".")
        ]
        if not layers:
            continue
        rules = [FORBIDDEN[layer] for layer in layers]
        # Carve-outs match by module prefix so a key can be a whole layer
        # ("repro.serving") or one file ("repro.core.adversarial_training").
        allowed = {
            name
            for key, names in ALLOWED.items()
            if module == key or module.startswith(key + ".")
            for name in names
        }
        for lineno, imported in imports:
            if any(imported == a or imported.startswith(a + ".") for a in allowed):
                continue
            for banned in (b for group in rules for b in group):
                if imported == banned or imported.startswith(banned + "."):
                    violations.append(
                        f"{path.relative_to(SRC.parent)}:{lineno}: "
                        f"{module} imports {imported} (forbidden for this layer)"
                    )
    return violations


def main() -> int:
    violations = check()
    if violations:
        print("import layering violations:")
        for line in violations:
            print(f"  {line}")
        return 1
    print(
        f"check_imports: OK ({len(FORBIDDEN)} layer rules, "
        f"{sum(map(len, ALLOWED.values()))} carve-outs, "
        f"{len(RESTRICTED_IMPORTERS)} restricted modules, no violations)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
