"""Named server configurations, resolved and composed from strings.

The service's wire protocol cannot ship a :class:`~repro.core.SpecConfig`
object, so requests name their configuration with a **spec string**
resolved here — the registry shape ``vusec/instrumentation-infra`` uses
for targets and instances: a flat namespace of named factories, plus
named modifiers composed onto them with ``+``::

    resolve_config("profile")              # SpecConfig.profile()
    resolve_config("profile+superblock")   # ... .but(scheduler="superblock")
    resolve_config("heuristic+noedge+nochecks")
"""

from __future__ import annotations

from typing import Callable, Dict, List

from ..core import SpecConfig
from ..ssa import SpecMode

#: base configurations: name -> zero-arg factory
CONFIG_FACTORIES: Dict[str, Callable[[], SpecConfig]] = {
    "unoptimized": SpecConfig.unoptimized,
    "base": SpecConfig.base,
    "profile": SpecConfig.profile,
    "heuristic": SpecConfig.heuristic,
    "static": SpecConfig.static,
    "aggressive": SpecConfig.aggressive,
}

#: modifiers: name -> SpecConfig -> SpecConfig, applied left to right
MODIFIERS: Dict[str, Callable[[SpecConfig], SpecConfig]] = {
    "superblock": lambda c: c.but(scheduler="superblock"),
    "block": lambda c: c.but(scheduler="block"),
    "edge": lambda c: c.but(use_edge_profile=True),
    "noedge": lambda c: c.but(use_edge_profile=False),
    "nochecks": lambda c: c.but(emit_checks=False),
    "notbaa": lambda c: c.but(use_tbaa=False),
    # flag provenance swaps (cold-start clients: `profile+static` serves
    # a request with no train input at all)
    "static": lambda c: c.but(mode=SpecMode.STATIC,
                              use_edge_profile=False),
    # simulator engine selection (docs/performance.md): a machine-side
    # knob — `profile+classic` compiles identically to `profile` but the
    # service simulates `run` requests on the reference engine
    "predecode": lambda c: c.but(engine="predecode"),
    "classic": lambda c: c.but(engine="classic"),
}


def resolve_config(spec: str) -> SpecConfig:
    """``"name(+modifier)*"`` -> a composed :class:`SpecConfig`.

    Raises ``ValueError`` (which the daemon reports as a typed
    ``bad-request``) when the base name or any modifier is unknown.
    """
    parts = [p.strip() for p in spec.split("+") if p.strip()]
    if not parts:
        raise ValueError(f"empty config spec {spec!r}")
    base, mods = parts[0], parts[1:]
    try:
        config = CONFIG_FACTORIES[base]()
    except KeyError:
        raise ValueError(
            f"unknown config {base!r} (known: "
            f"{', '.join(sorted(CONFIG_FACTORIES))})") from None
    for mod in mods:
        try:
            config = MODIFIERS[mod](config)
        except KeyError:
            raise ValueError(
                f"unknown config modifier {mod!r} (known: "
                f"{', '.join(sorted(MODIFIERS))})") from None
    return config


def available_configs() -> List[str]:
    """Every resolvable base name (modifiers listed in the module doc)."""
    return sorted(CONFIG_FACTORIES)
