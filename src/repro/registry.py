"""Named-component registries: protocol stacks, radios, MACs, mobility models.

The evaluation is comparative by construction -- HVDB against four
baselines across many scenarios -- so the pieces a scenario is assembled
from are *pluggable*: a :class:`~repro.experiments.scenarios.ScenarioConfig`
names its protocol stack, radio model, MAC model and mobility model by
registered name, and :func:`~repro.experiments.scenarios.build_scenario`
resolves those names here.  Referencing components by name (rather than by
object) keeps configs picklable across worker processes and hashable for
the orchestrator's content-addressed result cache.

Four registries are provided, each with a ``register_*`` decorator:

* :data:`PROTOCOL_STACKS` / :func:`register_protocol` -- zero-argument
  :class:`~repro.simulation.stack.ProtocolStack` factories (usually the
  stack class itself).  Built-ins: ``hvdb``, ``flooding``, ``sgm``,
  ``dsm``, ``spbm``.
* :data:`RADIOS` / :func:`register_radio` -- ``fn(config) ->``
  :class:`~repro.simulation.radio.RadioModel` factories (``config`` is a
  ``ScenarioConfig``, or ``None`` for library defaults).  Built-ins:
  ``unit_disk``, ``log_distance``, ``sinr`` (the interference-aware
  SINR/capture radio from :mod:`repro.simulation.phy`).
* :data:`MACS` / :func:`register_mac` -- ``fn(config) ->``
  :class:`~repro.simulation.mac.MacModel` factories.  Built-ins:
  ``csma``, ``ideal``, ``csma_ca`` (slotted CSMA/CA with airtime and
  duty-cycle accounting from :mod:`repro.simulation.phy`).
* :data:`MOBILITY_MODELS` / :func:`register_mobility` -- ``fn(config,
  node_ids) -> MobilityModel`` factories.  Built-ins:
  ``random_waypoint`` and ``static``.

Third-party components register exactly like the built-ins::

    from repro.registry import register_protocol
    from repro.simulation.stack import AgentStack

    @register_protocol("gossip")
    class GossipStack(AgentStack):
        name = "gossip"
        ...

Resolution is lazy: each registry imports the modules that define its
built-ins on first lookup, so ``Registry.get``/``Registry.names`` always
see the bundled components regardless of import order.  An unknown name
raises :class:`RegistryError` (a ``ValueError``) listing every registered
name.  Registrations made outside the bundled modules must be imported
before a sweep runs; on spawn-only platforms worker processes re-import
only :mod:`repro.experiments.specs` (see
:func:`repro.experiments.orchestrator.register_collector`).
"""

from __future__ import annotations

import importlib
from typing import Callable, Dict, List, Tuple


class RegistryError(ValueError):
    """A lookup named no registered component (the message lists them all)."""


class Registry:
    """A name -> component mapping with lazy built-in bootstrapping."""

    def __init__(self, kind: str, bootstrap: Tuple[str, ...] = ()) -> None:
        self.kind = kind
        self._bootstrap = bootstrap
        self._bootstrapped = False
        self._bootstrapping = False
        self._entries: Dict[str, Callable] = {}

    def _ensure_bootstrapped(self) -> None:
        """Import the modules that register this registry's built-ins.

        The done-flag is only set after every import succeeds, so a
        failed bootstrap surfaces its real ImportError again on the next
        lookup instead of a misleading empty registry; the in-progress
        flag guards against recursion should a bootstrap module ever
        perform a lookup at import time.
        """
        if self._bootstrapped or self._bootstrapping:
            return
        self._bootstrapping = True
        try:
            for module in self._bootstrap:
                importlib.import_module(module)
            self._bootstrapped = True
        finally:
            self._bootstrapping = False

    def register(self, name: str) -> Callable:
        """Decorator: register the decorated factory/class under ``name``.

        A name can be registered only once (re-decorating the *same*
        object is an idempotent no-op): silently shadowing a registered
        component would switch every sweep, benchmark and CLI surface to
        the replacement -- and serve cached results produced by the
        original under the same key.
        """

        def decorator(obj: Callable) -> Callable:
            # no bootstrap here: registering must stay import-cycle-free
            # (the built-in modules register at import time).  Shadowing
            # a built-in before the first lookup is still caught -- the
            # built-in's own registration raises when the bootstrap runs.
            existing = self._entries.get(name)
            if existing is not None and existing is not obj:
                raise RegistryError(
                    f"{self.kind} {name!r} is already registered "
                    f"({existing!r}); shadowing a registered {self.kind} "
                    "is not allowed -- pick a new name.  (If this fires "
                    f"while importing a bundled module, an earlier "
                    f"third-party registration took the built-in name "
                    f"{name!r}.)"
                )
            self._entries[name] = obj
            return obj

        return decorator

    def get(self, name: str, bootstrap: bool = True) -> Callable:
        """Resolve ``name``; unknown names raise :class:`RegistryError`.

        ``bootstrap=False`` skips the built-in module imports -- for
        callers below the experiments layer (e.g. ``NetworkConfig``
        defaults) whose wanted entry is registered by a module they
        already import, so resolving it must not drag the whole
        experiment harness in.
        """
        if bootstrap:
            self._ensure_bootstrapped()
        if name not in self._entries:
            raise RegistryError(
                f"unknown {self.kind} {name!r}; registered {self.kind}s: "
                f"{', '.join(self.names())}"
            )
        return self._entries[name]

    def names(self) -> List[str]:
        """Every registered name, sorted."""
        self._ensure_bootstrapped()
        return sorted(self._entries)

    def __contains__(self, name: str) -> bool:
        self._ensure_bootstrapped()
        return name in self._entries


#: Every registry also bootstraps ``repro.experiments.specs``: that is
#: the one module spawn-platform worker processes re-import, so
#: components registered there resolve inside workers regardless of
#: which registry a run touches first.  (Bootstraps run lazily on the
#: first lookup, never at registration, so module import stays
#: cycle-free.)
_SPEC_MODULE = "repro.experiments.specs"

#: protocol-stack factories; ``ScenarioConfig.protocol`` resolves here
PROTOCOL_STACKS = Registry(
    "protocol",
    bootstrap=(
        "repro.core.protocol",
        "repro.baselines.flooding",
        "repro.baselines.sgm",
        "repro.baselines.dsm",
        "repro.baselines.spbm",
        _SPEC_MODULE,
    ),
)

#: radio-model factories; ``ScenarioConfig.radio`` resolves here
RADIOS = Registry(
    "radio",
    bootstrap=("repro.simulation.radio", "repro.simulation.phy", _SPEC_MODULE),
)

#: MAC-model factories; ``ScenarioConfig.mac`` resolves here
MACS = Registry(
    "mac",
    bootstrap=("repro.simulation.mac", "repro.simulation.phy", _SPEC_MODULE),
)

#: mobility-model factories; ``ScenarioConfig.mobility`` resolves here
MOBILITY_MODELS = Registry(
    "mobility model",
    bootstrap=("repro.mobility", _SPEC_MODULE),
)


def register_protocol(name: str) -> Callable:
    """Register a zero-argument :class:`ProtocolStack` factory under ``name``.

    The factory is instantiated per scenario and then wired with
    ``stack.install(network, config)``; decorating the stack class itself
    is the common case.
    """
    return PROTOCOL_STACKS.register(name)


def register_radio(name: str) -> Callable:
    """Register a radio factory ``fn(config) -> RadioModel`` under ``name``.

    ``config`` is the full ``ScenarioConfig`` (factories usually read
    ``config.radio_range``) or ``None`` when a caller wants the library
    default parameters.
    """
    return RADIOS.register(name)


def register_mac(name: str) -> Callable:
    """Register a MAC factory ``fn(config) -> MacModel`` under ``name``."""
    return MACS.register(name)


def register_mobility(name: str) -> Callable:
    """Register a mobility factory ``fn(config, node_ids) -> MobilityModel``."""
    return MOBILITY_MODELS.register(name)
