"""Seeded fault plans: what to break, where, and how often.

A :class:`FaultPlan` is a frozen, hashable description of the faults to
inject into a run — a tuple of :class:`FaultSpec` entries plus a seed.
Hashability matters: the plan rides inside the frozen
:class:`~repro.core.config.GPAprioriConfig`, whose ``signature()`` keys
the service result cache, so two runs under different plans never share
a cache entry.

Each spec names an injection *site* (a ``fault_point(...)`` call wired
into the codebase), a fault *kind* (which maps to a concrete
:class:`~repro.errors.ReproError` subtype or stdlib exception), and a
trigger: either a probability ``rate`` drawn from a per-spec seeded RNG,
or ``on_nth`` — fire on the Nth visit to the site and every visit after,
bounded by ``max_fires``. The bounded form is what retry tests want:
``on_nth=1, max_fires=1`` means "the first attempt fails, the retry
succeeds".
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import (
    ConfigError,
    DeviceMemoryError,
    GpuSimError,
    KernelLaunchError,
    WorkerCrashError,
)

__all__ = [
    "FAULT_KINDS",
    "FAULT_SITES",
    "FaultPlan",
    "FaultSpec",
    "parse_fault_spec",
]

#: kind name -> exception factory. ``pool_death`` maps to OSError on
#: purpose: a thread pool that cannot start its threads fails with an
#: OS-level error, and ParallelEngine's degradation path must catch it
#: like the real thing.
FAULT_KINDS = {
    "device_oom": lambda site: DeviceMemoryError(
        f"injected device OOM at {site}"
    ),
    "transfer_error": lambda site: GpuSimError(
        f"injected transfer error at {site}"
    ),
    "launch_error": lambda site: KernelLaunchError(
        f"injected launch failure at {site}"
    ),
    "pool_death": lambda site: OSError(f"injected pool death at {site}"),
    "worker_crash": lambda site: WorkerCrashError(
        f"injected worker crash at {site}"
    ),
}

#: The sites wired with ``fault_point(...)`` calls.  Kept as data so the
#: CLI and tests can enumerate them without grepping the source.
FAULT_SITES = (
    "gpusim.alloc",
    "gpusim.htod",
    "gpusim.dtoh",
    "gpusim.launch",
    "parallel.submit",
    "fleet.submit",
    "scheduler.worker",
)


@dataclass(frozen=True)
class FaultSpec:
    """One fault to inject: *kind* at *site*, triggered by rate or count.

    Exactly one trigger must be set: a ``rate`` in ``(0, 1]`` (Bernoulli
    draw per site visit, deterministic given the plan seed) or
    ``on_nth >= 1`` (fires on the Nth visit and every visit after).
    ``max_fires`` caps the total number of firings for either trigger;
    ``None`` means unbounded.
    """

    site: str
    kind: str
    rate: float = 0.0
    on_nth: int | None = None
    max_fires: int | None = None

    def __post_init__(self) -> None:
        if self.site not in FAULT_SITES:
            raise ConfigError(
                f"unknown fault site {self.site!r}; "
                f"expected one of {', '.join(FAULT_SITES)}"
            )
        if self.kind not in FAULT_KINDS:
            raise ConfigError(
                f"unknown fault kind {self.kind!r}; "
                f"expected one of {', '.join(sorted(FAULT_KINDS))}"
            )
        has_rate = self.rate > 0.0
        has_nth = self.on_nth is not None
        if has_rate == has_nth:
            raise ConfigError(
                "fault spec needs exactly one trigger: rate in (0, 1] "
                f"or on_nth >= 1 (got rate={self.rate}, on_nth={self.on_nth})"
            )
        if has_rate and not 0.0 < self.rate <= 1.0:
            raise ConfigError(f"fault rate must be in (0, 1], got {self.rate}")
        if has_nth and self.on_nth < 1:  # type: ignore[operator]
            raise ConfigError(f"on_nth must be >= 1, got {self.on_nth}")
        if self.max_fires is not None and self.max_fires < 1:
            raise ConfigError(f"max_fires must be >= 1, got {self.max_fires}")

    def raise_fault(self) -> None:
        """Raise the exception this spec injects."""
        raise FAULT_KINDS[self.kind](self.site)


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, seeded collection of fault specs.

    The plan itself is pure data; :meth:`session` (in
    :mod:`repro.faults.injection`) turns it into the mutable per-run
    state (visit counters, RNGs) that ``fault_point`` consults.
    """

    specs: tuple[FaultSpec, ...] = field(default_factory=tuple)
    seed: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.specs, tuple):
            object.__setattr__(self, "specs", tuple(self.specs))
        for spec in self.specs:
            if not isinstance(spec, FaultSpec):
                raise ConfigError(
                    f"FaultPlan.specs must contain FaultSpec, got {spec!r}"
                )

    @property
    def sites(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(s.site for s in self.specs))

    def session(self):
        """Build the mutable per-run injection state for this plan."""
        from .injection import FaultSession

        return FaultSession(self)


def parse_fault_spec(text: str) -> FaultSpec:
    """Parse the CLI form ``site:kind[:key=value,...]``.

    >>> parse_fault_spec("gpusim.alloc:device_oom:on_nth=1,max_fires=1")
    FaultSpec(site='gpusim.alloc', kind='device_oom', rate=0.0, on_nth=1, max_fires=1)
    >>> parse_fault_spec("scheduler.worker:worker_crash:rate=0.5").rate
    0.5
    """
    parts = text.split(":", 2)
    if len(parts) < 2 or not parts[0] or not parts[1]:
        raise ConfigError(
            f"bad fault spec {text!r}; expected site:kind[:key=value,...]"
        )
    site, kind = parts[0], parts[1]
    kwargs: dict[str, float | int] = {}
    if len(parts) == 3 and parts[2]:
        for pair in parts[2].split(","):
            key, sep, value = pair.partition("=")
            key = key.strip()
            if not sep or key not in ("rate", "on_nth", "max_fires"):
                raise ConfigError(
                    f"bad fault spec option {pair!r} in {text!r}; "
                    "expected rate=, on_nth=, or max_fires="
                )
            try:
                kwargs[key] = float(value) if key == "rate" else int(value)
            except ValueError as exc:
                raise ConfigError(
                    f"bad value for {key!r} in fault spec {text!r}: {value!r}"
                ) from exc
    return FaultSpec(site=site, kind=kind, **kwargs)  # type: ignore[arg-type]
