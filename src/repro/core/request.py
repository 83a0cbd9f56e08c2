"""The one validated request object every mining entry point shares.

``mine()`` keyword arguments, ``MiningService.query()`` calls, and the
HTTP ``POST /v1/mine`` JSON body all describe the same thing: a
dataset, a threshold, an algorithm, and that algorithm's options.
:meth:`MiningRequest.build` is the one place such a query is checked —
algorithm membership, options against ``accepts``, the universal
``faults=`` plan, ``min_support`` and ``max_k`` types — and the one
place GPApriori's options, spelled as ``config=`` or as individual
:class:`~repro.core.config.GPAprioriConfig` fields, become one config.
Every surface raises the same :class:`~repro.errors.MiningError`
messages because they are all this module's messages, and
:meth:`MiningRequest.signature` is the mining service's cache key.

The JSON body of ``POST /v1/mine`` maps 1:1 onto the constructor
fields: ``dataset``, ``min_support``, ``algorithm``, ``max_k``, and
every remaining key an entry of ``options``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from .._validation import check_query
from ..errors import MiningError
from ..faults.injection import inject
from ..faults.plan import FaultPlan
from .config import GPAprioriConfig

__all__ = ["MiningRequest"]

_CONFIG_FIELDS = GPAprioriConfig.__dataclass_fields__


@dataclass(frozen=True)
class MiningRequest:
    """One mining request in canonical, hashable form.

    Attributes
    ----------
    min_support:
        Fractional support ratio in (0, 1] or absolute count >= 1
        (normalized against the database at execution time).
    algorithm:
        Lower-cased registry key.
    dataset:
        Registered dataset name for service/HTTP queries; ``None`` for
        direct :func:`~repro.core.api.mine` calls, which carry the
        database itself.
    max_k:
        Optional cap on itemset length (an int >= 1).
    options:
        The query's options as given: ``(name, value)`` pairs sorted
        by name, validated against the algorithm's
        :class:`~repro.core.api.AlgorithmInfo` ``accepts`` tuple.
    faults:
        Optional seeded :class:`~repro.faults.FaultPlan` activated
        around the run (refused by the service, where chaos plans come
        from the operator).
    config:
        For ``gpapriori``, the one :class:`GPAprioriConfig` the options
        resolve to: the ``config=`` object, or the individual fields
        with any caller defaults folded in. ``None`` for the other
        algorithms, which take their options as given.
    """

    min_support: Any
    algorithm: str = "gpapriori"
    dataset: Optional[str] = None
    max_k: Optional[int] = None
    options: Tuple[Tuple[str, Any], ...] = ()
    faults: Optional[FaultPlan] = None
    config: Optional[GPAprioriConfig] = None

    # -- construction --------------------------------------------------------

    @classmethod
    def build(
        cls,
        min_support,
        algorithm: str = "gpapriori",
        dataset: Optional[str] = None,
        max_k: Optional[int] = None,
        options: Optional[Mapping[str, Any]] = None,
        reserved: Tuple[str, ...] = (),
        defaults: Optional[Callable[[Dict[str, Any]], Dict[str, Any]]] = None,
    ) -> "MiningRequest":
        """Validate raw inputs into a canonical request.

        ``options`` is the surface's raw keyword mapping; ``max_k`` and
        ``faults`` found inside it are normalized into their fields
        (unless ``"faults"`` is reserved). ``reserved`` names options
        the caller manages itself: their presence is an error, and they
        are left out of the accepted-options listing. ``defaults``, for
        ``gpapriori``, maps the query's own config fields to the fields
        with the caller's defaults folded in (the service's serve-level
        layout, device budget and fleet size); a ``config=`` object is
        taken as it is.
        """
        from .api import ALGORITHMS

        if not isinstance(algorithm, str):
            raise MiningError(f"'algorithm' must be a string, got {algorithm!r}")
        key = algorithm.lower()
        if key not in ALGORITHMS:
            raise MiningError(
                f"unknown algorithm {algorithm!r}; choose from {sorted(ALGORITHMS)}"
            )
        accepts = ALGORITHMS[key].accepts
        opts = dict(options or {})
        if max_k is None:
            max_k = opts.pop("max_k", None)
        faults = None if "faults" in reserved else opts.pop("faults", None)
        if faults is not None and not isinstance(faults, FaultPlan):
            raise MiningError(
                f"faults must be a repro.faults.FaultPlan or None, got {faults!r}"
            )
        check_query(min_support, 0, max_k, MiningError)
        for name in opts:
            if name in reserved:
                raise MiningError(
                    f"option {name!r} is managed by the service and cannot "
                    "be set per query"
                )
            if name not in accepts:
                raise MiningError(
                    f"unknown option {name!r} for algorithm {key!r}; "
                    f"it accepts: "
                    f"{', '.join(a for a in accepts if a not in reserved)}"
                )
        return cls(
            min_support=min_support,
            algorithm=key,
            dataset=dataset,
            max_k=max_k,
            options=tuple(sorted(opts.items())),
            faults=faults,
            config=_resolve_config(opts, defaults) if key == "gpapriori" else None,
        )

    # -- execution -----------------------------------------------------------

    def _unresolved(self) -> Tuple[Tuple[str, Any], ...]:
        """The options the resolved config does not stand for."""
        if self.config is None:
            return self.options
        return tuple(
            (k, v) for k, v in self.options if k != "config" and k not in _CONFIG_FIELDS
        )

    def runner_kwargs(self) -> Dict[str, Any]:
        """The keyword arguments this request hands the runner."""
        kwargs = dict(self._unresolved())
        if self.config is not None:
            kwargs["config"] = self.config
        if self.max_k is not None:
            kwargs["max_k"] = self.max_k
        return kwargs

    def execute(self, db):
        """Run the request against ``db`` under its fault plan."""
        from .api import ALGORITHMS

        info = ALGORITHMS[self.algorithm]
        with inject(self.faults):
            return info.runner(db, self.min_support, **self.runner_kwargs())

    # -- identity ------------------------------------------------------------

    def signature(self) -> tuple:
        """``(dataset, algorithm, options)``: the service's cache key.

        The options part is the resolved config's
        :meth:`~repro.core.config.GPAprioriConfig.signature` plus the
        remaining options, so a ``config=`` query and its field-spelled
        twin share one key. ``min_support`` and ``max_k`` stay out: the
        cache answers a tighter query from a looser entry. Raises
        :class:`~repro.errors.MiningError` when an option value is not
        hashable.
        """
        options = self._unresolved()
        if self.config is not None:
            options = self.config.signature() + options
        if self.faults is not None:
            options += (("faults", self.faults),)
        key = (self.dataset, self.algorithm, options)
        try:
            hash(key)
        except TypeError:
            raise MiningError(
                f"option values must be hashable, got {dict(self.options)!r}"
            ) from None
        return key

    def as_dict(self) -> Dict[str, Any]:
        """The 1:1 JSON form (the ``POST /v1/mine`` body layout)."""
        doc: Dict[str, Any] = {
            "dataset": self.dataset,
            "min_support": self.min_support,
            "algorithm": self.algorithm,
        }
        if self.max_k is not None:
            doc["max_k"] = self.max_k
        doc.update(self.options)
        return doc


def _resolve_config(
    options: Dict[str, Any],
    defaults: Optional[Callable[[Dict[str, Any]], Dict[str, Any]]],
) -> GPAprioriConfig:
    """The one config a gpapriori query's options stand for."""
    fields = {k: v for k, v in options.items() if k in _CONFIG_FIELDS}
    config = options.get("config")
    if config is None:
        return GPAprioriConfig(**(defaults(fields) if defaults else fields))
    if fields:
        raise MiningError(
            "pass config= or individual GPAprioriConfig fields, not both; "
            f"got config= and {', '.join(sorted(fields))}"
        )
    if not isinstance(config, GPAprioriConfig):
        raise MiningError(
            f"config must be a GPAprioriConfig, got {type(config).__name__}"
        )
    return config
