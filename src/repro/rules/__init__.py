"""Association-rule generation from frequent itemsets.

FIM's motivating application in the paper's introduction (market
baskets: "people who buy vegetables often also buy salad dressing") is
association *rules*; this package derives them from any
:class:`~repro.core.itemset.MiningResult`.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".rules": ("AssociationRule", "generate_rules"),
        ".condense": (
            "closed_itemsets",
            "maximal_itemsets",
            "support_from_closed",
            "condensation_ratio",
        ),
    },
)
