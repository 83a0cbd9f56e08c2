"""Association rules with the classical interest measures.

Rule generation follows Agrawal & Srikant's ``ap-genrules`` (VLDB'94):
for each frequent itemset, consequents grow level-wise, and a
consequent whose rule fails the confidence threshold prunes all of its
supersets (confidence is antitone in the consequent, because the
antecedent's support is monotone when items move out of it).

All supports come from the mining result itself — downward closure
guarantees every subset of a frequent itemset is present with its exact
support, so no database re-scan is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..errors import MiningError
from .._validation import check_fraction
from ..core.itemset import MiningResult
from ..trie.level import join_frequent

__all__ = ["AssociationRule", "generate_rules"]

Items = Tuple[int, ...]


@dataclass(frozen=True)
class AssociationRule:
    """A rule ``antecedent -> consequent`` with its interest measures.

    Attributes
    ----------
    support:
        Support ratio of the union (rule coverage of the database).
    confidence:
        ``P(consequent | antecedent)``.
    lift:
        Confidence over the consequent's base rate; > 1 means positive
        association.
    leverage:
        ``P(A u C) - P(A) P(C)`` — additive co-occurrence excess.
    conviction:
        ``(1 - P(C)) / (1 - confidence)``; ``inf`` for exact rules.
    """

    antecedent: Items
    consequent: Items
    support: float
    confidence: float
    lift: float
    leverage: float
    conviction: float

    def __str__(self) -> str:
        a = ",".join(map(str, self.antecedent))
        c = ",".join(map(str, self.consequent))
        return (
            f"{{{a}}} -> {{{c}}}  supp={self.support:.3f} "
            f"conf={self.confidence:.3f} lift={self.lift:.2f}"
        )


def _measures(
    n: int,
    union_support: int,
    antecedent_support: int,
    consequent_support: int,
) -> Tuple[float, float, float, float, float]:
    support = union_support / n
    confidence = union_support / antecedent_support
    consequent_rate = consequent_support / n
    lift = confidence / consequent_rate if consequent_rate else float("inf")
    leverage = support - (antecedent_support / n) * consequent_rate
    conviction = (
        float("inf")
        if confidence >= 1.0
        else (1.0 - consequent_rate) / (1.0 - confidence)
    )
    return support, confidence, lift, leverage, conviction


def generate_rules(
    result: MiningResult,
    min_confidence: float = 0.5,
) -> List[AssociationRule]:
    """Derive all confident rules from a mining result.

    Parameters
    ----------
    result:
        A mining result whose itemset collection is downward closed
        (any Apriori-family result is). A missing subset raises
        :class:`~repro.errors.MiningError`.
    min_confidence:
        Threshold in [0, 1]; rules below it (and, per ``ap-genrules``,
        all rules with superset consequents) are pruned.

    Returns
    -------
    list of AssociationRule
        Sorted by descending confidence, then descending support, then
        antecedent/consequent for determinism.
    """
    min_confidence = check_fraction(min_confidence, "min_confidence", MiningError)
    n = result.n_transactions
    if n <= 0:
        return []
    supports: Dict[Items, int] = result.as_dict()

    def support_of(items: Items) -> int:
        try:
            return supports[items]
        except KeyError:
            raise MiningError(
                f"result is not downward closed: missing subset {items}"
            ) from None

    rules: List[AssociationRule] = []
    for itemset, union_support in supports.items():
        if len(itemset) < 2:
            continue
        # level-wise consequents: start with single items.
        consequents: List[Items] = [(i,) for i in itemset]
        while consequents:
            surviving: List[Items] = []
            for cons in consequents:
                if len(cons) >= len(itemset):
                    continue
                ante = tuple(i for i in itemset if i not in cons)
                a_sup = support_of(ante)
                c_sup = support_of(cons)
                support, confidence, lift, leverage, conviction = _measures(
                    n, union_support, a_sup, c_sup
                )
                if confidence >= min_confidence:
                    rules.append(
                        AssociationRule(
                            antecedent=ante,
                            consequent=cons,
                            support=support,
                            confidence=confidence,
                            lift=lift,
                            leverage=leverage,
                            conviction=conviction,
                        )
                    )
                    surviving.append(cons)
            # grow consequents from survivors only (ap-genrules prune)
            consequents = join_frequent(surviving) if len(surviving) > 1 else []
    rules.sort(
        key=lambda r: (-r.confidence, -r.support, r.antecedent, r.consequent)
    )
    return rules
