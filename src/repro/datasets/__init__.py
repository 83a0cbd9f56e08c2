"""Transaction datasets: containers, file IO, and synthetic generators.

The paper evaluates on four datasets from the FIMI repository (Table 2):

=============  ======  ===========  ========  =========
Dataset        #Items  Avg. length  #Trans    Type
=============  ======  ===========  ========  =========
T40I10D100K    942     40           92,113    Synthetic
pumsb          2,113   74           49,046    Real
chess          75      37           3,196     Real
accidents      468     34           340,183   Real
=============  ======  ===========  ========  =========

The FIMI files are not redistributable here, so this package provides

* :class:`~repro.datasets.transaction_db.TransactionDatabase` — the
  horizontal in-memory representation every miner consumes,
* :mod:`~repro.datasets.io` — readers/writers for the FIMI ``.dat``
  format, so the genuine files can be dropped in,
* :mod:`~repro.datasets.quest` — a reimplementation of the IBM Quest
  synthetic generator (Agrawal & Srikant, VLDB'94) used to produce
  T40I10D100K-class data, and
* :mod:`~repro.datasets.synthetic` — statistical analogs of chess,
  pumsb, and accidents matched to the Table 2 statistics.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".transaction_db": ("TransactionDatabase", "DatabaseStats"),
        ".io": ("read_fimi", "write_fimi", "read_basket_csv"),
        ".quest": ("QuestParameters", "generate_quest"),
        ".characterize": ("DatasetProfile", "profile_database", "support_histogram"),
        ".synthetic": (
            "DATASET_REGISTRY",
            "dataset_analog",
            "make_chess_analog",
            "make_pumsb_analog",
            "make_accidents_analog",
            "make_t40i10d100k_analog",
        ),
    },
)
