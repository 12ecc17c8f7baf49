"""repro: a reproduction of "Connectivity Lower Bounds in Broadcast
Congested Clique" (Pai & Pemmaraju, PODC 2019).

The package provides:

* :mod:`repro.core` -- a full KT-0/KT-1 simulator for the BCC(b) model;
* :mod:`repro.graphs` -- the graph substrate (components, generators,
  arboricity);
* :mod:`repro.instances` -- the one-/two-/multi-cycle instance families and
  their exhaustive enumeration;
* :mod:`repro.problems` -- Connectivity, TwoCycle, MultiCycle and
  ConnectedComponents with verifiers;
* :mod:`repro.crossing` -- port-preserving crossings and operational
  indistinguishability (Definitions 3.2/3.3, Lemma 3.4);
* :mod:`repro.indist` -- the indistinguishability graph, polygamous Hall's
  theorem and k-matchings (Definition 3.6, Theorem 2.1, Lemmas 3.7-3.9);
* :mod:`repro.partitions` -- the set-partition lattice, Bell numbers, and
  the M_n / E_n matrices with exact rank (Theorem 2.3, Lemma 4.1);
* :mod:`repro.twoparty` -- 2-party communication protocols, the Partition
  reductions of Section 4.2 and the KT-1 simulation of Section 4.3;
* :mod:`repro.information` -- entropy/mutual-information tools and the
  PartitionComp argument (Theorem 4.5);
* :mod:`repro.algorithms` -- upper-bound BCC algorithms demonstrating the
  lower bounds are tight on uniformly sparse graphs;
* :mod:`repro.lowerbounds` -- one executable engine per theorem.
"""

import importlib

__version__ = "1.0.0"


def lazy_getattr(namespace):
    """Return the PEP 562 ``__getattr__`` of a package that re-exports lazily.

    Every ``repro.*`` package lists its public names in a
    ``_LAZY_EXPORTS`` dict literal mapping each name to the submodule
    that defines it, and sets ``__getattr__ = lazy_getattr(globals())``.
    A name's submodule is imported on its first lookup, and the value is
    then bound in ``namespace``, so ``__getattr__`` fires only on misses.
    A command therefore loads only the submodules it uses.
    """
    table = namespace["_LAZY_EXPORTS"]
    package = namespace["__name__"]

    def __getattr__(name):
        module_name = table.get(name)
        if module_name is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module_name), name)
        namespace[name] = value
        return value

    return __getattr__
