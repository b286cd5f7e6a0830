"""Model discrimination for digital-twin behavioral matching.

A small numpy/scipy toolkit that simulates a Peltier thermal twin, fits its
unknown physical parameters to recorded step responses, identifies families
of Box-Jenkins SIMO models at each operating point, scores them with
code-length information gain and nAIC/BIC/MDL, and picks the nominal
parameter set with the Vinnicombe nu-gap metric.

Every public name is imported from the submodule that defines it, e.g.
``from twindisc.twin import PeltierParams``; the package itself imports
nothing.  Only model identification (:mod:`twindisc.sysid`) imports scipy,
for its BLAS and LAPACK wrappers, so the ``match`` and ``simulate`` commands
never load it.
"""

__version__ = "0.1.0"
