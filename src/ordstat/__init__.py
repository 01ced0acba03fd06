"""Order-statistic conditional laws and inspection planning for k-out-of-n
systems.

The library computes, for an iid sample of component lifetimes:

* joint and conditional CDFs of sample observations and the r-th order
  statistic (the failure time of an (n - r + 1)-out-of-n system),
* the exact, distribution-free pmf and mean of the number of sequential
  inspections needed to detect k failed components, in rational arithmetic,
* interval-censored mean residual life and mean past of a component given
  the system failed inside an inspection window,
* independent verification engines: exhaustive enumeration of failed-position
  sets and seeded Monte-Carlo simulation.

A command-line front end (``ordstat``) exposes every computation with CSV
and JSON output.

The package imports all of its modules eagerly: the benchmark's tracer wraps
the layer functions of the ``ordstat`` modules already loaded, so a module
imported on first use would go untraced.  What is deferred is numpy and
scipy, the bulk of the import time, through one helper,
``errors._on_first_read``: numpy is imported at the first array operation
and ``scipy.special`` at the first tail or gamma call.  So ``import ordstat``
and the exact inspection laws load only the standard library, and the
Monte-Carlo and enumeration oracles never load scipy.
"""

__version__ = "0.1.0"

from . import errors, inspections, joint, lifetimes, mrl, oracle, special, system
from .errors import *
from .inspections import *
from .joint import *
from .lifetimes import *
from .mrl import *
from .oracle import *
from .special import *
from .system import *

# each public name is listed once, in the __all__ of its own module
__all__ = ["__version__"] + [
    name
    for module in (errors, inspections, joint, lifetimes, mrl, oracle, special, system)
    for name in module.__all__
]
