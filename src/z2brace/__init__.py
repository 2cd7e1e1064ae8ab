"""Exact-integer engine for braces on Z^2 defined by unimodular matrix pairs.

Layers: gl2z (2x2 exact matrix arithmetic and powers), brace
(the pair validity conditions and lambda's closed form for a valid pair),
ybe (the derived Yang-Baxter map and its properties), classification (the
twelve parametric families, membership, and exhaustive cross-validation),
cli (JSON command-line surface).  The package exports exactly the names in
the __all__ of the four layers below cli.
"""

from . import brace, classification, gl2z, ybe
from .brace import *
from .classification import *
from .gl2z import *
from .ybe import *

__version__ = "0.1.0"

__all__ = [*gl2z.__all__, *brace.__all__, *ybe.__all__, *classification.__all__]
