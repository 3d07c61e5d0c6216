"""A desk-scale laboratory for distributed induced-subgraph detection.

Hard instance families whose subgraph presence encodes set
intersection, a bandwidth-accounting synchronous message-passing
simulator, two-party listing protocols over a vertex cut, and a
distributed induced-diamond listing algorithm, all cross-checked
against brute-force oracles.

Each public name lives in its home module's ``__all__``; the package
namespace is the union of those lists.
"""

from .bitstrings import *
from .bundles import *
from .congest import *
from .diamond_congest import *
from .diamond_family import *
from .families import *
from .family_checks import *
from .graphs import *
from .twoparty import *

__version__ = "0.1.0"
