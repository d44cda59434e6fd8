"""MIMO radar DOA estimation via neural emulation of large virtual arrays.

A name becomes public by being listed in its module's ``__all__``; the
package re-exports exactly those lists, so a stale entry fails ``import
arrayemu`` itself.
"""

from .arrays import *
from .music import *
from .metrics import *
from .network import *
from .harness import *

__version__ = "0.1.0"
