"""qvlab: a numerical laboratory for multi-branch (Q-valued) functions.

The package exports the union of the `__all__` lists of its five library
modules; each name is declared there and only there.
"""

from .qspace import *  # noqa: F401,F403
from .func1d import *  # noqa: F401,F403
from .constructions import *  # noqa: F401,F403
from .branch import *  # noqa: F401,F403
from .disk2d import *  # noqa: F401,F403

__version__ = "0.1.0"
