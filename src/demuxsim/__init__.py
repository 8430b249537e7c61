"""Active temporal-to-spatial demultiplexing of a pulsed single-photon source.

Closed-form rate predictions, a reconfigurable coupler-tree device model, a
Monte Carlo time-tag simulator, and estimators that recover the device
parameters back from the tag streams.

Each module's ``__all__`` is its public surface; the package's is their union.
"""

from . import analysis, config, couplers, errors, fitting, rates, simulate, tags

# taken before the star imports, which rebind simulate to the function
__all__ = [
    name
    for module in (analysis, config, couplers, errors, fitting, rates, simulate, tags)
    for name in module.__all__
]

from .analysis import *
from .config import *
from .couplers import *
from .errors import *
from .fitting import *
from .rates import *
from .simulate import *
from .tags import *

__version__ = "0.1.0"
