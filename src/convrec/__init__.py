"""Conversational item recommendation with graph encoders and retrieval.

The package splits into data handling (corpus, graphs), numerics (autodiff,
optim), model components (encoders, retrieval, preference), the recommender
itself (training, evaluation, ablation), synthetic corpora for validation,
and a command-line front end (cli). Every name is imported from its
submodule; the package root exports only ``__version__``.
"""

from . import allocator

allocator.fix_thresholds()

__version__ = "0.1.0"

__all__ = ["__version__"]
