"""Hierarchy metrics and shock-propagation dynamics for weighted trade
networks.

The package imports no submodule, so that ``tradetopo.cli`` runs before
numpy loads and can set the BLAS thread count; import the layers you
use, e.g. ``from tradetopo import ingest, metrics``."""

__version__ = "0.1.0"
