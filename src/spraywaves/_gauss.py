"""Composite Gauss-Legendre panels, the low-level rule shared by all integrals."""

import math
from functools import lru_cache

import numpy as np


@lru_cache(maxsize=64)
def _rule(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def _build_panels(a: float, b: float, npanels: int, order: int):
    x, w = _rule(order)
    edges = np.linspace(a, b, npanels + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


_cached_panels = lru_cache(maxsize=64)(_build_panels)


def panel_nodes(a: float, b: float, npanels: int, order: int):
    """Nodes and weights of `npanels` equal Gauss-Legendre panels on [a, b].

    Even orders only, so no node ever lands on a panel midpoint (panel edges
    are the only places callers are allowed to pin singular points). Sets of
    at most 512 nodes, such as the bump breakpoint gaps that recur for every
    sigma, come from a 64-entry cache (at most 512 KiB); the arrays are
    shared, hence read-only.
    """
    order = order + (order % 2)
    build = _cached_panels if npanels * order <= 512 else _build_panels
    return build(a, b, npanels, order)


def layout(length: float, scale: float, min_nodes: int) -> tuple[int, int]:
    """Panel count and per-panel order resolving features of size `scale`."""
    by_scale = math.ceil(length / max(scale, 1e-12))
    by_nodes = math.ceil(min_nodes / 24)
    npanels = min(max(by_scale, by_nodes, 4), 4096)
    order = max(10, math.ceil(min_nodes / npanels))
    return npanels, order + (order % 2)


def segment_panels(a: float, b: float, breakpoints: tuple[float, ...], scale: float,
                   nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights over [a, b] cut at the breakpoints inside it; a
    segment gets its length's share of `nodes`, at least 64."""
    edges = sorted({a, b, *(x for x in breakpoints if a < x < b)})
    vs, ws = zip(*(panel_nodes(lo, hi, *layout(hi - lo, scale,
                                               max(64, nodes * (hi - lo) / (b - a))))
                   for lo, hi in zip(edges[:-1], edges[1:])))
    return np.concatenate(vs), np.concatenate(ws)
