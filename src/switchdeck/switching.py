"""Vertex and set switching: reverse every arc with exactly one endpoint inside."""

from __future__ import annotations

from .digraph import Digraph, VertexSet, in_masks
from .errors import OutOfRange


def switch_set(g: Digraph, w: VertexSet) -> Digraph:
    """Reverse all arcs with exactly one endpoint in w.

    Digons map to digons, so the underlying graph is unchanged.
    Switching on w and on its complement give the same digraph.
    """
    if w.n != g.n:
        raise OutOfRange(f"set on {w.n} vertices applied to order {g.n}")
    bits = w.bits
    full = (1 << g.n) - 1
    inn = in_masks(g)
    out = []
    for v in range(g.n):
        same = bits if bits >> v & 1 else full ^ bits
        out.append((g.out[v] & same) | (inn[v] & ~same & full))
    return Digraph(g.n, tuple(out))


def switch_vertex(g: Digraph, v: int) -> Digraph:
    """Reverse all arcs incident with v, in one pass over the out-masks.

    v's new out-mask is its old in-mask; every other w gets arc w->v exactly
    when v->w was an arc, so a digon at v stays a digon.
    """
    if not 0 <= v < g.n:
        raise OutOfRange(f"vertex {v} not in 0..{g.n - 1}")
    bit = 1 << v
    ov = g.out[v]
    out = []
    col = 0
    for w, m in enumerate(g.out):
        if m & bit:
            col |= 1 << w
        out.append(m & ~bit | (ov >> w & 1) << v)
    out[v] = col
    return Digraph(g.n, tuple(out))
