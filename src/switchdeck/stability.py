"""Switching stability and the group of switching isomorphisms.

A digraph is switching-stable when every single-vertex switch lands back in
its own isomorphism class.  The switching isomorphisms of a digraph D are the
permutations gamma admitting some W with D_W = D^gamma; they form a group
sandwiched between Aut(D) and Aut(underlying(D)).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as _np

from . import canon, generate
from .canon import AutGroup, OrientationSpace
from .digraph import (
    Digraph,
    Permutation,
    VertexSet,
    apply_perm,
    is_connected,
    is_weakly_connected,
    underlying,
)
from .errors import HypothesisUnmet, OutOfRange
from .spaces import card_table
from .switching import switch_set, switch_vertex

# order from which the stability scan may use the group-order divisibility
# prune instead of visiting every orientation class
_STABLE_PRUNE_MIN_N = 8


def is_switching_stable(g: Digraph) -> bool:
    """True when every single-vertex switch of g is isomorphic to g."""
    own = canon.canonical_code(g)
    return all(canon.canonical_code(switch_vertex(g, v)) == own for v in range(g.n))


def classify_stable_connected(n: int) -> list[Digraph]:
    """All connected oriented switching-stable classes on exactly n vertices.

    Each connected underlying graph u, in the space that
    generate.orientation_space picks for it, gives its stable orbit minima
    with no scan of its classes.  A stable minimum x has its card at vertex
    0 in its own class, so x is among the space's self_card_strings(0), and
    x is its own orbit minimum, so it is among their orbit minima; the full
    card check on those keeps exactly the stable ones.  A connected u with
    trivial automorphism group admits no stable orientation (a switch about
    a non-isolated vertex moves some edge, and the only possible isomorphism
    back would be an underlying automorphism), so those are skipped.

    Orders 8 and up also skip u by a divisibility prune: for a stable D every
    singleton is a realizable switching set, realizable sets are closed under
    the relabelling-twisted symmetric difference, so all 2^(n-1) set pairs
    are realizable and the switch-isomorphism group -- a subgroup of
    Aut(underlying) -- has order |Aut(D)| * 2^(n-1).  Hence 2^(n-1) must
    divide the underlying automorphism order.  Orders up to 7 do not depend
    on that argument.  The order must lie in the "stable" row of
    CLASS_BOUNDS; its heavy gate is the caller's to apply.
    """
    generate.check_orders("stable", n, n, heavy=True)
    found: list[Digraph] = []
    for u in generate.gen_underlying_graphs(n):
        if not is_connected(u):
            continue
        aut = canon.aut_group_undirected(u)
        if n >= 2 and aut.order == 1:
            continue
        if n >= _STABLE_PRUNE_MIN_N and aut.order % (1 << (n - 1)):
            continue
        space = generate.orientation_space(u)
        found.extend(space.digraph(int(x)) for x in _stable_minima(space))
    found.sort(key=canon.canonical_code)
    return found


def _stable_minima(space):
    """A space's stable orbit minima, ascending, by classify_stable_connected's argument."""
    xs = space.self_card_strings(0)
    if len(xs):  # most spaces have none: skip their actions
        xs = _np.unique(space.orbit_min_array(xs))
    return xs[(card_table(space, xs) == xs).all(axis=0)]


def is_switching_stable_set(graphs: Iterable[Digraph]) -> bool:
    """True when every vertex switch of every member lands in the set."""
    members = list(graphs)
    if not members:
        raise HypothesisUnmet("a stable set needs at least one member")
    n = members[0].n
    if any(g.n != n for g in members):
        raise HypothesisUnmet("stable-set members must share an order")
    codes = {canon.canonical_code(g) for g in members}
    return all(
        canon.canonical_code(switch_vertex(g, v)) in codes
        for g in members
        for v in range(n)
    )


def check_stable_set_bound(graphs: Sequence[Digraph]) -> dict:
    """Size bound for a stable set of orientations of one connected graph.

    The class count of a stable set M satisfies 2^(n-1) <= |M| * |Aut(U)|;
    when the underlying graph also has maximum degree 2 the automorphism
    order is at most 2n, giving the cruder bound 2^(n-1) <= 2n * |M|.
    """
    members = list(graphs)
    if not members:
        raise HypothesisUnmet("a stable set needs at least one member")
    n = members[0].n
    if any(g.n != n for g in members):
        raise HypothesisUnmet("stable-set members must share an order")
    ucodes = {canon.canonical_code(Digraph(n, underlying(g).adj)) for g in members}
    if len(ucodes) != 1:
        raise HypothesisUnmet("members must orient one underlying graph")
    u = underlying(members[0])
    if not is_connected(u):
        raise HypothesisUnmet("the underlying graph must be connected")
    if not all(g.is_oriented() for g in members):
        raise HypothesisUnmet("members must be oriented")
    if not is_switching_stable_set(members):
        raise HypothesisUnmet("the set is not switching-stable")
    size = len({canon.canonical_code(g) for g in members})
    aut_order = canon.aut_group_undirected(u).order
    result = {
        "n": n,
        "set_size": size,
        "aut_order": aut_order,
        "bound": 1 << (n - 1),
        "product": size * aut_order,
    }
    result["holds"] = result["bound"] <= result["product"]
    if all(u.degree(v) <= 2 for v in range(n)):
        result["maxdeg2_product"] = 2 * n * size
        result["maxdeg2_holds"] = result["bound"] <= result["maxdeg2_product"]
    return result


def switch_solutions(g: Digraph, gamma: Permutation) -> Iterator[VertexSet]:
    """Every vertex set W with g switched by W equal to g relabelled by gamma.

    Works for connected digraphs, digons included: digon edges never move
    under switching, so they only have to match up front, and each component
    of the non-digon edge graph is rooted at its least vertex with weight 0.
    That rooted W comes first.  Every edge leaving a component is a digon
    edge, which switching never moves, so the other solutions are W XOR each
    nonempty union of components, each yielded once.  Yields nothing when no
    W exists.
    """
    n = g.n
    if len(gamma) != n:
        raise HypothesisUnmet(f"permutation on {len(gamma)} vertices, digraph on {n}")
    if not is_weakly_connected(g):
        raise HypothesisUnmet("switching isomorphisms need a connected digraph")
    u = underlying(g)
    target = apply_perm(g, gamma)
    if underlying(target) != u:
        raise HypothesisUnmet("gamma must preserve the underlying graph")
    digons = g.digon_mask()
    if digons != target.digon_mask():
        return
    weight = [-1] * n
    comps: list[int] = []
    for root in range(n):
        if weight[root] != -1:
            continue
        weight[root] = 0
        comp = 1 << root
        stack = [root]
        while stack:
            v = stack.pop()
            m = u.adj[v] & ~digons[v]
            while m:
                b = m & -m
                x = b.bit_length() - 1
                m ^= b
                need = weight[v] ^ (g.has_arc(v, x) != target.has_arc(v, x))
                if weight[x] == -1:
                    weight[x] = need
                    comp |= b
                    stack.append(x)
                elif weight[x] != need:
                    return
        comps.append(comp)
    bits = 0
    for v in range(n):
        if weight[v]:
            bits |= 1 << v
    if switch_set(g, VertexSet(n, bits)) != target:
        return
    yield VertexSet(n, bits)
    # Gray-code order: each step flips the one component at the lowest set bit
    for pick in range(1, 1 << len(comps)):
        bits ^= comps[(pick & -pick).bit_length() - 1]
        yield VertexSet(n, bits)


def solve_switch_iso(g: Digraph, gamma: Permutation) -> VertexSet | None:
    """The rooted W of switch_solutions (vertex 0 outside it), or None."""
    return next(switch_solutions(g, gamma), None)


def gamma_group(g: Digraph) -> AutGroup:
    """All switching isomorphisms of a connected digraph."""
    if g.n > canon.AUT_MAX_N:
        raise OutOfRange(f"order {g.n} exceeds automorphism cap {canon.AUT_MAX_N}")
    if not is_weakly_connected(g):
        raise HypothesisUnmet("switching isomorphisms need a connected digraph")
    u = underlying(g)
    elems = tuple(
        p for p in canon.aut_group_undirected(u) if solve_switch_iso(g, p) is not None
    )
    group = AutGroup(elems)
    images = {p.image for p in elems}
    if group.order <= 512:
        pairs = ((a, b) for a in elems for b in elems)
    else:
        probe = elems[:16] + elems[-16:]
        pairs = ((a, b) for a in probe for b in probe)
    if any(a.compose(b).image not in images for a, b in pairs):
        raise HypothesisUnmet("switching isomorphisms must be closed")
    return group


def _switch_span_basis(masks: Sequence[int]) -> dict[int, int]:
    """Reduced GF(2) basis of the switch flip vectors, keyed by pivot bit."""
    basis: dict[int, int] = {}
    for row in masks:
        cur = row
        while cur:
            pivot = cur.bit_length() - 1
            if pivot in basis:
                cur ^= basis[pivot]
            else:
                for p, r in list(basis.items()):
                    if r >> pivot & 1:
                        basis[p] = r ^ cur
                basis[pivot] = cur
                break
    return basis


def verify_index_identity(n: int) -> dict:
    """Exhaustively check |Gamma(D)| = |Aut(D)| * #{W-pairs with D_W iso D}.

    Runs over every connected oriented class on n vertices, grouped by
    underlying graph.  Group size comes from span membership of flip vectors;
    the W-pair count comes from explicit enumeration of the 2^(n-1) flips.
    For a trivial underlying automorphism group both sides are forced to 1
    once the switch span has rank n-1, which is checked directly.  That rank
    also makes the 2^(n-1) flips the span itself, each element once, so span
    membership is a lookup among them.
    """
    holds = True
    underlying_checked = 0
    classes_checked = 0
    for u in generate.gen_underlying_graphs(n):
        if not is_connected(u):
            continue
        aut = canon.aut_group_undirected(u)
        space = OrientationSpace(u)
        masks = space.flips.tolist()
        if len(_switch_span_basis(masks)) != max(n - 1, 0):
            raise HypothesisUnmet("the switch span of a connected graph has rank n - 1")
        underlying_checked += 1
        if aut.order == 1:
            classes_checked += 1 << space.m
            continue
        xs = space.reps_array()
        flips = [0] * (1 << max(n - 1, 0))
        for wmask in range(1, len(flips)):
            low = wmask & -wmask
            flips[wmask] = flips[wmask ^ low] ^ masks[low.bit_length()]
        farr = _np.array(flips, dtype=_np.uint64)
        span = _np.sort(farr)
        gamma_counts = _np.ones(len(xs), dtype=_np.int64)
        aut_counts = _np.ones(len(xs), dtype=_np.int64)
        # D_W iso D for the identity permutation exactly when the flip is 0
        wmatch = _np.zeros((len(xs), len(farr)), dtype=bool)
        wmatch[:, 0] = True
        for action in space.actions:
            y = space.act_array(action, xs)
            aut_counts += y == xs
            delta = xs ^ y
            # act(x ^ f) == x  <=>  delta == gathered f (flip bits follow the
            # same positional permutation as orientation bits)
            gf = space.act_array(action, farr) ^ _np.uint64(action.flip)
            wmatch |= delta[:, None] == gf[None, :]
            at = _np.minimum(_np.searchsorted(span, delta), len(span) - 1)
            gamma_counts += span[at] == delta
        wcounts = wmatch.sum(axis=1, dtype=_np.int64)
        holds &= bool((gamma_counts == aut_counts * wcounts).all())
        classes_checked += len(xs)
    return {
        "n": n,
        "underlying_checked": underlying_checked,
        "classes_checked": classes_checked,
        "holds": holds,
    }
