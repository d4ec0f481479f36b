"""Independent reference implementations used to anchor test expectations.

Everything here is deliberately naive and engine-free: brute-force orbit
walks, textbook cycle-index counting, multiset transfer DPs, and class
minima found by canonical code rather than by orbit arithmetic.  Run the
module directly to print the oracle table that the test constants freeze.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations, product
from math import comb, factorial, gcd, prod


# ---------------------------------------------------------------------------
# brute-force isomorphism

def adjacency(n: int, arcs: frozenset[tuple[int, int]]) -> tuple[int, ...]:
    out = [0] * n
    for a, b in arcs:
        out[a] |= 1 << b
    return tuple(out)


def relabel(arcs: frozenset[tuple[int, int]], p: tuple[int, ...]):
    return frozenset((p[a], p[b]) for a, b in arcs)


def brute_code(n: int, arcs: frozenset[tuple[int, int]]) -> tuple[int, ...]:
    """Lexicographic minimum of the adjacency rows over all relabellings."""
    return min(adjacency(n, relabel(arcs, p)) for p in permutations(range(n)))


def brute_iso(n: int, arcs_a, arcs_b) -> bool:
    return brute_code(n, frozenset(arcs_a)) == brute_code(n, frozenset(arcs_b))


def brute_automorphisms(n: int, adj: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Every relabelling that keeps the arcs of an adjacency, as image
    tuples in lexicographic order."""
    arcs = frozenset((v, w) for v in range(n) for w in range(n) if adj[v] >> w & 1)
    return [p for p in permutations(range(n)) if relabel(arcs, p) == arcs]


def least_by_code(space, domain) -> dict[bytes, int]:
    """The least string of each isomorphism class of space.digraph over a
    domain, keyed by the class's canonical code.

    Every string of a space orients one labelled underlying graph, and an
    isomorphism between two of its orientations is an automorphism of that
    graph, so isomorphism classes are exactly the relabelling orbits.
    """
    from switchdeck.canon import canonical_code

    least: dict[bytes, int] = {}
    for x in domain:
        code = canonical_code(space.digraph(x))
        least[code] = min(x, least.get(code, x))
    return least


def orientation_int(space, g) -> int:
    """The integer of an OrientationSpace that orients the space's
    underlying graph as g does: bit (m-1-i) set when edge i = (a, b) runs
    from b to a."""
    x = 0
    for i, (a, b) in enumerate(space.edges):
        if g.has_arc(b, a):
            x |= 1 << (space.m - 1 - i)
    return x


def least_per_class(space, domain) -> list[int]:
    """The least strings of least_by_code, ascending: the orbit minima the
    space's rep scans must return."""
    return sorted(least_by_code(space, domain).values())


def stable_by_scan(space):
    """The orbit minima of a space whose every card is their own class,
    ascending, by a scan of every orbit minimum: those whose card at vertex
    0 is their own class, then those whose every card is."""
    from switchdeck.spaces import card_table

    xs = space.reps_array()
    xs = xs[space.orbit_min_array(space.switched_array(xs, 0)) == xs]
    return xs[(card_table(space, xs) == xs).all(axis=0)]


def full_refine(n: int, out, inn, cells: list[list[int]]) -> list[list[int]]:
    """Equitable refinement by recounting every vertex against every cell.

    Each round keys a vertex on its (out, in) counts into all cells, in cell
    order, and replaces each cell by its buckets in sorted key order; rounds
    repeat until none splits.  canon._stable_partition must give the same
    cell list, in the same order.
    """
    while True:
        masks = [sum(1 << v for v in c) for c in cells]
        new_cells = []
        for c in cells:
            buckets: dict[tuple, list[int]] = {}
            for v in c:
                key = tuple(((out[v] & m).bit_count(), (inn[v] & m).bit_count())
                            for m in masks)
                buckets.setdefault(key, []).append(v)
            new_cells.extend(buckets[key] for key in sorted(buckets))
        if len(new_cells) == len(cells):
            return cells
        cells = new_cells


# ---------------------------------------------------------------------------
# partitions and cycle-index counting

def partitions(n: int, least: int = 1):
    if n == 0:
        yield ()
        return
    for k in range(least, n + 1):
        for rest in partitions(n - k, k):
            yield (k,) + rest


def perms_with_type(n: int, lam: tuple[int, ...]) -> int:
    mult: dict[int, int] = {}
    for part in lam:
        mult[part] = mult.get(part, 0) + 1
    denom = prod(k ** m * factorial(m) for k, m in mult.items())
    return factorial(n) // denom


def count_graphs(n: int) -> int:
    """Undirected graph classes on n vertices, by the pair cycle index."""
    total = 0
    for lam in partitions(n):
        e = sum(k // 2 for k in lam)
        e += sum(gcd(lam[i], lam[j]) for i in range(len(lam))
                 for j in range(i + 1, len(lam)))
        total += perms_with_type(n, lam) * (1 << e)
    return total // factorial(n)


def count_oriented(n: int) -> int:
    """Oriented graph classes: each vertex pair is none/forward/backward.

    A pair orbit whose endpoints get swapped by some power of the
    permutation can only carry a non-edge, so it contributes a factor 1.
    """
    total = 0
    for lam in partitions(n):
        a = sum((k - 1) // 2 for k in lam)
        a += sum(gcd(lam[i], lam[j]) for i in range(len(lam))
                 for j in range(i + 1, len(lam)))
        total += perms_with_type(n, lam) * 3 ** a
    return total // factorial(n)


def count_tournaments(n: int) -> int:
    """Tournament classes; only all-odd cycle types fix any tournament."""
    total = 0
    for lam in partitions(n):
        if any(k % 2 == 0 for k in lam):
            continue
        b = sum((k - 1) // 2 for k in lam)
        b += sum(gcd(lam[i], lam[j]) for i in range(len(lam))
                 for j in range(i + 1, len(lam)))
        total += perms_with_type(n, lam) * (1 << b)
    return total // factorial(n)


def multiset_totals(sizes: dict[int, int], n: int) -> list[int]:
    """dp[s] = multisets of items summing to s, given size -> class count."""
    dp = [1] + [0] * n
    for k, m in sorted(sizes.items()):
        ndp = [0] * (n + 1)
        for s in range(n + 1):
            if dp[s]:
                for j in range((n - s) // k + 1):
                    ndp[s + j * k] += dp[s] * comb(m + j - 1, j)
        dp = ndp
    return dp


def count_connected_graphs(n: int) -> int:
    """Connected classes, peeling multisets of smaller connected graphs."""
    conn: dict[int, int] = {}
    for k in range(1, n + 1):
        smaller = {j: c for j, c in conn.items() if j < k}
        disconnected = multiset_totals(smaller, k)[k]
        conn[k] = count_graphs(k) - disconnected
    return conn[n]


# ---------------------------------------------------------------------------
# string classes as explicit dihedral orbits

def count_paths(n: int) -> int:
    """Oriented paths: arrow strings up to reversal-with-flip."""
    m = n - 1
    if m <= 0:
        return 1
    fixed = (1 << (m // 2)) if m % 2 == 0 else 0
    return ((1 << m) + fixed) // 2


def _cycle_orbits(n: int, states: int) -> int:
    """Orbits of edge-state strings of an n-cycle under its dihedral group.

    State 0 orients edge (i, i+1) forward, 1 backward, 2 (cycles with
    digons) doubles it.  Isomorphism = any vertex relabelling preserving the
    cycle, i.e. the 2n rotations/reflections acting on indexed edge states.
    """
    maps = []
    for r in range(n):
        for refl in (False, True):
            perm = [0] * n
            flips = False
            for i in range(n):
                # edge i joins vertices (i, i+1); rotation keeps the vertex
                # order, the mirror v -> -v sends edge i to edge n-1-i and
                # reverses it
                j = (i + r) % n
                perm[i] = (n - 1 - j) % n if refl else j
                flips = refl
            maps.append((perm, flips))
    seen: set[tuple[int, ...]] = set()
    classes = 0
    for s in product(range(states), repeat=n):
        if s in seen:
            continue
        classes += 1
        for perm, flips in maps:
            t = [0] * n
            for i in range(n):
                v = s[i]
                if flips and v < 2:
                    v ^= 1
                t[perm[i]] = v
            seen.add(tuple(t))
    return classes


def count_cycles(n: int) -> int:
    return _cycle_orbits(n, 2)


def count_digon_cycles(n: int) -> int:
    return _cycle_orbits(n, 3)


@lru_cache(maxsize=None)
def count_maxdeg2(n: int) -> int:
    sizes = {k: count_paths(k) + (count_cycles(k) if k >= 3 else 0)
             for k in range(1, n + 1)}
    return multiset_totals(sizes, n)[n]


if __name__ == "__main__":
    print("n      paths  cycles digon-c  maxdeg2  tourn   graphs    conn     oriented")
    for n in range(1, 9):
        row = [
            count_paths(n),
            count_cycles(n) if n >= 3 else "-",
            count_digon_cycles(n) if n >= 3 else "-",
            count_maxdeg2(n),
            count_tournaments(n),
            count_graphs(n),
            count_connected_graphs(n),
            count_oriented(n),
        ]
        print(n, *[str(x).rjust(8) for x in row])


# frozen outputs of the formulas above (n = 1..8), shared across test modules
PATHS = {n: v for n, v in enumerate([1, 1, 3, 4, 10, 16, 36, 64], 1)}
CYCLES = {n: v for n, v in enumerate([2, 4, 4, 9, 10, 22], 3)}
DIGON_CYCLES = {n: v for n, v in enumerate([7, 15, 30, 74, 171, 444], 3)}
MAXDEG2 = {n: v for n, v in enumerate([1, 2, 7, 16, 35, 84, 189, 430], 1)}
TOURNAMENTS = {n: v for n, v in enumerate([1, 1, 2, 4, 12, 56, 456, 6880], 1)}
GRAPHS = {n: v for n, v in enumerate([1, 2, 4, 11, 34, 156, 1044, 12346], 1)}
ORIENTED = {n: v for n, v in enumerate(
    [1, 2, 7, 42, 582, 21480, 2142288, 575016219], 1)}
