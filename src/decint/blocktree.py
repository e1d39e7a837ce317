"""Block error patterns as a three-state process on a perfect binary tree.

Nodes carry X_v in {0 = success, 1 = fresh failure, 2 = inherited}: a node
can fail afresh only while its whole ancestor chain is alive, and every
descendant of a failure is inherited-failed. Exact inclusion probabilities
use rational arithmetic (the bound margins sit at delta^(2^z) scales where
doubles underflow); Monte Carlo uses vectorized sampling.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .noise import STREAM_TREE, rng_stream

Node = tuple[int, ...]  # path from the root: () is the root, bits go down

MAX_EXACT_DEPTH = 6  # z <= 6 keeps the exact recursion and enumerations small


class _TreeFields(NamedTuple):
    z: int
    taus: tuple[Fraction, ...]


class TreeParams(_TreeFields):
    """Perfect binary tree of depth z-1 with per-depth fresh-failure rates.

    taus[y] is the fresh-failure probability at depth y (the level-(r-y)
    interface); exact arithmetic uses them as Fractions.
    """

    __slots__ = ()

    def __new__(cls, z: int, taus: tuple[Fraction, ...]):
        if z < 1:
            raise ValueError("z must be >= 1")
        if len(taus) != z:
            raise ValueError("need one tau per depth 0..z-1")
        for t in taus:
            if not 0 <= t <= 1:
                raise ValueError("taus must lie in [0, 1]")
        return super().__new__(cls, z, taus)

    @classmethod
    def from_floats(cls, z: int, taus: Sequence[float]) -> "TreeParams":
        return cls(z, tuple(Fraction(t).limit_denominator(10**12) for t in taus))

    @classmethod
    def bound_saturating(cls, z: int, delta_bar: Fraction) -> "TreeParams":
        """tau at depth y set to delta_bar^(2^(z-y)), the doubly-exponential
        parameterization realized by the level-r interface failure rates."""
        delta_bar = Fraction(delta_bar)
        return cls(z, tuple(delta_bar ** (2 ** (z - y)) for y in range(z)))


def nodes_at_depth(z: int, y: int) -> list[Node]:
    return [tuple(int(b) for b in format(i, f"0{y}b")) for i in range(2**y)] if y else [()]


def leaves(z: int) -> list[Node]:
    return nodes_at_depth(z, z - 1)


def is_ancestor(a: Node, b: Node) -> bool:
    """True when a is an ancestor of (or equal to) b."""
    return len(a) <= len(b) and b[: len(a)] == a


def is_antichain(nodes: Iterable[Node]) -> bool:
    ns = list(nodes)
    for i, a in enumerate(ns):
        for b in ns[i + 1 :]:
            if is_ancestor(a, b) or is_ancestor(b, a):
                return False
    return True


def node_weight(z: int, t_bar: Iterable[Node]) -> int:
    """Number of leaves with an ancestor in the antichain: sum of
    2^(z-1-depth(v)) over the set."""
    ns = list(t_bar)
    if not is_antichain(ns):
        raise ValueError("node set must be an antichain")
    for v in ns:
        if len(v) > z - 1:
            raise ValueError("node deeper than the tree")
    return sum(2 ** (z - 1 - len(v)) for v in ns)


def f_of_v(t_bar: Iterable[Node], v: Node) -> int:
    """Minimal ancestor height at which v's subtree captures another element.

    f(v) = min{b > 0 : |S_b(v)| < |T|-1} with S_b the elements outside the
    subtree rooted b levels above v. Defined only for |T| >= 2 and v in T.
    """
    ns = list(t_bar)
    if v not in ns:
        raise ValueError("v must belong to the node set")
    if len(ns) < 2:
        raise ValueError("f(v) undefined for singleton sets")
    for b in range(1, len(v) + 1):
        anc = v[: len(v) - b]
        s_b = [w for w in ns if not is_ancestor(anc, w)]
        if len(s_b) < len(ns) - 1:
            return b
    return len(v)


# -- sampling ---------------------------------------------------------------------


def sample_states_batch(params: TreeParams, seed: int, trials: int):
    """Vectorized sampling: returns alive masks per node in BFS order.

    Output maps each node to a boolean array over trials: True where
    X_v = 0 (so ~alive[v] is the X_v in {1,2} event).
    """
    rng = rng_stream(seed, STREAM_TREE, 0)  # index 0: the key tree-bounds outputs were drawn from
    alive: dict[Node, np.ndarray] = {}
    fresh: dict[Node, np.ndarray] = {}
    for y in range(params.z):
        tau = float(params.taus[y])
        for v in nodes_at_depth(params.z, y):
            draw = rng.random(trials) < tau
            parent_alive = alive[v[:-1]] if y else np.ones(trials, dtype=bool)
            fresh[v] = parent_alive & draw
            alive[v] = parent_alive & ~draw
    return alive, fresh


# -- exact probabilities --------------------------------------------------------------


def exact_inclusion(params: TreeParams, t_bar: Iterable[Node]) -> Fraction:
    """Pr(X_v in {1,2} for all v in T-bar), exact.

    Depth-first recursion over node survival: conditioned on its parent
    being alive, a node either fails fresh (covering its whole subtree) or
    survives and delegates to its children. Requires an antichain.
    """
    ns = [tuple(v) for v in t_bar]
    if params.z - 1 > MAX_EXACT_DEPTH:
        raise ValueError("depth cap exceeded for the exact recursion")
    if not is_antichain(ns):
        raise ValueError("node set must be an antichain")
    if not ns:
        return Fraction(1)

    def g(v: Node) -> Fraction:
        """Pr(all targets below v are covered | parent of v alive)."""
        targets_below = [w for w in ns if is_ancestor(v, w)]
        if not targets_below:
            return Fraction(1)
        tau = params.taus[len(v)]
        if v in ns:
            return tau
        if len(v) == params.z - 1:
            # Leaf not in the target set but has targets below: impossible.
            raise AssertionError("unreachable: target below a leaf")
        return tau + (1 - tau) * g(v + (0,)) * g(v + (1,))

    return g(())


def brute_force_inclusion(params: TreeParams, t_bar: Iterable[Node]) -> Fraction:
    """Oracle: enumerate every combination of Bernoulli draws (2^#nodes)."""
    ns = [tuple(v) for v in t_bar]
    all_nodes = [v for y in range(params.z) for v in nodes_at_depth(params.z, y)]
    total = Fraction(0)
    for draws in range(1 << len(all_nodes)):
        prob = Fraction(1)
        states: dict[Node, int] = {}
        for k, v in enumerate(all_nodes):
            tau = params.taus[len(v)]
            fail_draw = (draws >> k) & 1
            prob *= tau if fail_draw else 1 - tau
            parent_state = states[v[:-1]] if v else 0
            if parent_state != 0:
                states[v] = 2
            else:
                states[v] = 1 if fail_draw else 0
        if prob == 0:
            continue
        if all(states[v] != 0 for v in ns):
            total += prob
    return total


def chain_rule_probability(params: TreeParams, failure_sets: Sequence[Iterable[Node]]) -> Fraction:
    """Closed-form probability of a block error pattern (F_0, ..., F_{z-1}).

    Pr = Pr(F_0) * prod_y (1 - tau_y)^(2^y - sum_{y'<=y} 2^(y-y')|F_{y'}|)
    * tau_y^|F_y|; zero when the pattern conditions are violated.
    """
    fs = [set(map(tuple, f)) for f in failure_sets]
    if len(fs) != params.z:
        raise ValueError("need one set per depth")
    if not is_block_error_pattern(fs):
        return Fraction(0)
    tau0 = params.taus[0]
    prob = tau0 if fs[0] else 1 - tau0
    for y in range(1, params.z):
        tau = params.taus[y]
        blocked = sum(2 ** (y - yp) * len(fs[yp]) for yp in range(y + 1))
        exponent = 2**y - blocked
        prob *= (1 - tau) ** exponent * tau ** len(fs[y])
    return prob


def is_block_error_pattern(failure_sets: Sequence[Iterable[Node]]) -> bool:
    """No element may have an ancestor in an earlier failure set."""
    fs = [set(map(tuple, f)) for f in failure_sets]
    for y, f in enumerate(fs):
        for v in f:
            if len(v) != y:
                return False
            for yp in range(y):
                for a in fs[yp]:
                    if is_ancestor(a, v):
                        return False
    return True


def extension(f_y: Iterable[Node], y: int, y_target: int) -> set[Node]:
    """All descendants of F_y at depth y_target."""
    out = set()
    for v in f_y:
        if len(v) != y:
            raise ValueError("node depth mismatch")
        for tail in range(2 ** (y_target - y)):
            bits = tuple(int(b) for b in format(tail, f"0{y_target - y}b")) if y_target > y else ()
            out.add(v + bits)
    return out


def induced_partition(failure_sets: Sequence[Iterable[Node]], z: int) -> set[Node]:
    """The union of all extensions to the leaf depth (the set F-bar)."""
    out: set[Node] = set()
    for y, f in enumerate(failure_sets):
        out |= extension(f, y, z - 1)
    return out


def partitions_leaf_set(failure_sets: Sequence[Iterable[Node]], f_bar: Iterable[Node], z: int) -> bool:
    """The partition predicate (F_0, ..., F_{z-1}) |> F-bar."""
    return induced_partition(failure_sets, z) == set(map(tuple, f_bar))


# -- bound verification -----------------------------------------------------------------


class BoundCheck(NamedTuple):
    t_bar: tuple[Node, ...]
    exact: Fraction
    bound: Fraction
    ok: bool


def final_bound(z: int, delta_bar: Fraction, t_bar: Sequence[Node]) -> Fraction:
    """4 * 4^|T| * delta_bar^(2 W(T)). On a leaf set W(T) = |T|, so it equals
    4 * (2 delta_bar)^(2|T|); `check_final_bound` uses the tighter
    (2 delta_bar)^(2|T|) there."""
    delta_bar = Fraction(delta_bar)
    w = node_weight(z, t_bar)
    return 4 * Fraction(4) ** len(list(t_bar)) * delta_bar ** (2 * w)


def binomial_two_sided_p(hits: int, trials: int, p: float) -> float:
    """Exact two-sided binomial p-value of `hits` under Bin(trials, p).

    Twice the smaller tail, P(X <= hits) or P(X >= hits), capped at 1. The
    pmf comes from a cumulative sum of log ratios, so it stays exact (to
    float rounding) at expected counts far below 1, where a normal
    approximation does not hold.
    """
    if not 0 < p < 1:
        return float(hits == trials * p)
    j = np.arange(1, trials + 1)
    steps = np.log(trials - j + 1) - np.log(j) + math.log(p) - math.log1p(-p)
    pmf = np.exp(trials * math.log1p(-p) + np.concatenate([[0.0], np.cumsum(steps)]))
    return min(1.0, 2 * min(float(pmf[: hits + 1].sum()), float(pmf[hits:].sum())))


def check_final_bound(z: int, delta_bar: Fraction, max_size: int = 3, leaf_only: bool = False) -> list[BoundCheck]:
    """Verify exact inclusion <= the closed-form bound for every antichain up
    to `max_size` nodes (leaf antichains only when leaf_only is set).

    With the bound-saturating taus (delta_bar^(2^(z-y)) at depth y). A leaf
    set is held to (2 delta_bar)^(2|T|), any other to `final_bound`.
    """
    params = TreeParams.bound_saturating(z, delta_bar)
    pool = leaves(z) if leaf_only else [v for y in range(z) for v in nodes_at_depth(z, y)]
    out = []
    for size in range(1, max_size + 1):
        for t in combinations(pool, size):
            if not is_antichain(t):
                continue
            exact = exact_inclusion(params, t)
            if all(len(v) == z - 1 for v in t):
                bound = (2 * Fraction(delta_bar)) ** (2 * len(t))
            else:
                bound = final_bound(z, delta_bar, t)
            out.append(BoundCheck(t_bar=t, exact=exact, bound=bound, ok=exact <= bound))
    return out
