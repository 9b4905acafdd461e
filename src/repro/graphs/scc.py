"""Strongly connected components via an iterative Tarjan algorithm.

The paper's interpreters repeatedly compute the SCCs of the (remaining)
ground graph to find *bottom components* (no incoming edges from other
components).  The implementation here works on index-based adjacency lists
so it can serve both :class:`~repro.graphs.signed_digraph.SignedDigraph`
and the live ground-graph state, and it is iterative so deep recursion on
long chains cannot hit the Python recursion limit.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Sequence

__all__ = [
    "strongly_connected_components",
    "signed_strongly_connected_components",
    "scc_of_signed_digraph",
]


def strongly_connected_components(
    node_count: int,
    successors: Callable[[int], Iterable[int]],
    nodes: Iterable[int] | None = None,
) -> list[list[int]]:
    """Tarjan's algorithm, iteratively, over nodes ``0..node_count-1``.

    ``successors(u)`` must yield the out-neighbours of ``u``.  ``nodes``
    optionally restricts the traversal to a subset (used on the live ground
    graph, where dead nodes are skipped); successors must then also stay
    within the subset.

    Returns the list of components, each a list of node indices, in
    *reverse topological order* (every edge leaving a component points to a
    component earlier in the list).  This is the natural output order of
    Tarjan's algorithm and is relied upon by callers that need bottom-up
    processing.
    """
    index = [-1] * node_count  # discovery index, -1 = unvisited
    lowlink = [0] * node_count
    on_stack = [False] * node_count
    stack: list[int] = []
    components: list[list[int]] = []
    counter = 0

    roots = range(node_count) if nodes is None else nodes
    # Explicit DFS stack as two parallel lists (node, successor iterator):
    # avoids a tuple allocation per visited node and unpacking per step.
    work_node: list[int] = []
    work_iter: list[object] = []
    for root in roots:
        if index[root] != -1:
            continue
        work_node.append(root)
        work_iter.append(iter(successors(root)))
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while work_node:
            u = work_node[-1]
            it = work_iter[-1]
            advanced = False
            ll_u = lowlink[u]
            for v in it:  # type: ignore[union-attr]
                iv = index[v]
                if iv == -1:
                    index[v] = lowlink[v] = counter
                    counter += 1
                    stack.append(v)
                    on_stack[v] = True
                    work_node.append(v)
                    work_iter.append(iter(successors(v)))
                    advanced = True
                    break
                if on_stack[v] and iv < ll_u:
                    ll_u = iv
            lowlink[u] = ll_u
            if advanced:
                continue
            work_node.pop()
            work_iter.pop()
            if work_node:
                parent = work_node[-1]
                if ll_u < lowlink[parent]:
                    lowlink[parent] = ll_u
            if ll_u == index[u]:
                component: list[int] = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    component.append(w)
                    if w == u:
                        break
                components.append(component)
    return components


def signed_strongly_connected_components(
    node_count: int,
    adj: Sequence[Sequence[int]] | Mapping[int, Sequence[int]],
    nodes: Iterable[int],
    parity: bytearray,
) -> list[list[int]]:
    """Tarjan's algorithm over a sign-encoded adjacency, labelling parity.

    ``adj[u]`` lists the arcs out of ``u``: ``v`` for a positive arc and
    ``~v`` for a negative one; arcs must stay within ``nodes``, the
    traversal roots in order.  Visits, components and their order are
    those of :func:`strongly_connected_components` over the same
    adjacency with signs dropped.

    Each node's ``parity`` byte is written once, when the DFS discovers
    it: 0 for a DFS root, ``parity[u] ^ 1`` through a negative tree arc
    ``u → v`` and ``parity[u]`` through a positive one.  Tarjan's
    components are subtrees of the DFS forest, so inside each component
    these bits are Lemma 1's spanning-tree labelling: the component is a
    tie exactly when every arc inside it joins equal bits if positive and
    different bits if negative, and its two sides are then its two bit
    classes (up to a global flip).
    """
    index = [0] * node_count  # discovery number from 1; 0 = unvisited
    low = [0] * node_count
    done = node_count + 1  # above every discovery number: a finished node
    stack: list[int] = []
    components: list[list[int]] = []
    counter = 0
    # The DFS path as parallel lists of nodes and their arc iterators;
    # the node being expanded is held in locals, not on the lists.
    path_node: list[int] = []
    path_iter: list[object] = []
    for root in nodes:
        if index[root]:
            continue
        counter += 1
        index[root] = low[root] = counter
        parity[root] = 0
        stack.append(root)
        u = root
        it = iter(adj[root])
        while True:
            ll_u = low[u]
            for t in it:  # type: ignore[attr-defined]
                v = t if t >= 0 else ~t
                iv = index[v]
                if not iv:
                    low[u] = ll_u
                    path_node.append(u)
                    path_iter.append(it)
                    counter += 1
                    index[v] = low[v] = counter
                    parity[v] = parity[u] ^ (t < 0)
                    stack.append(v)
                    u = v
                    it = iter(adj[v])
                    break
                if iv < ll_u:
                    ll_u = iv
            else:
                if ll_u == index[u]:
                    component: list[int] = []
                    while True:
                        w = stack.pop()
                        index[w] = done
                        component.append(w)
                        if w == u:
                            break
                    components.append(component)
                if not path_node:
                    break
                u = path_node.pop()
                it = path_iter.pop()
                if ll_u < low[u]:
                    low[u] = ll_u
    return components


def scc_of_signed_digraph(graph) -> list[list[object]]:
    """SCCs of a :class:`SignedDigraph`, as lists of node *labels*.

    Components are returned in reverse topological order (see
    :func:`strongly_connected_components`).
    """
    succ = graph.successor_lists()
    components = strongly_connected_components(graph.node_count, lambda u: (v for v, _ in succ[u]))
    return [[graph.label_of(i) for i in comp] for comp in components]
