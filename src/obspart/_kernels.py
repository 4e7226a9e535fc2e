"""Array kernels for the hot graph loops.

Each kernel works on plain numpy arrays.  Graphs are passed in CSR form:
``indptr`` of length ``n+1`` and ``indices`` holding neighbor ids, sorted
ascending within each row — the sort is what makes matching tie-breaks
deterministic.
"""

import numpy as np


def csr_from_edges(n_nodes, edges):
    """Build (indptr, indices) from an iterable of (src, dst) int pairs.

    Neighbors are sorted ascending per source node; duplicate edges are
    kept as given (callers pass deduplicated edge lists).
    """
    m = len(edges)
    indptr = np.zeros(n_nodes + 1, dtype=np.int64)
    indices = np.empty(m, dtype=np.int64)
    if m == 0:
        return indptr, indices
    arr = np.asarray(edges, dtype=np.int64)
    order = np.lexsort((arr[:, 1], arr[:, 0]))
    arr = arr[order]
    np.add.at(indptr, arr[:, 0] + 1, 1)
    np.cumsum(indptr, out=indptr)
    indices[:] = arr[:, 1]
    return indptr, indices


def hopcroft_karp(indptr, indices, n_begin, n_end):
    """Maximum bipartite matching; returns (match_begin, match_end).

    ``indices`` lists end-node ids adjacent to each begin node.  Unmatched
    nodes carry -1.  Begin nodes are scanned in ascending order and
    adjacency rows are pre-sorted, so the matching is deterministic.
    """
    inf = n_begin + n_end + 1
    match_begin = np.full(n_begin, -1, np.int64)
    match_end = np.full(n_end, -1, np.int64)
    dist = np.empty(n_begin, np.int64)
    queue = np.empty(n_begin, np.int64)
    stack = np.empty(n_begin + 1, np.int64)
    frame_ptr = np.empty(n_begin + 1, np.int64)
    chosen = np.empty(n_begin + 1, np.int64)

    while True:
        # BFS phase: layer begin nodes by alternating distance from the
        # free ones; shortest augmenting length ends the scan.
        qh = 0
        qt = 0
        for u in range(n_begin):
            if match_begin[u] == -1:
                dist[u] = 0
                queue[qt] = u
                qt += 1
            else:
                dist[u] = inf
        shortest = inf
        while qh < qt:
            u = queue[qh]
            qh += 1
            if dist[u] >= shortest:
                continue
            for k in range(indptr[u], indptr[u + 1]):
                w = match_end[indices[k]]
                if w == -1:
                    if shortest == inf:
                        shortest = dist[u] + 1
                elif dist[w] == inf:
                    dist[w] = dist[u] + 1
                    queue[qt] = w
                    qt += 1
        if shortest == inf:
            break

        # DFS phase: augment along length-`shortest` paths only.
        for s in range(n_begin):
            if match_begin[s] != -1:
                continue
            top = 0
            stack[0] = s
            frame_ptr[0] = indptr[s]
            hit = False
            while top >= 0:
                u = stack[top]
                descended = False
                while frame_ptr[top] < indptr[u + 1]:
                    k = frame_ptr[top]
                    frame_ptr[top] += 1
                    v = indices[k]
                    w = match_end[v]
                    if w == -1:
                        if dist[u] + 1 == shortest:
                            chosen[top] = v
                            hit = True
                            descended = True
                            break
                    elif dist[w] == dist[u] + 1:
                        chosen[top] = v
                        top += 1
                        stack[top] = w
                        frame_ptr[top] = indptr[w]
                        descended = True
                        break
                if hit:
                    break
                if not descended:
                    dist[u] = inf
                    top -= 1
            if hit:
                for i in range(top, -1, -1):
                    match_end[chosen[i]] = stack[i]
                    match_begin[stack[i]] = chosen[i]
    return match_begin, match_end


def tarjan_scc(indptr, indices, n):
    """Strongly connected components; returns (comp_id, n_comp).

    Component ids follow Tarjan's pop order: if some edge leads from
    component a to component b (a != b) then comp_id[b] < comp_id[a],
    i.e. ascending id is a sinks-first topological order.
    """
    order = np.full(n, -1, np.int64)
    low = np.zeros(n, np.int64)
    on_stack = np.zeros(n, np.uint8)
    scc_stack = np.empty(n, np.int64)
    comp = np.full(n, -1, np.int64)
    dfs_node = np.empty(n, np.int64)
    dfs_edge = np.empty(n, np.int64)
    sp = 0
    n_comp = 0
    counter = 0
    for root in range(n):
        if order[root] != -1:
            continue
        top = 0
        dfs_node[0] = root
        dfs_edge[0] = indptr[root]
        order[root] = counter
        low[root] = counter
        counter += 1
        scc_stack[sp] = root
        sp += 1
        on_stack[root] = 1
        while top >= 0:
            u = dfs_node[top]
            if dfs_edge[top] < indptr[u + 1]:
                k = dfs_edge[top]
                dfs_edge[top] += 1
                v = indices[k]
                if order[v] == -1:
                    order[v] = counter
                    low[v] = counter
                    counter += 1
                    scc_stack[sp] = v
                    sp += 1
                    on_stack[v] = 1
                    top += 1
                    dfs_node[top] = v
                    dfs_edge[top] = indptr[v]
                elif on_stack[v] == 1 and order[v] < low[u]:
                    low[u] = order[v]
            else:
                if low[u] == order[u]:
                    while True:
                        w = scc_stack[sp - 1]
                        sp -= 1
                        on_stack[w] = 0
                        comp[w] = n_comp
                        if w == u:
                            break
                    n_comp += 1
                top -= 1
                if top >= 0 and low[u] < low[dfs_node[top]]:
                    low[dfs_node[top]] = low[u]
    return comp, n_comp


def reachable(indptr, indices, n, seeds):
    """Forward BFS closure; ``seeds`` is a uint8 mask, result likewise."""
    mask = np.zeros(n, np.uint8)
    queue = np.empty(n, np.int64)
    qt = 0
    for i in range(n):
        if seeds[i] != 0:
            mask[i] = 1
            queue[qt] = i
            qt += 1
    qh = 0
    while qh < qt:
        u = queue[qh]
        qh += 1
        for k in range(indptr[u], indptr[u + 1]):
            v = indices[k]
            if mask[v] == 0:
                mask[v] = 1
                queue[qt] = v
                qt += 1
    return mask
