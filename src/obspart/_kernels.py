"""Kernels for the hot graph loops: every interpreted loop over a graph,
the matching, the components and the multi-source search.

A graph is passed as ``rows``: one sequence of neighbor ids per node,
sorted ascending, which makes matching tie-breaks deterministic.  The
kernels loop over a system's kept tuples of plain ints as they are, with
no copy and no numpy scalar boxed per access.  No kernel writes to its
arguments, and each one documents the types it returns.
"""


def hopcroft_karp(rows, n_end, start=None):
    """Maximum bipartite matching; returns (match_begin, match_end).

    ``rows[u]`` lists the end-node ids adjacent to begin node u, of which
    there are ``len(rows)``; ends are 0..n_end-1.  Both results are
    tuples of ints, -1 at unmatched nodes.  Begin nodes are scanned in
    ascending order and rows are pre-sorted, so the matching is
    deterministic.

    ``start``, when given, is the ``match_begin`` of a matching on this
    graph to augment from instead of the empty one: any matching will do
    (Hopcroft & Karp 1973), and one close to maximum leaves few phases.
    It is copied, never written.

    From the empty matching the first phase is a greedy pass, each begin
    in ascending order taking its lowest free end, which is all that
    phase's DFS could do.  From a ``start`` the first phase is a full one.

    In each BFS every begin reached keeps the free root that reached it
    first.  A root is live when its region scans a free end, when the BFS
    stops at the shortest length before scanning all of the region, or
    when the region reaches a begin of another root's (both are then
    live).  A root that is not live has a closed region, and once a phase
    has found an augmenting length such roots leave the search for good:

    Lemma.  If every end next to a free root's alternating region R is
    matched into R, no augmenting path ever enters R, so the root stays free.

    Nothing a dropped root reaches lies on an augmenting path, so the
    distance labels outside its region, the shortest length and the paths
    the DFS takes are those of the search from every free begin, and the
    matching is the same bit for bit.
    """
    n_begin = len(rows)
    inf = n_begin + n_end + 1
    match_end = [-1] * n_end
    if start is None:
        match_begin = [-1] * n_begin
        for u, row in enumerate(rows):
            for v in row:
                if match_end[v] == -1:
                    match_begin[u] = v
                    match_end[v] = u
                    break
    else:
        match_begin = list(start)
        for u, e in enumerate(match_begin):
            if e != -1:
                match_end[e] = u
    # Begins only ever gain a match, and within a phase only as the root
    # of their own search, so the free ones form a shrinking list that
    # keeps the ascending scan order.
    free = [u for u in range(n_begin) if match_begin[u] == -1]

    while True:
        # BFS phase, one layer of begins at a time: the first layer to
        # scan a free end gives the shortest augmenting length.  ``owner``
        # is the root whose region a begin joined, ``live`` the roots
        # that may still augment.
        dist = [inf] * n_begin
        owner = [-1] * n_begin
        live = [False] * n_begin
        for u in free:
            dist[u] = 0
            owner[u] = u
        layer = free
        d = shortest = 0
        while layer and not shortest:
            d += 1
            reached = []
            for u in layer:
                root = owner[u]
                for v in rows[u]:
                    w = match_end[v]
                    if w == -1:
                        shortest = d
                        live[root] = True
                        continue
                    other = owner[w]
                    if other == -1:
                        owner[w] = root
                        dist[w] = d
                        reached.append(w)
                    elif other != root:
                        live[root] = live[other] = True
            layer = reached
        if not shortest:
            break
        for u in layer:  # reached at the shortest length, never scanned
            live[owner[u]] = True
        free = [u for u in free if live[u]]

        # DFS phase: augment along length-`shortest` paths only.  ``path``
        # holds the begins from the free root down, ``ends[i]`` the end
        # that leads from path[i] on, ``scans[i]`` an iterator over the
        # rest of path[i]'s row.
        for s in free:
            path = [s]
            scans = [iter(rows[s])]
            ends = []
            while path:
                u = path[-1]
                d = dist[u] + 1
                for v in scans[-1]:
                    w = match_end[v]
                    if w == -1:
                        if d == shortest:
                            break
                    elif dist[w] == d:
                        break
                else:
                    # dead end: no shortest path runs through u this phase
                    dist[u] = inf
                    path.pop()
                    scans.pop()
                    if ends:
                        ends.pop()
                    continue
                ends.append(v)
                if w == -1:
                    for b, e in zip(path, ends):
                        match_begin[b] = e
                        match_end[e] = b
                    break
                path.append(w)
                scans.append(iter(rows[w]))
        free = [u for u in free if match_begin[u] == -1]
    return tuple(match_begin), tuple(match_end)


def tarjan_scc(rows):
    """Strongly connected components; returns (comp_id, n_comp, exits).

    Every id in ``rows`` is a node, so a system passes its state arcs
    only.  ``comp_id`` is a tuple of ints, one per node, and ``n_comp`` an
    int.  Component ids follow Tarjan's pop order: if some edge leads from
    component a to component b (a != b) then comp_id[b] < comp_id[a],
    i.e. ascending id is a sinks-first topological order.  ``exits`` is
    the set of ids of the components with an arc into another one: an arc
    into a node whose component is popped, a tree arc included, leaves the
    component of its source, and an arc into a node on the stack stays in it.

    A node's index is its position on the stack.  Only nodes on the stack
    are compared, and they lie on it in visit order, so positions serve as
    visit numbers and a component is the stack above its root's position.
    """
    n = len(rows)
    index = [-1] * n
    low = [0] * n
    comp = [-1] * n
    sources = []  # nodes with an arc out of their component
    n_comp = 0
    for root in range(n):
        if index[root] != -1:
            continue
        index[root] = low[root] = 0
        stack = [root]  # every component is popped before the next root
        nodes = [root]  # the DFS path, with an iterator over the rest of each row
        scans = [iter(rows[root])]
        while nodes:
            u = nodes[-1]
            for v in scans[-1]:
                if index[v] == -1:
                    break
                if comp[v] != -1:
                    sources.append(u)
                elif index[v] < low[u]:
                    low[u] = index[v]
            else:
                nodes.pop()
                scans.pop()
                if low[u] == index[u]:
                    for w in stack[low[u]:]:
                        comp[w] = n_comp
                    del stack[low[u]:]
                    n_comp += 1
                    if nodes:
                        sources.append(nodes[-1])
                elif low[u] < low[nodes[-1]]:
                    low[nodes[-1]] = low[u]
                continue
            index[v] = low[v] = len(stack)
            stack.append(v)
            nodes.append(v)
            scans.append(iter(rows[v]))
    return tuple(comp), n_comp, {comp[u] for u in sources}


def search(rows, owner, via=None):
    """Breadth-first search from every labelled node at once.

    ``owner`` holds one int label per node, -1 where no search starts; it
    is copied, never written.  From node u the search steps to every node
    in ``rows[u]``, or, with ``via``, to ``via[e]`` for every e in
    ``rows[u]``.  A node takes the label of the node that reaches it
    first.  Returns the labels as a list and the sorted (lower, higher)
    label pairs whose searches reach a common node.
    """
    owner = list(owner)
    queue = [u for u, label in enumerate(owner) if label >= 0]
    clashes = set()
    for u in queue:  # the loop also visits the nodes appended below
        mine = owner[u]
        for w in rows[u] if via is None else map(via.__getitem__, rows[u]):
            theirs = owner[w]
            if theirs < 0:
                owner[w] = mine
                queue.append(w)
            elif theirs != mine:
                clashes.add((min(mine, theirs), max(mine, theirs)))
    return owner, sorted(clashes)
