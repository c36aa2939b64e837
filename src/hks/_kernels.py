"""Hot loops behind the multi-pattern automaton.

Everything here operates on flat numpy arrays so the same code runs
either JIT-compiled through numba (when installed, the default) or as
plain Python (set HKS_NO_JIT=1, or run without numba). Both paths are
the same functions and produce identical results.

Automaton layout
----------------
Nodes are integers; node 0 is the root. Per-node arrays:

    edge_start[u]..edge_start[u+1]   CSR slice of u's outgoing edges,
                                     sorted by codepoint label
    fail[u]                          longest proper suffix node
    out_link[u]                      nearest fail-ancestor that ends a
                                     pattern (0 = none)
    term[u]                          pattern id ending at u, or -1

Trie construction exploits that patterns arrive sorted: each pattern
shares a prefix with its predecessor and everything past that prefix is
guaranteed new, so nodes are emitted in one linear pass with no hashing.
"""

from __future__ import annotations

import os

import numpy as np


def _identity(fn):
    return fn


if os.environ.get("HKS_NO_JIT"):
    _jit = _identity
else:
    try:
        from numba import njit

        def _jit(fn):
            return njit(cache=True, nogil=True)(fn)
    except ImportError:  # pragma: no cover - numba present in normal installs
        _jit = _identity


@_jit
def build_trie(pat_buf, pat_offsets, parent, label, term, stack):
    """Linear-pass trie build over sorted, deduplicated patterns.

    pat_buf holds all patterns concatenated (uint32 codepoints);
    pat_offsets[i]..pat_offsets[i+1] is pattern i. parent/label/term are
    preallocated to the worst case (one node per input codepoint, +1 for
    the root); stack must hold max-pattern-length + 1 entries.
    Returns the number of nodes actually used.
    """
    n_pat = pat_offsets.shape[0] - 1
    stack[0] = 0
    n_nodes = 1
    prev_start = np.int64(0)
    prev_len = np.int64(0)
    for p in range(n_pat):
        s = pat_offsets[p]
        plen = pat_offsets[p + 1] - s
        lcp = np.int64(0)
        m = min(plen, prev_len)
        while lcp < m and pat_buf[s + lcp] == pat_buf[prev_start + lcp]:
            lcp += 1
        for d in range(lcp, plen):
            nid = n_nodes
            n_nodes += 1
            parent[nid] = stack[d]
            label[nid] = pat_buf[s + d]
            stack[d + 1] = nid
        term[stack[plen]] = p
        prev_start = s
        prev_len = plen
    return n_nodes


@_jit
def _child(edge_start, edge_label, edge_child, state, cp):
    """Binary search for state's outgoing edge labeled cp; -1 if absent."""
    lo = edge_start[state]
    hi = edge_start[state + 1]
    while lo < hi:
        mid = (lo + hi) // 2
        if edge_label[mid] < cp:
            lo = mid + 1
        else:
            hi = mid
    if lo < edge_start[state + 1] and edge_label[lo] == cp:
        return edge_child[lo]
    return np.int32(-1)


@_jit
def build_links(edge_start, edge_label, edge_child, term, fail, out_link):
    """BFS over the trie computing failure and output links in place."""
    n_nodes = fail.shape[0]
    queue = np.empty(n_nodes, dtype=np.int32)
    head = 0
    tail = 0
    for e in range(edge_start[0], edge_start[1]):
        v = edge_child[e]
        fail[v] = 0
        out_link[v] = 0
        queue[tail] = v
        tail += 1
    while head < tail:
        u = queue[head]
        head += 1
        for e in range(edge_start[u], edge_start[u + 1]):
            a = edge_label[e]
            v = edge_child[e]
            f = fail[u]
            while True:
                w = _child(edge_start, edge_label, edge_child, f, a)
                if w >= 0 or f == 0:
                    break
                f = fail[f]
            fail[v] = w if w >= 0 else 0
            fv = fail[v]
            out_link[v] = fv if term[fv] >= 0 else out_link[fv]
            queue[tail] = v
            tail += 1


@_jit
def scan_count(text, edge_start, edge_label, edge_child, fail, out_link, term,
               pat_domain, seen, epoch, counts):
    """Single-pass scan aggregating occurrence counts for one document.

    counts (int64[12]) receives: [0] n_k, [1] n_distinct,
    [2:7] per-domain occurrences, [7:12] per-domain distinct counts.
    `seen` tracks distinctness with an epoch stamp per pattern id, so it
    never needs clearing between documents. Every pattern matches as a
    raw substring; word-bounded patterns are matched outside the
    automaton.
    """
    n = text.shape[0]
    state = np.int32(0)
    for i in range(n):
        cp = text[i]
        t = np.int32(-1)
        while True:
            t = _child(edge_start, edge_label, edge_child, state, cp)
            if t >= 0:
                state = t
                break
            if state == 0:
                break
            state = fail[state]
        if t < 0:
            state = np.int32(0)
            continue
        v = state
        while v != 0:
            pid = term[v]
            if pid >= 0:
                dom = pat_domain[pid]
                counts[0] += 1
                counts[2 + dom] += 1
                if seen[pid] != epoch:
                    seen[pid] = epoch
                    counts[1] += 1
                    counts[7 + dom] += 1
            v = out_link[v]


@_jit
def scan_collect(text, edge_start, edge_label, edge_child, fail, out_link, term,
                 out_pid, out_end):
    """Like scan_count but materializes (pattern id, end index) pairs.

    Fills out_pid/out_end up to their capacity and returns the total
    number of occurrences; the caller retries with a larger buffer when
    the return value exceeds capacity.
    """
    n = text.shape[0]
    cap = out_pid.shape[0]
    found = np.int64(0)
    state = np.int32(0)
    for i in range(n):
        cp = text[i]
        t = np.int32(-1)
        while True:
            t = _child(edge_start, edge_label, edge_child, state, cp)
            if t >= 0:
                state = t
                break
            if state == 0:
                break
            state = fail[state]
        if t < 0:
            state = np.int32(0)
            continue
        v = state
        while v != 0:
            pid = term[v]
            if pid >= 0:
                if found < cap:
                    out_pid[found] = pid
                    out_end[found] = i
                found += 1
            v = out_link[v]
    return found
