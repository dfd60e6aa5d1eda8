"""Brute-force reference implementations used to cross-check the fast paths.

Everything here is deliberately naive: exhaustive residue search, exhaustive
enumeration of homotopy matrices over F_p (F_2 by default), and so on.  The
point is that these stay independent of the code under test.
"""

from itertools import product

import numpy as np


def residue_solutions(a_rows, b, m):
    """All solution vectors of A x = b (mod m) by exhaustive residue search.

    Only sensible for small systems (here: m <= 50 and at most 3 unknowns).
    """
    ncols = len(a_rows[0]) if a_rows else 0
    sols = []
    for x in product(range(m), repeat=ncols):
        ok = True
        for row, rhs in zip(a_rows, b):
            if sum(c * v for c, v in zip(row, x)) % m != rhs % m:
                ok = False
                break
        if ok:
            sols.append(tuple(x))
    return sols


def coset_members(particular, generators, m):
    """Every member of particular + <generators> in (Z/m)^n, as tuples of
    residues: the closure of {particular} under adding each generator."""
    start = tuple(int(v) % m for v in particular)
    members, frontier = {start}, [start]
    while frontier:
        cur = frontier.pop()
        for g in generators:
            nxt = tuple((a + int(b)) % m for a, b in zip(cur, g))
            if nxt not in members:
                members.add(nxt)
                frontier.append(nxt)
    return members


def all_matrices_f2(rows, cols, p=2):
    """Every rows x cols matrix over F_p as a numpy int64 array."""
    if rows * cols == 0:
        yield np.zeros((rows, cols), dtype=np.int64)
        return
    for digits in product(range(p), repeat=rows * cols):
        yield np.array(digits, dtype=np.int64).reshape(rows, cols)


def homotopies_f2(x, y, p=2):
    """Every degreewise matrix tuple h with h_i : x^i -> y^(i-1) over F_p."""
    degs = sorted(set(x.degrees()) | {d + 1 for d in y.degrees()})
    slots = [(i, y.rank(i - 1), x.rank(i)) for i in degs]
    slots = [(i, r, c) for (i, r, c) in slots if r > 0 and c > 0]
    if not slots:
        yield {}
        return
    pools = [list(all_matrices_f2(r, c, p)) for (_, r, c) in slots]
    for combo in product(*pools):
        yield {i: m for (i, _, _), m in zip(slots, combo)}


def is_homotopy_witness_f2(x, y, f_comps, g_comps, h, p=2):
    """Check f - g = d h + h d entrywise mod p for components given as arrays."""
    degs = sorted(set(x.degrees()) | set(y.degrees()))
    for i in degs:
        rt, rs = y.rank(i), x.rank(i)
        if rt == 0 or rs == 0:
            continue
        diff = (f_comps.get(i, np.zeros((rt, rs), dtype=np.int64))
                - g_comps.get(i, np.zeros((rt, rs), dtype=np.int64))) % p
        acc = np.zeros((rt, rs), dtype=np.int64)
        hi = h.get(i)
        if hi is not None and y.rank(i - 1) > 0:
            dy = np.array(y.differential(i - 1).tolist(), dtype=np.int64)
            acc = (acc + dy @ hi) % p
        hn = h.get(i + 1)
        if hn is not None and x.rank(i + 1) > 0:
            dx = np.array(x.differential(i).tolist(), dtype=np.int64)
            acc = (acc + hn @ dx) % p
        if not np.array_equal(diff % p, acc % p):
            return False
    return True


def null_homotopic_maps_fp(x, y, p=2):
    """The distinct maps d h + h d over every h in homotopies_f2(x, y, p),
    each as a tuple of its reduced entries degree by degree."""
    degs = sorted(set(x.degrees()) & set(y.degrees()))
    out = set()
    for h in homotopies_f2(x, y, p):
        key = []
        for i in degs:
            acc = np.zeros((y.rank(i), x.rank(i)), dtype=np.int64)
            if i in h and y.rank(i - 1) > 0:
                acc = acc + np.array(y.differential(i - 1).tolist(), dtype=np.int64) @ h[i]
            if i + 1 in h and x.rank(i + 1) > 0:
                acc = acc + h[i + 1] @ np.array(x.differential(i).tolist(), dtype=np.int64)
            key.append(tuple((acc % p).flat))
        out.add(tuple(key))
    return out


def chain_maps_f2(x, y, p=2):
    """Every chain map x -> y over F_p, as dicts of int64 arrays."""
    degs = sorted(set(x.degrees()) & set(y.degrees()))
    slots = [(i, y.rank(i), x.rank(i)) for i in degs]
    slots = [(i, r, c) for (i, r, c) in slots if r > 0 and c > 0]
    pools = [list(all_matrices_f2(r, c, p)) for (_, r, c) in slots]
    if not slots:
        yield {}
        return
    for combo in product(*pools):
        comps = {i: m for (i, _, _), m in zip(slots, combo)}
        ok = True
        for i in sorted(set(x.degrees())):
            rs = x.rank(i)
            if rs == 0:
                continue
            rt_next = y.rank(i + 1)
            if rt_next == 0:
                continue
            dy = np.array(y.differential(i).tolist(), dtype=np.int64) if y.rank(i) else None
            dx = np.array(x.differential(i).tolist(), dtype=np.int64)
            left = np.zeros((rt_next, rs), dtype=np.int64)
            if dy is not None and i in comps:
                left = (dy @ comps[i]) % p
            right = np.zeros((rt_next, rs), dtype=np.int64)
            if (i + 1) in comps and x.rank(i + 1) > 0:
                right = (comps[i + 1] @ dx) % p
            if not np.array_equal(left, right):
                ok = False
                break
        if ok:
            yield comps
