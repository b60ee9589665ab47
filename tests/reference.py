"""Independent oracles for decode tests.

`reference_list_entries` re-implements the staged peel with plain Python
dict/loop bookkeeping (no shared code with the production decoder beyond
reading table state), and `LookupHash` provides fully random hashing via a
pre-drawn table, the idealized family the analysis assumes. A sketch
hashes with polynomial rows only, so `lookup_stack` turns LookupHash maps
into the polynomials that pass through them, and `lookup_sketch` builds a
sketch that hashes with those rows in place of its seed-drawn ones; the
oracle evaluates the maps themselves.
"""

from stacked_iblt.hashing import MERSENNE61, RowStack
from stacked_iblt.stacked import StackedSketch

U64 = 1 << 64


class LookupHash:
    """Fully random hash materialized as an explicit key -> bucket table."""

    def __init__(self, mapping, gamma):
        self.mapping = dict(mapping)
        self.gamma = gamma

    def eval(self, key):
        return self.mapping[int(key)]


def interpolate(mapping, k):
    """Coefficients (constant first, padded with zeros to k) of the unique
    polynomial over Z_(2^61-1) of degree < len(mapping) through its points."""
    p = MERSENNE61
    xs = list(mapping)
    if len(xs) > k:
        raise ValueError(f"{len(xs)} points need more than k={k} coefficients")
    coeffs = [0] * k
    for i, xi in enumerate(xs):
        # Lagrange basis l_i(x) = prod_(j != i) (x - x_j) / (x_i - x_j).
        basis, denom = [1], 1
        for j, xj in enumerate(xs):
            if j != i:
                basis = [(a - xj * b) % p for a, b in zip([0] + basis, basis + [0])]
                denom = denom * (xi - xj) % p
        scale = mapping[xi] * pow(denom, -1, p) % p
        for d, b in enumerate(basis):
            coeffs[d] = (coeffs[d] + scale * b) % p
    return coeffs


def lookup_stack(tables, k):
    """A RowStack whose rows reproduce the maps of LookupHash rows, table by
    table, on every mapped key."""
    rows = [h for table in tables for h in table]
    return RowStack([interpolate(h.mapping, k) for h in rows], [h.gamma for h in rows])


def lookup_sketch(params, hashes):
    """A `StackedSketch(params)` whose bucket rows are `lookup_stack(hashes,
    params.k)`. hashes[t][r] is the row of table t, row r, with its table's
    column count as gamma; anything else raises ValueError."""
    sketch = StackedSketch(params)
    if [h.gamma for table in hashes for h in table] != [
            c for r, c in sketch.layout.tables for _ in range(r)]:
        raise ValueError("hashes do not match the layout's rows and column counts")
    sketch._stack = lookup_stack(hashes, params.k)
    return sketch


def _grids_of(sketch):
    out = []
    for t in sketch.tables:
        ks = [[int(x) for x in row] for row in t.key_sum]
        vs = [[int(x) for x in row] for row in t.value_sum]
        cn = [[int(x) for x in row] for row in t.count]
        hs = None
        if t.hash_sum is not None:
            hs = [[int(x) for x in row] for row in t.hash_sum]
        out.append([ks, vs, cn, hs])
    return out


def _remove(grid, hashes, checksum, sign, key, value):
    ks, vs, cn, hs = grid
    for r, h in enumerate(hashes):
        j = h.eval(key)
        ks[r][j] = (ks[r][j] - sign * key) % U64
        vs[r][j] = (vs[r][j] - sign * value) % U64
        cn[r][j] -= sign
        if hs is not None:
            hs[r][j] = (hs[r][j] - sign * checksum.eval(key)) % checksum.modulus


def reference_list_entries(sketch, hashes):
    """(plus, minus, complete, inconsistent) via an independent staged peel.

    hashes[t][r] is the row hash of table t, row r (anything with `eval`),
    as the sketch was built over.
    """
    checksum = sketch.checksum
    grids = _grids_of(sketch)
    plus, minus = {}, {}
    inconsistent = False
    recovered = []   # (sign, key, value) in recovery order

    for i, tab in enumerate(sketch.tables):
        grid = grids[i]
        for s, k, v in recovered:
            _remove(grid, hashes[i], checksum, s, k, v)
        ks, vs, cn, hs = grid
        found_p, found_m = set(), set()
        for r in range(tab.rows):
            for c in range(tab.cols):
                if checksum is None:
                    if cn[r][c] == 1 and ks[r][c] < (1 << 61) - 1:
                        found_p.add((ks[r][c], vs[r][c]))
                elif cn[r][c] in (1, -1):
                    sgn = cn[r][c]
                    key = ks[r][c] * sgn % U64
                    val = vs[r][c] * sgn % U64
                    if key >= checksum.key_bound:
                        continue
                    if checksum.eval(key) == hs[r][c] * sgn % checksum.modulus:
                        (found_p if sgn == 1 else found_m).add((key, val))
        for k, v in sorted(found_p):
            if k in plus:
                if plus[k] != v:
                    inconsistent = True
                continue
            if minus.get(k) == v:
                inconsistent = True
                continue
            plus[k] = v
            recovered.append((1, k, v))
        for k, v in sorted(found_m):
            if k in minus:
                if minus[k] != v:
                    inconsistent = True
                continue
            if plus.get(k) == v:
                inconsistent = True
                continue
            minus[k] = v
            recovered.append((-1, k, v))

    complete = True
    fresh_grids = _grids_of(sketch)
    for i, tab in enumerate(sketch.tables):
        grid = fresh_grids[i]
        for s, k, v in recovered:
            _remove(grid, hashes[i], checksum, s, k, v)
        ks, vs, cn, hs = grid
        for r in range(tab.rows):
            for c in range(tab.cols):
                if ks[r][c] or vs[r][c] or cn[r][c] or (hs is not None and hs[r][c]):
                    complete = False
    return set(plus.items()), set(minus.items()), complete, inconsistent
