"""Tiny exact linear algebra over a field object (rows are element lists)."""

from __future__ import annotations


def rref(rows, F):
    """Reduced row echelon form; returns (rref_rows, pivot_columns)."""
    mat = [list(r) for r in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if not F.is_zero(mat[i][c])), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = F.inv(mat[r][c])
        mat[r] = [F.mul(x, inv) for x in mat[r]]
        for i in range(nrows):
            if i != r and not F.is_zero(mat[i][c]):
                f = mat[i][c]
                mat[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return mat, pivots


def rank(rows, F):
    _, pivots = rref(rows, F)
    return len(pivots)


def kernel_basis(rows, F):
    """Basis of the right kernel of the matrix."""
    mat, pivots = rref(rows, F)
    ncols = len(rows[0])
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [F.zero] * ncols
        v[fc] = F.one
        for r, pc in enumerate(pivots):
            v[pc] = F.neg(mat[r][fc])
        basis.append(v)
    return basis


def solve(rows, rhs, F):
    """One solution of rows * x = rhs, or None if inconsistent."""
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    mat, pivots = rref(aug, F)
    ncols = len(rows[0])
    for row in mat:
        if all(F.is_zero(x) for x in row[:ncols]) and not F.is_zero(row[ncols]):
            return None
    x = [F.zero] * ncols
    for r, pc in enumerate(pivots):
        if pc < ncols:
            x[pc] = mat[r][ncols]
    return x


def combine(coeffs, rows, F):
    """The linear combination sum_j coeffs[j] * rows[j] of rows over F."""
    out = [F.zero] * len(rows[0])
    for c, row in zip(coeffs, rows):
        out = [F.add(acc, F.mul(c, x)) for acc, x in zip(out, row)]
    return out


def dot(u, v, F):
    """sum_i u[i] * v[i] over F."""
    acc = F.zero
    for a, b in zip(u, v):
        acc = F.add(acc, F.mul(a, b))
    return acc
