"""Independent naive reimplementations used as oracles by the test suite.

Everything here deliberately avoids the package's own arithmetic paths:
plain-int triple loops, cofactor expansions, long division on coefficient
lists, exhaustive enumeration, and one numpy block at a time where plain
ints would be too slow.  Slow but obviously correct at desk scale.
"""

from itertools import product

import numpy as np

from geg.errors import CorruptBlockError, PaddingError


# -- matrices as plain lists of lists of ints --------------------------------

def naive_matmul(a, b, p):
    n = len(a)
    return [
        [sum(a[i][k] * b[k][j] for k in range(n)) % p for j in range(n)]
        for i in range(n)
    ]


def naive_matpow(a, e, p):
    n = len(a)
    out = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(e):
        out = naive_matmul(out, a, p)
    return out


def naive_det(a, p):
    """Cofactor expansion along the first row; fine for d <= 4."""
    n = len(a)
    if n == 1:
        return a[0][0] % p
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in a[1:]]
        sign = -1 if j % 2 else 1
        total += sign * a[0][j] * naive_det(minor, p)
    return total % p


def naive_inv(a, p):
    """Inverse by plain-int Gauss-Jordan on [A | I] mod p, or None if singular."""
    n = len(a)
    aug = [[v % p for v in row] + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot_row is None:
            return None
        aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        inv = pow(aug[col][col], p - 2, p)
        aug[col] = [v * inv % p for v in aug[col]]
        for r in range(n):
            f = aug[r][col]
            if r != col and f:
                aug[r] = [(x - f * y) % p for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def all_square_matrices(d, p):
    """Every d-by-d matrix over Z_p as a list of rows."""
    for entries in product(range(p), repeat=d * d):
        yield [list(entries[i * d : (i + 1) * d]) for i in range(d)]


# -- polynomials as plain coefficient lists (low degree first) ---------------

def poly_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def poly_mul_lists(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return poly_trim(out)


def poly_mod_lists(num, den, p):
    """Remainder of num / den by schoolbook long division."""
    num = poly_trim(num)
    den = poly_trim(den)
    assert den, "division by zero polynomial"
    lead_inv = pow(den[-1], p - 2, p) if den[-1] != 1 else 1
    while len(num) >= len(den):
        shift = len(num) - len(den)
        q = num[-1] * lead_inv % p
        for i, c in enumerate(den):
            num[shift + i] = (num[shift + i] - q * c) % p
        num = poly_trim(num)
        if not num:
            break
    return num


def all_monic_polys(d, p):
    """Every monic degree-d polynomial as a coefficient list."""
    for lower in product(range(p), repeat=d):
        yield list(lower) + [1]


def irreducible_by_trial_division(f, p):
    """True iff monic f has no monic divisor of degree 1..deg//2."""
    f = poly_trim(f)
    deg = len(f) - 1
    if deg <= 0:
        return False
    for k in range(1, deg // 2 + 1):
        for g in all_monic_polys(k, p):
            if not poly_mod_lists(list(f), g, p):
                return False
    return True


def det_by_elimination(a, p):
    """Determinant by plain-int Gaussian elimination mod p (no numpy)."""
    a = [row[:] for row in a]
    n = len(a)
    det = 1
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if a[r][col] % p), None)
        if pivot_row is None:
            return 0
        if pivot_row != col:
            a[col], a[pivot_row] = a[pivot_row], a[col]
            det = -det
        pivot = a[col][col] % p
        det = det * pivot % p
        inv = pow(pivot, p - 2, p)
        for r in range(col + 1, n):
            f = a[r][col] * inv % p
            if f:
                a[r] = [(x - f * y) % p for x, y in zip(a[r], a[col])]
    return det % p


def charpoly_by_interpolation(rows, p):
    """Characteristic polynomial det(xI - M) via Lagrange interpolation.

    Needs p > d: evaluates the degree-d characteristic polynomial at d+1
    distinct field points and interpolates.  Returns low-first coefficients.
    """
    d = len(rows)
    assert p > d
    xs = list(range(d + 1))
    ys = []
    for x in xs:
        shifted = [
            [((x if i == j else 0) - rows[i][j]) % p for j in range(d)]
            for i in range(d)
        ]
        ys.append(det_by_elimination(shifted, p))
    # Lagrange basis accumulation over Z_p
    coeffs = [0] * (d + 1)
    for i, xi in enumerate(xs):
        basis = [1]
        denom = 1
        for j, xj in enumerate(xs):
            if i == j:
                continue
            basis = poly_mul_lists(basis, [(-xj) % p, 1], p)
            denom = denom * (xi - xj) % p
        scale = ys[i] * pow(denom, p - 2, p) % p
        for k, c in enumerate(basis):
            coeffs[k] = (coeffs[k] + scale * c) % p
    return poly_trim(coeffs)


def charpoly_by_cofactor(rows, p):
    """det(xI - M) computed directly over the polynomial ring; fine for d <= 4."""
    d = len(rows)

    def det_poly(mat):
        n = len(mat)
        if n == 1:
            return mat[0][0]
        total = []
        for j in range(n):
            minor = [row[:j] + row[j + 1 :] for row in mat[1:]]
            term = poly_mul_lists(mat[0][j], det_poly(minor), p)
            if j % 2:
                term = [(-c) % p for c in term]
            total = poly_trim(
                [
                    ((total[k] if k < len(total) else 0) + (term[k] if k < len(term) else 0)) % p
                    for k in range(max(len(total), len(term)))
                ]
            )
        return total

    entries = [
        [
            poly_trim([(-rows[i][j]) % p, 1]) if i == j else poly_trim([(-rows[i][j]) % p])
            for j in range(d)
        ]
        for i in range(d)
    ]
    return det_poly(entries)


# -- plaintext block codec, one chunk and one digit at a time ----------------

def loop_encode_plaintext(data, d):
    """Digit matrices (lists of rows) of the 7-bytes-to-8-digits codec."""
    cap = 7 * d * d // 8
    pad = cap - len(data) % cap
    padded = data + bytes([pad]) * pad
    digits = []
    for i in range(0, len(padded), 7):
        value = int.from_bytes(padded[i : i + 7], "big")
        group = []
        for _ in range(8):
            group.append(value % 251)
            value //= 251
        digits += group[::-1]
    return [
        [digits[i + r * d : i + (r + 1) * d] for r in range(d)]
        for i in range(0, len(digits), d * d)
    ]


def loop_decode_plaintext(blocks):
    """Inverse of loop_encode_plaintext, raising the codec's error classes."""
    if not blocks:
        raise CorruptBlockError("no blocks to decode")
    d = len(blocks[0])
    cap = 7 * d * d // 8
    out = bytearray()
    for rows in blocks:
        if len(rows) != d:
            raise CorruptBlockError("inconsistent block dimensions")
        digits = [v for row in rows for v in row]
        for i in range(0, len(digits), 8):
            value = 0
            for digit in digits[i : i + 8]:
                value = value * 251 + digit
            if value >= 1 << 56:
                raise CorruptBlockError("digit group exceeds the packed-chunk range")
            out += value.to_bytes(7, "big")
    pad = out[-1]
    if not 1 <= pad <= cap:
        raise PaddingError(f"pad length byte {pad} outside [1, {cap}]")
    if any(b != pad for b in out[-pad:]):
        raise PaddingError("pad bytes are not uniform")
    return bytes(out[:-pad])


# -- cipher, one block at a time ----------------------------------------------

def reference_encrypt(basis, generator, peer_token, exponents, plains, rng, p=251):
    """(y1, y2) lists of int64 arrays, one block at a time by the matrix form
    y1 = J^m G J^n, y2 = H (J^m B' J^n) with J^e = P diag(λ^e) P^-1, and λ
    drawn per block from `rng` as the cipher draws it."""
    d = len(basis)
    P = np.array(basis, dtype=np.int64)
    P_inv = np.array(naive_inv(basis, p), dtype=np.int64)
    G = np.array(generator, dtype=np.int64)
    T = np.array(peer_token, dtype=np.int64)
    m, n = exponents

    def power(lam, e):
        return P * np.array([pow(v, e, p) for v in lam]) % p @ P_inv % p

    y1s, y2s = [], []
    for plain in plains:
        lam = rng.distinct_nonzero(d, p)
        j_m, j_n = power(lam, m), power(lam, n)
        y1s.append(j_m @ G % p @ j_n % p)
        y2s.append(np.array(plain, dtype=np.int64) @ (j_m @ T % p @ j_n % p) % p)
    return y1s, y2s
