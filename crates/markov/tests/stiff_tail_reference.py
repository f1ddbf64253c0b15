#!/usr/bin/env python3
"""Reference values for `stiff_tail.rs`, at 40 significant digits.

For each symmetric model (mu = 1, lambda = rho/(n-1) rounded to f64, as
`AsyncParams::symmetric` receives it) this builds the lumped
(n + 2)-state chain of paper Figure 3 (rules R1'-R4', the same chain as
`SymmetricChain::build`) and computes, with mpmath:

* E[X], the mean absorption time from S_r;
* q99, the 0.99-quantile of X (bisection on the survival function);
* F(t_i) at the 64 points t_i = 6 * E[X] * i / 64, i = 1..64, where E[X]
  is the f64 nearest the reference and t_i is rounded as f64 arithmetic
  rounds it, so the Rust gate evaluates at the very same points.

It then prints a table, `LUMPED`, of E[X] alone for the domino-regime
models whose lumped mean `domino.rs` gates (partially pivoted LU declared
the first four singular), and a second table, `DISTRIBUTION`, for the
`MODELS` plus
the domino models (9, 8) and (10, 16), and a third, `PINNED`, for the
symmetric models that `survival_reproduces_pinned_bits` pins ((3, 2),
(4, 0) and (10, 1)):

* S(t) and the density f(t) = -S'(t) at a few points: i = 1, 16, 32 and
  64 of the grid above, or t = 0.3, 3 and 30 for the pinned models;
* the tail time t_p with S(t_p) = p at p = 1e-6, 1e-9 and 1e-12 (the
  pinned n = 10 model: p = 0.2, its pinned level).

The survival function S(t) = e_0' exp(Q_TT t) 1 comes from the
eigendecomposition of Q_TT; every CDF point and every density point is
cross-checked against mpmath's `expm`. Run it with
`python3 stiff_tail_reference.py` and paste its output over the
`REFERENCE`, `DISTRIBUTION` and `PINNED` tables in `stiff_tail.rs` and the
`LUMPED` table in `domino.rs`.
"""

import mpmath as mp

mp.mp.dps = 40

MODELS = [(6, 4), (6, 8), (6, 16), (8, 8), (9, 4), (12, 2), (12, 4)]
LUMPED = [(12, 32), (14, 16), (16, 16), (20, 8), (16, 8), (9, 8), (10, 16), (11, 16), (14, 8)]
POINTS = 64
# Grid indices (1-based) of the survival and density points.
GRID_POINTS = (1, 16, 32, 64)
DEEP = ("1e-6", "1e-9", "1e-12")
# (n, rho, points or None for GRID_POINTS, tail levels)
DISTRIBUTION = [(n, rho, None, DEEP) for n, rho in MODELS + [(9, 8), (10, 16)]]
PINNED = [
    (3, 2, (0.3, 3.0, 30.0), DEEP),
    (4, 0, (0.3, 3.0, 30.0), DEEP),
    (10, 1, (0.3, 3.0, 30.0), ("0.2",)),
]


def lumped_qtt(n, mu, lam):
    """Q_TT of the lumped chain: index 0 is S_r, 1 + u is S~_u."""
    size = n + 1
    q = mp.zeros(size, size)

    def add(frm, to, rate):
        # `to is None` is the absorbing state S_{r+1}.
        if rate == 0:
            return
        q[frm, frm] -= rate
        if to is not None:
            q[frm, to] += rate

    add(0, None, n * mu)
    add(0, 1 + (n - 2), mp.mpf(n * (n - 1) // 2) * lam)
    for u in range(n):
        frm = 1 + u
        add(frm, None if u + 1 == n else frm + 1, (n - u) * mu)
        if u >= 2:
            add(frm, frm - 2, mp.mpf(u * (u - 1) // 2) * lam)
        if u >= 1:
            add(frm, frm - 1, mp.mpf(u * (n - u)) * lam)
    return q


def survival_fn(q):
    """S(t) = sum_j c_j exp(d_j t) and f(t) = -S'(t) from
    Q_TT = V diag(d) V^-1."""
    d, v = mp.eig(q)
    ones = mp.matrix([1] * q.rows)
    right = mp.lu_solve(v, ones)
    coeffs = [v[0, j] * right[j] for j in range(q.rows)]

    def s(t):
        return mp.re(mp.fsum(c * mp.exp(e * t) for c, e in zip(coeffs, d)))

    def f(t):
        return -mp.re(mp.fsum(c * e * mp.exp(e * t) for c, e in zip(coeffs, d)))

    return s, f


def model(n, rho):
    """Q_TT, E[X] and (S, f) of the symmetric model (n, rho)."""
    mu = mp.mpf(1)
    lam = mp.mpf(rho / (n - 1))  # the f64 the Rust side passes
    q = lumped_qtt(n, mu, lam)
    ex = mp.lu_solve(-q, mp.matrix([1] * q.rows))[0]
    return q, ex, survival_fn(q)


def crossing(s, level, t0):
    """The t with s(t) = level, s decreasing: bracket by doubling, then
    bisect to 40 digits."""
    lo, hi = mp.mpf(0), mp.mpf(t0)
    while s(hi) > level:
        lo, hi = hi, 2 * hi
    for _ in range(300):
        mid = (lo + hi) / 2
        if s(mid) > level:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def cross_check(q, s, f, t):
    """S(t) and f(t) against expm."""
    ones = mp.matrix([1] * q.rows)
    e = mp.expm(q * mp.mpf(t))
    direct_s = (e * ones)[0]
    direct_f = (e * (-q * ones))[0]
    tol = mp.mpf(10) ** -30
    assert abs(direct_s - s(mp.mpf(t))) < tol * max(1, abs(direct_s)), t
    assert abs(direct_f - f(mp.mpf(t))) < tol * max(1, abs(direct_f)), t


def distribution_rows(rows):
    """Prints (t, S(t), f(t)) points and (p, t_p) tail times per model."""
    for n, rho, points, levels in rows:
        q, ex, (s, f) = model(n, rho)
        if points is None:
            ex64 = float(ex)
            points = [6.0 * ex64 * i / 64.0 for i in GRID_POINTS]
        print(f"    ({n}, {rho}.0, &[")
        for t in points:
            cross_check(q, s, f, t)
            st, ft = s(mp.mpf(t)), f(mp.mpf(t))
            print(f"        ({t!r}, {float(st)!r}, {float(ft)!r}),")
        print("    ], &[")
        for p in levels:
            tp = crossing(s, mp.mpf(p), ex)
            print(f"        ({p}, {float(tp)!r}),")
        print("    ]),")


def main():
    print("// Generated by stiff_tail_reference.py (mpmath, 40 digits).")
    for n, rho in MODELS:
        q, ex, (s, f) = model(n, rho)
        ex64 = float(ex)
        ts = [6.0 * ex64 * i / 64.0 for i in range(1, POINTS + 1)]
        cdf = [1 - s(mp.mpf(t)) for t in ts]
        # Cross-check the eigendecomposition against expm at a few points.
        for t in (ts[0], ts[POINTS // 4], ts[-1]):
            cross_check(q, s, f, t)
        q99 = crossing(s, mp.mpf("0.01"), ex)
        print(f"    ({n}, {rho}.0, {ex64!r}, {float(q99)!r}, [")
        for k in range(0, POINTS, 4):
            row = ", ".join(repr(float(x)) for x in cdf[k : k + 4])
            print(f"        {row},")
        print("    ]),")
    print()
    print("// LUMPED: (n, rho, E[X])")
    for n, rho in LUMPED:
        _, ex, _ = model(n, rho)
        print(f"    ({n}, {rho}.0, {float(ex)!r}),")
    for name, rows in (("DISTRIBUTION", DISTRIBUTION), ("PINNED", PINNED)):
        print()
        print(f"// {name}: (n, rho, (t, S(t), f(t)) points, (p, t_p) levels)")
        distribution_rows(rows)


if __name__ == "__main__":
    main()
