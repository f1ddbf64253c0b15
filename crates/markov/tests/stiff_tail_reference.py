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

The survival function S(t) = e_0' exp(Q_TT t) 1 comes from the
eigendecomposition of Q_TT; every point is cross-checked against mpmath's
`expm`. Run it with `python3 stiff_tail_reference.py` and paste its
output over the `REFERENCE` table in `stiff_tail.rs`.
"""

import mpmath as mp

mp.mp.dps = 40

MODELS = [(6, 4), (6, 8), (6, 16), (8, 8), (9, 4), (12, 2), (12, 4)]
POINTS = 64


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
    """S(t) = sum_j c_j exp(d_j t) from Q_TT = V diag(d) V^-1."""
    d, v = mp.eig(q)
    ones = mp.matrix([1] * q.rows)
    right = mp.lu_solve(v, ones)
    coeffs = [v[0, j] * right[j] for j in range(q.rows)]

    def s(t):
        return mp.re(mp.fsum(c * mp.exp(e * t) for c, e in zip(coeffs, d)))

    return s


def main():
    print("// Generated by stiff_tail_reference.py (mpmath, 40 digits).")
    for n, rho in MODELS:
        mu = mp.mpf(1)
        lam = mp.mpf(rho / (n - 1))  # the f64 the Rust side passes
        q = lumped_qtt(n, mu, lam)
        ex = mp.lu_solve(-q, mp.matrix([1] * q.rows))[0]
        s = survival_fn(q)
        ex64 = float(ex)
        ts = [6.0 * ex64 * i / 64.0 for i in range(1, POINTS + 1)]
        cdf = [1 - s(mp.mpf(t)) for t in ts]
        # Cross-check the eigendecomposition against expm at a few points.
        for t in (ts[0], ts[POINTS // 4], ts[-1]):
            direct = (mp.expm(q * mp.mpf(t)) * mp.matrix([1] * q.rows))[0]
            assert abs(direct - s(mp.mpf(t))) < mp.mpf(10) ** -30, (n, rho, t)
        lo, hi = mp.mpf(0), mp.mpf(ex) * 100
        assert s(hi) < mp.mpf("0.01")
        for _ in range(200):
            mid = (lo + hi) / 2
            if s(mid) > mp.mpf("0.01"):
                lo = mid
            else:
                hi = mid
        q99 = (lo + hi) / 2
        print(f"    ({n}, {rho}.0, {ex64!r}, {float(q99)!r}, [")
        for k in range(0, POINTS, 4):
            row = ", ".join(repr(float(f)) for f in cdf[k : k + 4])
            print(f"        {row},")
        print("    ]),")


if __name__ == "__main__":
    main()
