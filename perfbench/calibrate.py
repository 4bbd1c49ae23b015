"""A fixed reference computation, timed between CLI samples to gauge machine speed.

    python3 perfbench/calibrate.py

It imports numpy but not sl2hyper, and does about 0.3 s of the same kind of
work as the CLI's inner loops: forward substitution through a Pascal matrix
mod p with small numpy dot products, and sparse row reduction over F_p in
Python dicts.  It never changes with the program, so the ratio of a CLI
sample's wall time to this process's wall time cancels the slow drift of
this machine's speed (tens of percent over minutes on a shared host).
"""

import numpy as np

P, Q, VECTORS = 3, 27, 1500


def main() -> int:
    pas = np.zeros((Q, Q), dtype=np.int64)
    pas[:, 0] = 1
    for w in range(1, Q):
        pas[w, 1:] = (pas[w - 1, 1:] + pas[w - 1, :-1]) % P
    shift = (np.arange(Q) + 5) % Q
    rows: dict[int, dict[int, int]] = {}
    for f in np.random.default_rng(0).integers(0, P, (VECTORS, Q)):
        c = np.zeros(Q, dtype=np.int64)
        for n in range(Q):
            c[n] = (int(f[n]) - int(pas[n, :n] @ c[:n])) % P
        h = c[shift] * f % P
        row = {i: int(v) for i, v in enumerate(h) if v}
        while row:
            piv = min(row)
            if piv not in rows:
                inv = pow(row[piv], P - 2, P)
                rows[piv] = {k: v * inv % P for k, v in row.items()}
                break
            fac = row[piv]
            for k, v in rows[piv].items():
                nv = (row.get(k, 0) - fac * v) % P
                if nv:
                    row[k] = nv
                else:
                    row.pop(k, None)
    return 0 if len(rows) == Q else 1


if __name__ == "__main__":
    raise SystemExit(main())
