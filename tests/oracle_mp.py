"""High-precision references for the kicked, frame-averaged spin chains.

Everything here is built from literal Pauli matrices in mpmath, with no
shared code with the package under test: the Hamiltonian from Kronecker
products, the Gibbs state and rho^{-1/2} from a high-precision
eigendecomposition of H, the spatial averages as explicit weighted sums over
translates (permuting basis labels), the temporal averages from the
Lorentzian 1 / (1 + i (E_m - E_n) tau) on the eigenbasis of H (and, at
tau = inf, the projection onto the degenerate eigenspaces of H), and the
Belavkin-Staszewski relative entropy from its definition

    S_BS(sigma|rho) = tr[rho X log X],   X = rho^{-1/2} sigma rho^{-1/2}.

X is also the averaged conjugated kick ME, because every frame average
commutes with functions of H; its spectrum gives ||ME - 1||_op.  The chains
are periodic with the bonds (i, i+1 mod N), which needs N >= 3.

At 30 or 40 digits the rounding of every stage sits far below float64, so
the results are references for every route of the package.  Run as a script
to print the XXZ reference value.
"""
import math

from mpmath import mp

DIGITS = 40
CHANNEL_DIGITS = 30


def _kron(a, b):
    out = mp.matrix(a.rows * b.rows, a.cols * b.cols)
    for i in range(a.rows):
        for j in range(a.cols):
            for k in range(b.rows):
                for m in range(b.cols):
                    out[i * b.rows + k, j * b.cols + m] = a[i, j] * b[k, m]
    return out


def _embed(n, factors):
    """Kronecker chain with factors[site] on the given sites, 1 elsewhere;
    site 0 is the leftmost factor."""
    out = factors.get(0, mp.eye(2))
    for site in range(1, n):
        out = _kron(out, factors.get(site, mp.eye(2)))
    return out


def _shift(index, n):
    """Basis label of a product state after moving every site one step."""
    bits = [(index >> (n - 1 - site)) & 1 for site in range(n)]
    moved = bits[-1:] + bits[:-1]
    return sum(b << (n - 1 - site) for site, b in enumerate(moved))


def _function_of(values, vectors, f):
    """V f(Lambda) V^dag."""
    return vectors * mp.diag([f(x) for x in values]) * vectors.H


def _paulis():
    return (
        mp.matrix([[0, 1], [1, 0]]),
        mp.matrix([[0, -1j], [1j, 0]]),
        mp.matrix([[1, 0], [0, -1]]),
    )


def chain_hamiltonian(model, couplings, n):
    """transverse-field-ising: -J sum Z_i Z_{i+1} - g sum X_i;
    heisenberg-xxz: J sum (X_i X_{i+1} + Y_i Y_{i+1} + delta Z_i Z_{i+1})."""
    x, y, z = _paulis()
    dim = 2**n
    h = mp.matrix(dim, dim)
    for site in range(n):
        bond = (site, (site + 1) % n)
        if model == "transverse-field-ising":
            j, g = (mp.mpf(couplings[k]) for k in ("J", "g"))
            h += -j * _embed(n, dict.fromkeys(bond, z))
            h += -g * _embed(n, {site: x})
        elif model == "heisenberg-xxz":
            j, delta = (mp.mpf(couplings[k]) for k in ("J", "delta"))
            h += j * _embed(n, dict.fromkeys(bond, x))
            h += j * _embed(n, dict.fromkeys(bond, y))
            h += j * delta * _embed(n, dict.fromkeys(bond, z))
        else:
            raise ValueError(f"no reference for model {model!r}")
    return h


class KickedChain:
    """H, its eigenbasis, rho, rho^{-1/2} and rho' = U rho U^dag for an X
    kick exp(-i s X) at site 0, at the working precision of the caller."""

    def __init__(self, model, couplings, n, beta, strength):
        x, _, _ = _paulis()
        beta, strength = mp.mpf(beta), mp.mpf(strength)
        self.n = n
        self.dim = 2**n
        self.energies, self.vectors = mp.eigh(chain_hamiltonian(model, couplings, n))
        ground = min(self.energies)
        weights = [mp.exp(-beta * (e - ground)) for e in self.energies]
        populations = [w / mp.fsum(weights) for w in weights]
        self.rho = _function_of(populations, self.vectors, lambda p: p)
        self.inv_sqrt = _function_of(populations, self.vectors, lambda p: 1 / mp.sqrt(p))
        # exp(-i s X) = cos s - i sin s X, since X^2 = 1
        kick = _embed(n, {0: mp.cos(strength) * mp.eye(2) - 1j * mp.sin(strength) * x})
        self.rho_prime = kick * self.rho * kick.H

    def translate_average(self, a, weights):
        """sum_n weights[n] T^n a T^-n, by moving basis labels."""
        out = mp.matrix(self.dim, self.dim)
        labels = list(range(self.dim))
        for w in weights:
            for i in range(self.dim):
                for j in range(self.dim):
                    out[labels[i], labels[j]] += w * a[i, j]
            labels = [_shift(label, self.n) for label in labels]
        return out

    def temporal_average(self, a, tau):
        """Entry (m, n) of the energy-basis matrix times 1 / (1 + i (E_m - E_n) tau);
        tau = inf keeps the degenerate blocks only."""
        q = self.vectors
        b = q.H * a * q
        width = self.energies[-1] - self.energies[0]
        for m in range(self.dim):
            for k in range(self.dim):
                gap = self.energies[m] - self.energies[k]
                if math.isinf(tau):
                    b[m, k] = b[m, k] if abs(gap) < mp.mpf(10) ** -20 * width else 0
                else:
                    b[m, k] = b[m, k] / (1 + 1j * gap * mp.mpf(tau))
        return q * b * q.H

    def averaged(self, kind, parameter=None):
        """M rho' for a channel given as the package's kind and parameter."""
        n = self.n
        if kind == "uniform-spatial":
            return self.translate_average(self.rho_prime, [mp.mpf(1) / n] * n)
        if kind == "weighted-spatial":
            raw = [mp.exp(-mp.mpf(min(k, n - k)) / mp.mpf(parameter)) for k in range(n)]
            return self.translate_average(self.rho_prime, [w / mp.fsum(raw) for w in raw])
        if kind == "temporal":
            return self.temporal_average(self.rho_prime, parameter)
        raise ValueError(f"unknown channel {kind!r}")

    def bs_spectrum(self, sigma):
        """S_BS(sigma|rho) and the spectrum of X = rho^{-1/2} sigma rho^{-1/2}."""
        x = self.inv_sqrt * sigma * self.inv_sqrt
        values, vectors = mp.eigh((x + x.H) / 2)
        rho_vectors = self.rho * vectors
        weights = [
            mp.re(mp.fsum(mp.conj(vectors[i, k]) * rho_vectors[i, k] for i in range(self.dim)))
            for k in range(self.dim)
        ]
        return mp.fsum(v * mp.log(v) * w for v, w in zip(values, weights)), values


def channel_reference(model, couplings, n, beta, strength, channels):
    """For each (kind, parameter) in channels: S(M rho'), S_BS(M rho'|rho) and
    the spectrum of ME, as floats, computed at CHANNEL_DIGITS digits."""
    out = {}
    with mp.workdps(CHANNEL_DIGITS):
        chain = KickedChain(model, couplings, n, beta, strength)
        for kind, parameter in channels:
            sigma = chain.averaged(kind, parameter)
            sigma = (sigma + sigma.H) / 2
            entropy = -mp.fsum(p * mp.log(p) for p in mp.eigh(sigma, eigvals_only=True) if p > 0)
            bs, spectrum = chain.bs_spectrum(sigma)
            out[(kind, parameter)] = (float(entropy), float(bs), [float(v) for v in spectrum])
    return out


def xxz_bs_reference(n=4, j=1.0, delta=0.5, beta=2.0, strength=0.7):
    """S_BS(M rho'|rho) for the XXZ chain, X kick at site 0, uniform frame, at
    DIGITS digits."""
    with mp.workdps(DIGITS):
        chain = KickedChain("heisenberg-xxz", {"J": j, "delta": delta}, n, beta, strength)
        value, _ = chain.bs_spectrum(chain.averaged("uniform-spatial"))
        return float(value)


if __name__ == "__main__":
    print(f"S_BS(M rho'|rho), XXZ N=4, beta=2: {xxz_bs_reference()!r}")
