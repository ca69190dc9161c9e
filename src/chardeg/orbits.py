"""Orbit decomposition and normal-Sylow covering classification.

Vectors of a module over a prime field are packed into integers base r
(digit 0 least significant).  One set of key permutations, those of the
inverse generator images, labels every vector and walks the group's BFS
tree for the stabilizers; all per-orbit data (stabilizers, covering flags)
is computed once on the minimal-key representative and propagated, since
the defining conditions are conjugation-invariant.  Orbits with the same
stabilizer share one Subgroup and one set of covering flags.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from chardeg.fields import digits
from chardeg.kernels import orbit_stabilizers
from chardeg.groups import CapExceeded, GroupError, Subgroup, contains_normal_full_sylow
from chardeg.linalg import mat_inv
from chardeg.modules import GModule, ModuleError
from chardeg.numtheory import is_prime

ORBIT_SPACE_CAP = 3**12


@dataclass(frozen=True)
class Orbit:
    rep_key: int
    rep: tuple[int, ...]
    size: int
    stab_order: int
    flags: dict
    stab: Subgroup = field(compare=False, repr=False)

    def to_json(self) -> dict:
        return {
            "rep": list(self.rep),
            "size": self.size,
            "stab_order": self.stab_order,
            "flags": dict(self.flags),
        }


@dataclass(frozen=True)
class OrbitReport:
    module: GModule
    orbits: tuple[Orbit, ...]
    summary: dict

    def sizes(self) -> list[int]:
        return sorted(o.size for o in self.orbits)

    def to_json(self) -> dict:
        return {
            "space_order": self.module.field.p**self.module.dim,
            "orbits": [o.to_json() for o in self.orbits],
            "summary": dict(self.summary),
        }


def unpack_key(key: int, r: int, dim: int) -> tuple[int, ...]:
    return tuple(digits(key, r, dim).tolist())


def stabilizer(m: GModule, v) -> Subgroup:
    """{g : image(g) v = v} as a subgroup of the acting group."""
    vec = np.asarray(v, dtype=np.int64)
    imgs = m.element_images
    fixed = ((imgs @ vec) % m.field.p == vec).all(axis=1)
    return Subgroup(m.group, tuple(int(i) for i in np.flatnonzero(fixed)))


def orbit_decompose(m: GModule) -> OrbitReport:
    """Complete orbit decomposition with stabilizer orders, no flags."""
    return _decompose(m, {})


def _decompose(m: GModule, sylow_primes: dict[str, int]) -> OrbitReport:
    r = m.field.p
    if r**m.dim > ORBIT_SPACE_CAP:
        raise CapExceeded(f"vector space of order {r}**{m.dim} exceeds {ORBIT_SPACE_CAP}")
    group = m.group
    inv_gens = np.stack([mat_inv(m.field, g) for g in m.gen_images])
    reps, sizes, members = orbit_stabilizers(inv_gens, r, m.dim, group.parent, group.parent_gen)
    orbits = []
    # member bytes -> (stabilizer, flags): one Subgroup and one test per prime
    # for each distinct stabilizer
    distinct: dict[bytes, tuple[Subgroup, dict]] = {}
    vecs = digits(reps, r, m.dim).tolist()
    for rep_key, size, mem, vec in zip(reps.tolist(), sizes.tolist(), members, vecs):
        key = mem.tobytes()
        if key not in distinct:
            stab = Subgroup(group, tuple(mem.tolist()))
            flags = {name: contains_normal_full_sylow(group, stab, prime) for name, prime in sylow_primes.items()}
            distinct[key] = stab, flags
        stab, flags = distinct[key]
        if stab.order * size != group.order:
            raise GroupError("orbit-stabilizer identity failed")
        orbits.append(Orbit(rep_key, tuple(vec), size, stab.order, dict(flags), stab))
    summary: dict = {"orbit_count": len(orbits), "sizes": sorted(s for s in sizes.tolist())}
    if sylow_primes:

        def covered(*names) -> int:
            """Number of nonzero vectors whose stabilizer has any of the named flags."""
            return sum(o.size for o in orbits if o.rep_key != 0 and any(o.flags[n] for n in names))

        total_nonzero = r**m.dim - 1
        counts = {name: covered(name) for name in sylow_primes}
        covers = {f"{a}+{b}": covered(a, b) == total_nonzero for a, b in itertools.combinations(sylow_primes, 2)}
        covers.update((name, counts[name] == total_nonzero) for name in sylow_primes)
        summary["set_primes"] = dict(sylow_primes)
        summary["nonzero_counts"] = counts
        summary["covers_nonzero"] = covers
        summary["equalities"] = sorted(k for k, v in covers.items() if v)
    return OrbitReport(m, tuple(orbits), summary)


def covering_classify(m: GModule, r: int | None = None, s: int | None = None) -> OrbitReport:
    """Flag orbits by normal full Sylow subgroups in their stabilizers.

    Flag "minus" uses the odd prime r dividing q - 1, "plus" the odd
    prime s dividing q + 1, "char" the defining characteristic.  The
    summary records which unions of the flagged sets cover the nonzero
    vectors.
    """
    q = m.group.field.order
    t = m.group.field.p
    primes = {}
    if r is not None:
        if r % 2 == 0 or (q - 1) % r != 0 or not is_prime(r):
            raise ModuleError(f"r={r} must be an odd prime divisor of q-1={q-1}")
        primes["minus"] = r
    if s is not None:
        if s % 2 == 0 or (q + 1) % s != 0 or not is_prime(s):
            raise ModuleError(f"s={s} must be an odd prime divisor of q+1={q+1}")
        primes["plus"] = s
    primes["char"] = t
    return _decompose(m, primes)


def sylow_centralizer_condition(report: OrbitReport, q: int) -> bool:
    """True iff q divides the index of the action kernel of the report's
    module and every nonzero vector's stabilizer contains a normal full
    Sylow q-subgroup; each distinct stabilizer is tested once."""
    m = report.module
    if (m.group.order // len(m.kernel_indices)) % q != 0:
        return False
    stabs = dict.fromkeys(o.stab for o in report.orbits if o.rep_key != 0)
    return all(contains_normal_full_sylow(m.group, stab, q) for stab in stabs)
