"""Checks of a pathlab JSON report against computations made apart from
the program.

The trial keys are regenerated here from the master seed: the per-trial
seed with this file's own splitmix64 chain, the 20 bytes per key from the
same PCG64 stream the seed defines, and in ``crypto`` mode the address as
the last 20 bytes of Keccak-256 over the public key, with Keccak written
here in numpy from the FIPS 202 definition (round constants and rotation
offsets are derived, not copied). From the sorted keys:

* a key's divergence depth is 1 + max(nibble LCP with each neighbour);
* the lcp-interval tree (Abouelhoda, Kurtz & Ohlebusch 2004) gives the
  Patricia trie: an interval of lcp value v is a branch at nibble depth v;
  a child interval of value v' under a branch at p, or the root interval
  at depth 0, has an extension above it when v' > p + 1 (v' > 0 for the
  root); a key's node count is 1 + the branches and extensions above it.

Chi-square p-values are compared with ``scipy.stats.chi2.sf``.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

MASK64 = (1 << 64) - 1
SECP256K1_ORDER = int(
    "FFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141", 16
)
# Published vectors: private keys 1 and 2 and their Ethereum addresses,
# and Keccak-256 of the empty message.
ADDRESS_VECTORS = {
    1: "7e5f4552091a69125d5dfcb7b8c2659029395bdf",
    2: "2b5ad5c4795c026514f8317c7a215e218dccd6cf",
}
KECCAK_EMPTY = "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470"


# -- inputs ---------------------------------------------------------------


def _mix(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)


def trial_seed(master: int, size: int, trial: int) -> int:
    return _mix(_mix(_mix(master & MASK64) ^ size) ^ trial)


def _keccak_constants():
    rc, r = [], 1
    for _ in range(24):
        c = 0
        for j in range(7):
            if r & 1:
                c |= 1 << ((1 << j) - 1)
            r = ((r << 1) ^ (0x71 if r & 0x80 else 0)) & 0xFF
        rc.append(c)
    rot = [[0] * 5 for _ in range(5)]
    x, y = 1, 0
    for t in range(24):
        rot[x][y] = ((t + 1) * (t + 2) // 2) % 64
        x, y = y, (2 * x + 3 * y) % 5
    return [np.uint64(c) for c in rc], rot


def keccak256_batch(messages: np.ndarray) -> np.ndarray:
    """Keccak-256 (original padding) of each row of a (n, m) uint8 array,
    m < 136; returns (n, 32) uint8."""
    rc, rot = _keccak_constants()
    n, m = messages.shape
    block = np.zeros((n, 200), dtype=np.uint8)
    block[:, :m] = messages
    block[:, m] ^= 0x01
    block[:, 135] ^= 0x80
    lanes = block.view("<u8")  # (n, 25), lane x + 5y
    a = [[lanes[:, x + 5 * y].copy() for y in range(5)] for x in range(5)]
    one = np.uint64(1)
    rotl = lambda v, s: v if s == 0 else (v << np.uint64(s)) | (v >> np.uint64(64 - s))
    for c_round in rc:
        c = [a[x][0] ^ a[x][1] ^ a[x][2] ^ a[x][3] ^ a[x][4] for x in range(5)]
        d = [c[(x - 1) % 5] ^ ((c[(x + 1) % 5] << one) | (c[(x + 1) % 5] >> np.uint64(63)))
             for x in range(5)]
        b = [[None] * 5 for _ in range(5)]
        for x in range(5):
            for y in range(5):
                b[y][(2 * x + 3 * y) % 5] = rotl(a[x][y] ^ d[x], rot[x][y])
        a = [[b[x][y] ^ (~b[(x + 1) % 5][y] & b[(x + 2) % 5][y]) for y in range(5)]
             for x in range(5)]
        a[0][0] = a[0][0] ^ c_round
    out = np.stack([a[0][0], a[1][0], a[2][0], a[3][0]], axis=1).astype("<u8")
    return out.view(np.uint8).reshape(n, 32)


def uniform_keys(seed: int, n: int) -> np.ndarray:
    rng = np.random.default_rng(np.random.PCG64(seed))
    return rng.integers(0, 256, size=(n, 20), dtype=np.uint8)


def _public_key(scalar: int) -> bytes:
    """Uncompressed secp256k1 public key X || Y for a private scalar."""
    from cryptography.hazmat.primitives.asymmetric import ec

    pub = ec.derive_private_key(scalar, ec.SECP256K1()).public_key().public_numbers()
    return pub.x.to_bytes(32, "big") + pub.y.to_bytes(32, "big")


def _addresses(public_keys: list[bytes]) -> np.ndarray:
    rows = np.frombuffer(b"".join(public_keys), np.uint8).reshape(-1, 64)
    return keccak256_batch(rows)[:, 12:]


def crypto_keys(seed: int, n: int) -> np.ndarray:
    rng = np.random.default_rng(np.random.PCG64(seed))
    public_keys = []
    while len(public_keys) < n:
        scalar = int.from_bytes(rng.integers(0, 256, size=32, dtype=np.uint8).tobytes(), "big")
        if 1 <= scalar < SECP256K1_ORDER:
            public_keys.append(_public_key(scalar))
    return _addresses(public_keys)


# -- the trie from sorted keys --------------------------------------------


def sorted_lcp(keys: np.ndarray) -> np.ndarray:
    """Nibble LCP of each adjacent pair of the sorted keys (length n - 1)."""
    be = lambda a, t: np.ascontiguousarray(a).view(t).ravel()
    order = np.lexsort((be(keys[:, 16:], ">u4"), be(keys[:, 8:16], ">u8"),
                        be(keys[:, :8], ">u8")))
    s = keys[order]
    x = s[1:] ^ s[:-1]
    first = (x != 0).argmax(axis=1)
    top = x[np.arange(len(x)), first]
    return (2 * first + (top < 16)).astype(np.int64)


def _counts(values: np.ndarray) -> Counter:
    return Counter({int(k): int(c) for k, c in zip(*np.unique(values, return_counts=True))})


def trie_shape(lcp: np.ndarray):
    """Per-key divergence depth and node count, and the level census
    {(depth, kind): nodes}, from the sorted-key LCPs."""
    n = len(lcp) + 1
    padded = np.concatenate(([-1], lcp, [-1]))
    depth = 1 + np.maximum(padded[:-1], padded[1:])
    nodes = np.ones(n, dtype=np.int64)
    census = Counter()
    keys = np.arange(n)
    for v in np.unique(lcp):
        v = int(v)
        sep = np.flatnonzero(lcp < v)        # gaps that split v-intervals
        region = np.searchsorted(sep, np.flatnonzero(lcp == v))
        has = np.zeros(len(sep) + 1, dtype=bool)
        has[region] = True                   # regions that are v-intervals
        sep_l = np.concatenate(([-1], lcp[sep]))
        sep_r = np.concatenate((lcp[sep], [-1]))
        parent = np.maximum(sep_l, sep_r)    # -1: the root interval
        ext = has & (v > parent + 1)
        census[v, "branches"] += int(has.sum())
        for p, cnt in _counts(parent[ext]).items():
            census[p + 1, "extensions"] += cnt
        key_region = np.searchsorted(sep, keys)
        nodes += has[key_region].astype(np.int64) + ext[key_region]
    for d, cnt in _counts(depth).items():
        census[d, "leaves"] += cnt
    return depth, nodes, census


# -- the model ------------------------------------------------------------


def model_pmf(n: int, k_max: int) -> dict[int, float]:
    k = np.arange(0, k_max + 1, dtype=np.float64)
    no_match = np.exp(n * np.log1p(-(16.0 ** -k) * (15.0 / 16.0)))
    return {int(i): float(no_match[i] - no_match[i - 1]) for i in range(1, k_max + 1)}


# -- the report -----------------------------------------------------------


class Findings:
    """Failed checks, each charged to the (size, trial) operations it
    covers."""

    def __init__(self, sizes, trials):
        self.ops = [(s, t) for s in sizes for t in range(trials)]
        self.failed: set = set()
        self.messages: list[str] = []

    def fail(self, message: str, size=None, trial=None):
        self.messages.append(message)
        self.failed.update(op for op in self.ops
                           if size in (None, op[0]) and trial in (None, op[1]))

    def expect(self, ok: bool, message: str, size=None, trial=None):
        if not ok:
            self.fail(message, size, trial)


def _close(a: float, b: float, rel: float) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=1e-300)


def _bins(described: str):
    """'bins: 1-3, 4, 5-41' -> [(1, 3), (4, 4), (5, 41)]"""
    out = []
    for part in described.removeprefix("bins: ").split(", "):
        lo, _, hi = part.partition("-")
        out.append((int(lo), int(hi or lo)))
    return out


def _check_chi(f: Findings, size: int, name: str, chi: dict, hist: dict,
               pmf: dict[int, float], counts_basis: bool):
    from scipy.stats import chi2

    bins = _bins(chi["merged_bins"])
    total = sum(hist.values())
    stat = 0.0
    for lo, hi in bins:
        obs = sum(hist.get(k, 0) for k in range(lo, hi + 1))
        theo = sum(pmf.get(k, 0.0) for k in range(lo, hi + 1))
        if counts_basis:
            stat += (obs - total * theo) ** 2 / (total * theo)
        else:
            stat += sum((hist.get(k, 0) / total - pmf[k]) ** 2 / pmf[k]
                        for k in range(lo, hi + 1))
    dof = (len(bins) if counts_basis else bins[0][1] - bins[0][0] + 1) - 1
    f.expect(chi["dof"] == dof, f"size {size}: {name} dof {chi['dof']} != {dof}", size)
    f.expect(_close(chi["statistic"], stat, 1e-9),
             f"size {size}: {name} statistic {chi['statistic']!r} != {stat!r}", size)
    ref = float(chi2.sf(chi["statistic"], chi["dof"]))
    f.expect(_close(chi["p_value"], ref, 1e-8),
             f"size {size}: {name} p-value {chi['p_value']!r} != scipy {ref!r}", size)


def check_report(report: dict, config: dict) -> Findings:
    """Check one report of ``validate --format json`` for ``config``:
    sizes, trials, seed, mode, and the workload's reference tables."""
    sizes, trials = config["sizes"], config["trials"]
    f = Findings(sizes, trials)
    cfg = report["config"]
    for key in ("sizes", "trials", "mode"):
        f.expect(cfg[key] == config[key], f"report config {key} is {cfg[key]!r}")
    f.expect(cfg["master_seed"] == config["seed"], "report config master_seed differs")
    results = {r["size"]: r for r in report["results"]}
    f.expect(sorted(results) == sorted(sizes), f"report sizes {sorted(results)}")
    keygen = crypto_keys if config["mode"] == "crypto" else uniform_keys

    for size in sizes:
        r = results.get(size)
        if r is None:
            continue
        if len(r["trial_avg_divergence_depths"]) != trials:
            f.fail(f"size {size}: {len(r['trial_avg_divergence_depths'])} trial means", size)
            continue
        hist, node_hist, census = Counter(), Counter(), Counter()
        for t in range(trials):
            depth, nodes, trial_census = trie_shape(
                sorted_lcp(keygen(trial_seed(config["seed"], size, t), size)))
            counts = _counts(depth)
            mean = sum(k * c for k, c in counts.items()) / size
            f.expect(r["trial_avg_divergence_depths"][t] == mean,
                     f"size {size} trial {t}: mean depth "
                     f"{r['trial_avg_divergence_depths'][t]!r} != {mean!r}", size, t)
            hist.update(counts)
            node_hist.update(_counts(nodes))
            census.update(trial_census)

        want = size * trials
        got = {int(k): c for k, c in r["histogram"].items()}
        f.expect(sum(got.values()) == want, f"size {size}: histogram total", size)
        f.expect(sum(r["node_count_histogram"].values()) == want,
                 f"size {size}: node-count histogram total", size)
        f.expect(got == hist, f"size {size}: depth histogram {got} != {dict(hist)}", size)
        got_nodes = {int(k): c for k, c in r["node_count_histogram"].items()}
        f.expect(got_nodes == node_hist,
                 f"size {size}: node-count histogram {got_nodes} != {dict(node_hist)}", size)
        got_census = Counter({(int(d), kind): c for d, kinds in r["level_census"].items()
                              for kind, c in kinds.items() if c})
        f.expect(got_census == census,
                 f"size {size}: level census {dict(got_census)} != {dict(census)}", size)
        f.expect(sum(c for (_, kind), c in got_census.items() if kind == "leaves") == want,
                 f"size {size}: census leaves total", size)
        means = r["trial_avg_divergence_depths"]
        f.expect(_close(r["avg_divergence_depth"], sum(means) / len(means), 1e-12),
                 f"size {size}: avg_divergence_depth", size)
        f.expect(_close(r["avg_node_count"],
                        sum(k * c for k, c in node_hist.items()) / want, 1e-12),
                 f"size {size}: avg_node_count", size)

        pmf = {int(k): p for k, p in r["model_pmf"].items()}
        mine = model_pmf(size, cfg["k_max"])
        f.expect(sorted(pmf) == sorted(mine), f"size {size}: model_pmf support", size)
        f.expect(all(math.isclose(pmf.get(k, -1.0), p, rel_tol=1e-9, abs_tol=1e-15)
                     for k, p in mine.items()), f"size {size}: model_pmf values", size)
        for row in r["comparison_rows"]:
            k = row["path_length"]
            f.expect(row["theoretical_prob"] == pmf.get(k, 0.0)
                     and row["experimental_prob"] == hist.get(k, 0) / want
                     and row["difference"] == abs(row["theoretical_prob"]
                                                  - row["experimental_prob"]),
                     f"size {size}: comparison row {k}", size)
        _check_chi(f, size, "chi_square_paper", r["chi_square_paper"], hist, pmf, False)
        _check_chi(f, size, "chi_square_counts", r["chi_square_counts"], hist, pmf, True)

        for k, theo in config.get("reference_pmf", {}).get(size, {}).items():
            f.expect(f"{pmf.get(k, -1.0):.6f}" == f"{theo:.6f}",
                     f"size {size}: model_pmf[{k}] {pmf.get(k)!r} != reference {theo}",
                     size)
    return f


def check_vectors(crypto_derive, keccak256) -> list[str]:
    """Published private-key -> address vectors and the Keccak-256 digest
    of the empty message, for the program's functions and this file's."""
    problems = []
    for key, address in ADDRESS_VECTORS.items():
        if crypto_derive(key).hex() != address:
            problems.append(f"crypto_derive({key}) != 0x{address}")
        if _addresses([_public_key(key)])[0].tobytes().hex() != address:
            problems.append(f"numpy Keccak address for key {key} != 0x{address}")
    if keccak256(b"").hex() != KECCAK_EMPTY:
        problems.append("keccak256(b'') != published digest")
    if keccak256_batch(np.zeros((1, 0), np.uint8))[0].tobytes().hex() != KECCAK_EMPTY:
        problems.append("numpy Keccak of b'' != published digest")
    return problems
