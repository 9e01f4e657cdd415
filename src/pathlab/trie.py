"""In-memory Patricia trie over 40-nibble keys with structural measurement.

Node kinds follow the usual compressed-radix convention: a branch fans
out on one nibble (16 slots plus a value slot), an extension carries a
shared multi-nibble fragment and always points at a branch, and a leaf
holds the unconsumed key remainder. Single-child valueless branches and
extension-to-extension chains are never reachable.

All stored keys are full 40-nibble paths (20-byte addresses), so branch
value slots stay empty; the slot exists only for structural fidelity.
``Trie._walk`` is the one traversal of a whole trie: ``leaf_metrics``,
``level_census`` and :func:`check_invariants` are loops over it.

:class:`Trie` is the paper's instrument and the oracle that the sorted-LCP
kernel, :mod:`pathlab.kernel`, is tested against; no run imports it. The
kernel measures the same depths, node counts and level census without
building the trie, and gives the census in this module's format
(``CENSUS_KINDS``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .kernel import CENSUS_KINDS
from .keyspace import (
    ADDRESS_NIBBLES,
    from_nibbles,
    longest_common_prefix,
    to_nibbles,
)


@dataclass(slots=True)
class Leaf:
    path: bytes
    value: bytes


@dataclass(slots=True)
class Extension:
    path: bytes
    child: Branch


@dataclass(slots=True)
class Branch:
    children: list = field(default_factory=lambda: [None] * 16)
    value: bytes | None = None


@dataclass(frozen=True)
class LeafMetrics:
    """Per-key depth measurements.

    divergence_depth: nibbles consumed from the root to the leaf node
        (40 minus the leaf's key remainder); the quantity the analytic
        model describes.
    node_count: nodes on the root-to-leaf path, inclusive of both ends;
        always <= divergence_depth + 1 because extensions compress runs.
    """

    divergence_depth: int
    node_count: int


@dataclass
class Trie:
    """Mutable Patricia trie keyed by 20-byte addresses; single-writer."""

    root: Leaf | Extension | Branch | None = None
    key_count: int = 0

    # -- mutation ---------------------------------------------------------

    def insert(self, key: bytes, value: bytes = b"") -> None:
        path = to_nibbles(key)
        self.root, added = self._insert(self.root, path, value)
        if added:
            self.key_count += 1

    def _insert(self, node, path: bytes, value: bytes):
        if node is None:
            return Leaf(path, value), True
        kind = type(node)
        if kind is Leaf:
            c = longest_common_prefix(node.path, path)
            if c == len(path) and c == len(node.path):
                node.value = value
                return node, False
            below = Leaf(node.path[c + 1 :], node.value)
            return self._split(path, value, c, node.path[c], below), True
        if kind is Extension:
            c = longest_common_prefix(node.path, path)
            if c == len(node.path):
                node.child, added = self._insert(node.child, path[c:], value)
                return node, added
            rest = node.path[c + 1 :]
            below = Extension(rest, node.child) if rest else node.child
            return self._split(path, value, c, node.path[c], below), True
        # Branch; equal-length keys guarantee path is non-empty here.
        slot = path[0]
        node.children[slot], added = self._insert(node.children[slot], path[1:], value)
        return node, added

    @staticmethod
    def _split(path: bytes, value: bytes, c: int, slot: int, below):
        """Where ``path`` leaves a node after ``c`` shared nibbles: a branch
        holding ``below``, the node's remainder, at ``slot`` and the new
        leaf at ``path[c]``, under an extension over the shared nibbles."""
        branch = Branch()
        branch.children[slot] = below
        branch.children[path[c]] = Leaf(path[c + 1 :], value)
        return Extension(path[:c], branch) if c else branch

    def delete(self, key: bytes) -> bool:
        """Remove ``key``; returns False (trie unchanged) when absent."""
        path = to_nibbles(key)
        new_root, found = self._delete(self.root, path)
        if found:
            self.root = new_root
            self.key_count -= 1
        return found

    def _delete(self, node, path: bytes):
        if node is None:
            return None, False
        kind = type(node)
        if kind is Leaf:
            if node.path == path:
                return None, True
            return node, False
        if kind is Extension:
            n = len(node.path)
            if path[:n] != node.path:
                return node, False
            child, found = self._delete(node.child, path[n:])
            if not found:
                return node, False
            return self._attach_extension(node.path, child), True
        slot = path[0]
        child, found = self._delete(node.children[slot], path[1:])
        if not found:
            return node, False
        node.children[slot] = child
        return self._collapse_branch(node), True

    @staticmethod
    def _attach_extension(prefix: bytes, child):
        # Re-glue an extension fragment onto the (possibly collapsed) child.
        if child is None:
            return None
        kind = type(child)
        if kind is Leaf:
            return Leaf(prefix + child.path, child.value)
        if kind is Extension:
            return Extension(prefix + child.path, child.child)
        return Extension(prefix, child)

    @classmethod
    def _collapse_branch(cls, branch):
        live = [(i, c) for i, c in enumerate(branch.children) if c is not None]
        if len(live) >= 2 or branch.value is not None:
            return branch
        if not live:
            return None
        slot, child = live[0]
        return cls._attach_extension(bytes([slot]), child)

    # -- queries ----------------------------------------------------------

    def lookup(self, key: bytes):
        """Return the stored value for ``key``, or None when absent."""
        node = self.root
        path = to_nibbles(key)
        while node is not None:
            kind = type(node)
            if kind is Leaf:
                return node.value if node.path == path else None
            if kind is Extension:
                n = len(node.path)
                if path[:n] != node.path:
                    return None
                path = path[n:]
                node = node.child
                continue
            node = node.children[path[0]]
            path = path[1:]
        return None

    def _walk(self):
        """Yield ``(node, prefix, above)`` for every node, parents before
        children: the nibbles consumed on the path to the node and the
        number of nodes above it. The one traversal of the whole trie."""
        stack = [(self.root, b"", 0)] if self.root is not None else []
        while stack:
            node, prefix, above = stack.pop()
            yield node, prefix, above
            kind = type(node)
            if kind is Extension:
                stack.append((node.child, prefix + node.path, above + 1))
            elif kind is Branch:
                for i, child in enumerate(node.children):
                    if child is not None:
                        stack.append((child, prefix + bytes([i]), above + 1))

    def leaf_metrics(self) -> dict:
        """Map each stored address to its :class:`LeafMetrics`."""
        return {
            from_nibbles(prefix + node.path): LeafMetrics(len(prefix), above + 1)
            for node, prefix, above in self._walk()
            if type(node) is Leaf
        }

    def level_census(self) -> dict[int, dict[str, int]]:
        """Per nibble-depth counts of node kinds, as
        ``{depth: {"branches": …, "extensions": …, "leaves": …}}`` in
        ascending depth, depths without nodes left out.

        Depth of a node is the number of nibbles consumed on the path
        before reaching it (the root sits at depth 0).
        """
        kind_name = dict(zip((Branch, Extension, Leaf), CENSUS_KINDS))
        census: dict[int, dict[str, int]] = {}
        for node, prefix, _ in self._walk():
            level = census.setdefault(len(prefix), dict.fromkeys(CENSUS_KINDS, 0))
            level[kind_name[type(node)]] += 1
        return {d: census[d] for d in sorted(census)}


def check_invariants(trie: Trie) -> None:
    """Assert every structural invariant; used after mutations in tests."""
    leaves = 0
    for node, prefix, _ in trie._walk():
        kind = type(node)
        if kind is Leaf:
            leaves += 1
            assert len(prefix) + len(node.path) == ADDRESS_NIBBLES, "key length != 40"
        elif kind is Extension:
            assert len(node.path) >= 1, "empty extension fragment"
            assert type(node.child) is Branch, "extension child must be a branch"
        elif kind is Branch:
            assert node.value is None, "branch value slot must stay empty"
            live = [c for c in node.children if c is not None]
            assert len(live) >= 2, "degenerate single-child branch"
        else:
            raise AssertionError(f"unknown node type {kind}")
    assert leaves == trie.key_count, "key_count out of sync with leaves"
