"""Speculative decoding from LRU n-gram cache tables.

Draft trees are grown by recursive cache queries and accepted along the
greedy path of a deterministic verifier, and the dynamic table is refreshed
with a sliding window over accepted tokens.  The stand-in verifiers are
sequential, so acceptance walks only the greedy path, one call per emitted
token; a batched model pass would score ``pending ++ nodes`` at once under
an ancestor-only mask built from the tree's chains.  Output is always
token-identical to plain greedy decoding.  The package root re-exports
nothing: import each name from its module.
"""
