"""Speculative decoding from LRU n-gram cache tables.

Draft trees are grown by recursive cache queries and accepted along the
greedy path of a deterministic verifier, and the dynamic table is refreshed
with a sliding window over accepted tokens.  The stand-in verifiers are
sequential, so acceptance walks only the greedy path;
``draft_tree.attention_mask`` is the ancestor-only mask a batched model pass
over ``pending ++ nodes`` would use.  Output is always token-identical to
plain greedy decoding.  The package root re-exports nothing: import each
name from its module.
"""
