"""Summary-prefixed knowledge libraries with two-tier retrieval.

The package covers the full loop: a JSON library format whose first key
is a navigational summary block, a prefix reader that loads only that
block, guidance-condition construction, distractor-based library
expansion, deterministic (or remote) routing and selection, and a
scoring harness for routing benchmarks.  The API is the modules
themselves (``sdsr.library``, ``sdsr.prefix``, ``sdsr.engine``, ...);
this namespace re-exports nothing.
"""
