#!/usr/bin/env python3
"""Pipeline strategy on the declarative API: streaming word count.

One pipeline stage per text-processing role (normalise → tokenise →
filter → count); document batches stream through the stages and the
final Counters merge.  ``app.map`` then submits one call per document
and hands back one future per call — the futures-first face of the same
stack — and the per-document counts recombine to the whole.

Run:  python examples/wordcount_pipeline.py
"""

from collections import Counter

from repro.api import ParallelApp
from repro.apps.wordcount import TextPipeline, wordcount_spec

DOCUMENTS = [
    "the quick brown fox JUMPS over the lazy dog",
    "The dog barks; the fox runs!",
    "quick foxes and lazy dogs do not mix",
    "A dog, a fox, and a very lazy afternoon.",
]


def main():
    print("sequential word count (core functionality)...")
    expected = TextPipeline().process(list(DOCUMENTS))

    print("pipeline word count (one stage per role, thread backend)...")
    app = ParallelApp(wordcount_spec(batches=2, backend="thread"))
    print(f"  {app.describe()}")
    with app:
        app.start()
        parallel = app.submit(list(DOCUMENTS)).result()
        # the same deployed stack serves one call per document: each
        # item is the work method's argument, a one-document batch
        per_doc = app.map([[doc] for doc in DOCUMENTS]).results()

    identical = parallel == expected
    recombined = Counter()
    for counts in per_doc:
        recombined.update(counts)
    print(f"pipeline == sequential: {identical}")
    print(f"per-document submissions recombine identically: "
          f"{recombined == expected}\n")
    for word, count in expected.most_common(8):
        print(f"  {word:>10}: {count}")
    if not identical or recombined != expected:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
