#!/usr/bin/env python3
"""Pipeline strategy on the declarative API: streaming word count.

One pipeline stage per text-processing role (normalise → tokenise →
filter → count); document batches stream through the stages and the
final Counters merge.  ``app.map`` submits several document batches and
hands back one future per batch — the futures-first face of the same
stack.

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
        # the same deployed stack serves overlapped requests: every
        # in-flight call owns its per-call ticket, so all four
        # submissions stream through the stages concurrently
        futures = [app.submit([doc]) for doc in DOCUMENTS]
        per_doc = [future.result() for future in futures]
        overlapped = app.peak_in_flight

    identical = parallel == expected
    recombined = Counter()
    for counts in per_doc:
        recombined.update(counts)
    print(f"pipeline == sequential: {identical}")
    print(f"per-document submissions recombine identically: "
          f"{recombined == expected}")
    print(f"peak in-flight calls on one deployed pipeline: {overlapped}\n")
    for word, count in expected.most_common(8):
        print(f"  {word:>10}: {count}")
    if not identical or recombined != expected:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
