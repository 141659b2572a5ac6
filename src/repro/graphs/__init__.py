"""Graph substrate: generators, the evaluation suite, stats, ground truth."""
