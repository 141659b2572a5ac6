"""Experiment harnesses: one function per paper table, run by jobs/. Results
are written as markdown under results/ and transcribed into EXPERIMENTS.md
next to the paper's numbers."""
