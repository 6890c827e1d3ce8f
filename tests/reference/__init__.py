"""Executable specifications kept test-side as oracles for the production code."""
