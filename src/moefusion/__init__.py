"""Sparse mixture-of-experts LM with shallow-fusion decoding, in pure numpy."""
