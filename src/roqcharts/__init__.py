"""Exact-arithmetic RO(Q)-graded coefficient charts for the group of
order two, computed by four cross-validating pipelines: a cellular
oracle, the fixed-point spectral sequence plus the Tate square, the
vbar-Bockstein spectral sequence, and closed-form block models."""
