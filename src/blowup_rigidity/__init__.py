"""Exact-arithmetic verification of automorphism rigidity for blow-ups of
a product of projective lines at a torsion-stable point configuration."""
