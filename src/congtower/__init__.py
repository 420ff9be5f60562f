"""congtower: exact computation with congruence subgroups of rank-1 lattices.

Subpackages by task:

- ``rings``          exact number-ring arithmetic, prime ideals, residue rings
- ``intmat``         Hermite/Smith normal forms, abelian invariants
- ``ringmat``        matrices over number rings, form preservation checks
- ``poly``           the affine identity test for the conjugation displays
- ``presentations``  finitely presented groups and the presentation file format
- ``coset``          orbits, Todd-Coxeter enumeration and Reidemeister-Schreier
- ``congsub``        finite matrix groups over residue rings, closures
- ``bttree``         Bruhat-Tits tree models, canonical lattice vertices, BFS
- ``tower``          congruence tower construction with machine-checkable
                     containment certificates
- ``catalog``        the built-in example lattices (forms, swaps, levels)
- ``homology``       the congruence-kernel abelianization pipeline
- ``cli``            command line entry points
"""

__version__ = "0.1.0"
