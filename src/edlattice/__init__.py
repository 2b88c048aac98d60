"""Essential p-dimension of finite diagonalizable group schemes.

The input is a finite group acting on a finitely generated abelian group
whose torsion is p-primary (the character module of a diagonalizable
group over a p-closed field).  The answer is the minimal rank of a
permutation lattice mapping onto the module with finite cokernel of
order prime to p, minus the module's free rank.
"""
