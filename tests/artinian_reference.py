"""Products in a monomial Artinian quotient A = R/(x1^a1, ..., xd^ad).

`ArtinianAlgebra` is `frobext.artinian.ArtinianAlgebra` with its product,
the flat matrix of multiplication by a fixed element, and the dimensions
over F_q and F_p: the tests build Hom complexes from them by hand.  No task
needs them; the cone and the Ext complexes read the carrier through `reduce`
and `space`.
"""

from frobext import artinian
from frobext.linalg import matrix_of_map


class ArtinianAlgebra(artinian.ArtinianAlgebra):
    def multiply(self, f, g):
        return self.reduce(self.ring.coerce(f) * g)

    def action_matrix(self, f):
        """Multiplication by f on the monomial basis, flattened over F_p."""
        return matrix_of_map(
            self.space.basis_elems(), lambda b: self.multiply(f, b), self.space, self.ring.field.p
        )

    @property
    def dim_fq(self):
        return len(self.space.mons)

    def dim_fp(self):
        return self.space.dim()
