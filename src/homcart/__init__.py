"""Exact-arithmetic toolkit for bounded complexes of finitely generated free
modules over Z and Z/m.

The integer kernel (`intmat`) provides Smith normal form with transformation
witnesses, linear solving over Z and Z/m, and finitely generated abelian group
presentations.  On top of it, `complexes` implements bounded complexes, chain
maps, homotopy decision, mapping cones and Hom-groups in the homotopy
category; `triangles` and `squares` verify distinguished triangles and decide
homotopy-cartesianess of commutative squares, returning yes-witnesses or
modular refutation certificates; `unitlemma` constructs unit certificates of
the form 1 + e + a*e^2 over representable rings; `suite` bundles the built-in
counterexample datasets, the end-to-end verification pipeline and a
deterministic fuzzer.
"""

from .intmat import (
    IntMatrix,
    SmithDecomposition,
    FGAbelianGroup,
    smith_normal_form,
    solve_linear,
    cokernel,
)
from .complexes import (
    Ring,
    ZZ,
    Zmod,
    Complex,
    ChainMap,
    Homotopy,
    shift,
    cone,
    homotopic,
    is_contractible,
    is_homotopy_equivalence,
    homology,
    hom_group,
    reduce_mod,
)
from .triangles import (
    Triangle,
    TriangleMorphism,
    standard_triangle,
    rotate,
    rotation_witness,
    verify_distinguished_with_witness,
    verify_triangle_morphism,
)
from .unitlemma import (
    FiniteAlgebra,
    FpMatrix,
    PolynomialRelation,
    QMatrix,
    ResidueElement,
    UnitCertificate,
    find_alpha,
    find_alpha_over_Z,
    find_beta,
    polynomial_relation,
)
from .suite import (
    Lemma2Instance,
    PaperReport,
    Prop2Replay,
    StarDiagram,
    build_star,
    fuzz_prop2,
    lemma2,
    lemma2_verify,
    prop2_replay,
    verify_paper,
)
from .squares import (
    CommutativeSquare,
    DiagonalSequence,
    Constraint,
    SearchConfig,
    Verdict,
    diagonal,
    find_compatible_equivalence,
    is_homotopy_cartesian,
    fits_vertical_iso,
    reduce_square,
    rotation_comparison,
    square_from_cone,
)

__version__ = "0.1.0"
