"""tanglekit: link invariants for rational-move calculus.

Fox coloring groups, finite Kei and their Burnside quotients, the
600-element braid quotient, rational tangle moves, and the exact Jones
obstruction at a fifth root of unity.
"""

from .coloring import (
    AbelianGroupStructure,
    col_group,
    coloring_matrix,
    count_colorings_brute,
    has_nontrivial_colorings,
    smith_normal_form,
)
from .corpus import corpus, corpus_entry, corpus_names
from .diagrams import (
    BraidWord,
    LinkDiagram,
    braid,
    braid_closure,
    delta3,
    parse_braid,
    parse_pd,
    unlink,
)
from .jones import (
    CyclotomicValue,
    determinant,
    eval_at_fifth_root,
    five_move_obstruction,
    jones,
    jones_at_fifth_root,
    kauffman_bracket,
    writhe,
)
from .kei import (
    FiniteKei,
    check_axioms,
    core_kei,
    dihedral_kei,
    kei_isomorphic,
    kei_product,
    phi_eval,
    trivial_kei,
)
from .laurent import LaurentPoly
from .presentation import (
    EnumerationResult,
    KeiPresentation,
    burnside_kei,
    enumerate_kei,
    fundamental_kei,
    kernel_backend,
    q_kei,
    r_n_relation,
)
from .braids import (
    QuotientGroup,
    burau_image,
    braids_equal,
    conjugacy_census,
    coxeter_quotient,
    quotient_image,
    verify_reduction_chains,
)
from .tangles import (
    Comp,
    Leaf,
    RationalTangle,
    TangleExpr,
    TwistLeaf,
    apply_rational_move,
    cf_expand,
    closure_diagram,
    embedding_obstruction,
    fraction_of_twists,
    parse_expr,
    rotate,
    serialize_expr,
    tangle_diagram,
)

__version__ = "0.1.0"
