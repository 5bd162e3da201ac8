"""Finite-approximation re-metrization toolkit.

Closed subsets of the space of natural-number sequences as pruned trees,
zero-dimensional spaces embedded through refining clopen schemes, sets of
forall-exists form carried by least-witness closures, the summed metric that
makes a designated set clopen while extending the topology, and bit-exact
codes of the resulting rational metrics.
"""

from .baire import (BairePoint, disagreement_distance, eventually_periodic, exact_distance,
                    first_disagreement, pair_points, slice_point)
from .coding import (SeqCode, decode, encode, lh, pair_code, pair_count, pair_position,
                     quad_code)
from .codes import RationalMetricTable, decode_metric, encode_metric, render_code_file
from .luzin import (LuzinScheme, ZeroDimPresentation, baire_closed_presentation,
                    cantor_presentation, discrete_presentation, rescale)
from .remetrize import (ClosedRepresentation, SumSpace,
                        epsilon_code, extension_certificate, identity_representation,
                        interleave, membership_in_a, open_ball_distance,
                        sum_distance, witness_representation)
from .trees import (DensePointFamily, PrunedTree, dense_equal, dense_pn_distance,
                    validate_pruned)
from .witness import Pi02Matrix, WitnessClosure

__version__ = "0.1.0"
