"""Dimension and pressure analyses of conformal graph-directed Markov systems."""

from .dimension import (ComponentDimensionReport, DimensionEstimate,
                        MeasureClassification, TruncationSweep, bowen_dimension,
                        classify_hausdorff_measure, component_dimensions,
                        truncation_sweep)
from .errors import (ConvergenceError, DomainError, GdmsError, InputError, NotApplicableError,
                     ResourceGuardError, SpecError, UnsupportedAnalysisError)
from .graph import (Edge, IncidenceSpec, MatrixProperties, MultiGraph, SccReport,
                    enumerate_words, is_admissible, matrix_properties,
                    scc_decompose)
from .maps import MoebiusCfFamily, SimilarityFamily, SimilarityMap, VertexSpace
from .sampling import (BoxCount, LimitPointSample, box_dimension, sample_points)
from .specfile import parse_spec, serialize_spec
from .system import (GdmsSystem, cf_system, diameter_bound, empty_limit_set,
                     full_shift, prune, similarity_system, validate)
from .thermo import (CylinderMeasure, FinitenessReport, PartitionSum,
                     PressureEstimate, conformal_cylinder_measure,
                     finiteness_parameters, partition_sum, pressure)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
