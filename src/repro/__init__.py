"""repro — probabilistic databases from imprecise time-series data.

A from-scratch reproduction of Sathe, Jeung & Aberer, *Creating
Probabilistic Databases from Imprecise Time-Series Data* (ICDE 2011).

The pipeline has two key components (paper Fig. 2):

1. **Dynamic density metrics** (:mod:`repro.metrics`) infer a
   time-dependent probability density ``p_t(R_t)`` for every raw value from
   the sliding window preceding it — uniform/variable thresholding
   baselines, the ARMA-GARCH and Kalman-GARCH metrics, and the
   error-robust C-GARCH enhancement.
2. **The Omega-view builder** (:mod:`repro.view`) turns those densities
   into tuple-independent probabilistic views, optionally through the
   sigma-cache, which reuses probability rows across time steps under
   provable Hellinger-distance and memory guarantees.

Quickstart::

    from repro import (ARMAGARCHMetric, OmegaGrid, campus_temperature,
                       create_probabilistic_view)

    series = campus_temperature(2000)
    view = create_probabilistic_view(
        series, ARMAGARCHMetric(), H=60, grid=OmegaGrid(delta=0.5, n=20))
    print(view.tuples_at(view.times[0]))
"""

from repro.data.errors import InjectionResult, inject_errors
from repro.data.loaders import dataset_summary, load_series_csv, save_series_csv
from repro.data.synthetic import (
    campus_humidity,
    campus_temperature,
    car_gps,
    make_dataset,
)
from repro.db.stream_queries import (
    exceedance_probability,
    expected_time_above,
    sustained_exceedance_probability,
    windowed_expected_value,
)
from repro.db.worlds import (
    MonteCarloEstimate,
    World,
    WorldSampler,
    conjunctive_range_query,
    monte_carlo_query,
)
from repro.db.engine import Database
from repro.db.prob_view import ProbTuple, ProbabilisticView
from repro.db.queries import (
    expected_value_query,
    most_probable_range_query,
    range_probability_query,
    threshold_query,
)
from repro.db.table import Table
from repro.evaluation import (
    ArchTestResult,
    density_distance,
    density_distance_from_pit,
    engle_arch_test,
    rolling_arch_test,
)
from repro.exceptions import (
    CacheConstraintError,
    DataError,
    EstimationError,
    InvalidParameterError,
    NotFittedError,
    ParseError,
    QueryError,
    ReproError,
    SchemaVersionError,
    StoreError,
)
from repro.store import (
    AppendResult,
    Catalog,
    SeriesHandle,
    SeriesSnapshot,
    StandingQuery,
    StandingQueryHandle,
    load_density_series_npz,
    load_view_npz,
    save_density_series_npz,
    save_view_npz,
)
from repro.service import (
    CatalogQueryService,
    MatrixCache,
    StatementResult,
)
from repro.server import (
    Client,
    QueryServer,
    ServerError,
    ServerThread,
)
from repro.connection import Connection, connect
from repro.cleaning import SVRResult, learn_sv_max, successive_variance_reduction
from repro.evaluation.calibration import CalibrationReport, calibration_report
from repro.metrics import (
    ARMAGARCHMetric,
    CGARCHMetric,
    CGARCHReport,
    DensityForecast,
    DensitySeries,
    DynamicDensityMetric,
    KalmanGARCHMetric,
    UniformThresholdingMetric,
    VariableThresholdingMetric,
    available_metrics,
    create_metric,
)
from repro.metrics.ewma import EWMAMetric
from repro.pipeline import OnlinePipeline, create_probabilistic_view
from repro.timeseries import (
    ARMAModel,
    ARMAParams,
    GARCHModel,
    GARCHParams,
    KalmanFilter,
    KalmanParams,
    TimeSeries,
)
from repro.view import (
    OmegaGrid,
    OmegaRange,
    SigmaCache,
    ViewBuilder,
    ViewQuery,
    hellinger_distance,
    ratio_threshold_for_distance,
    ratio_threshold_for_memory,
)

__version__ = "1.0.0"

__all__ = [
    "ARMAGARCHMetric",
    "ARMAModel",
    "ARMAParams",
    "AppendResult",
    "ArchTestResult",
    "Catalog",
    "CGARCHMetric",
    "CGARCHReport",
    "CacheConstraintError",
    "CalibrationReport",
    "CatalogQueryService",
    "Client",
    "Connection",
    "DataError",
    "Database",
    "DensityForecast",
    "DensitySeries",
    "DynamicDensityMetric",
    "EWMAMetric",
    "EstimationError",
    "GARCHModel",
    "GARCHParams",
    "InjectionResult",
    "InvalidParameterError",
    "KalmanFilter",
    "KalmanGARCHMetric",
    "KalmanParams",
    "MatrixCache",
    "MonteCarloEstimate",
    "NotFittedError",
    "OmegaGrid",
    "OmegaRange",
    "OnlinePipeline",
    "ParseError",
    "ProbTuple",
    "ProbabilisticView",
    "QueryError",
    "QueryServer",
    "ReproError",
    "SVRResult",
    "SchemaVersionError",
    "SeriesHandle",
    "SeriesSnapshot",
    "ServerError",
    "ServerThread",
    "SigmaCache",
    "StandingQuery",
    "StatementResult",
    "StandingQueryHandle",
    "StoreError",
    "Table",
    "TimeSeries",
    "UniformThresholdingMetric",
    "VariableThresholdingMetric",
    "ViewBuilder",
    "ViewQuery",
    "World",
    "WorldSampler",
    "available_metrics",
    "calibration_report",
    "campus_humidity",
    "campus_temperature",
    "car_gps",
    "conjunctive_range_query",
    "connect",
    "create_metric",
    "create_probabilistic_view",
    "dataset_summary",
    "density_distance",
    "density_distance_from_pit",
    "engle_arch_test",
    "exceedance_probability",
    "expected_time_above",
    "expected_value_query",
    "hellinger_distance",
    "inject_errors",
    "learn_sv_max",
    "load_density_series_npz",
    "load_series_csv",
    "load_view_npz",
    "make_dataset",
    "monte_carlo_query",
    "most_probable_range_query",
    "range_probability_query",
    "ratio_threshold_for_distance",
    "ratio_threshold_for_memory",
    "rolling_arch_test",
    "save_density_series_npz",
    "save_series_csv",
    "save_view_npz",
    "successive_variance_reduction",
    "sustained_exceedance_probability",
    "threshold_query",
    "windowed_expected_value",
]
