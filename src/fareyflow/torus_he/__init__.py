"""Numerics on a flat complex torus: constant-curvature model bundles,
theta sections, second fundamental forms, the trace-integral check,
conformal normalization, and the metric energy functional with its flow.
"""

from .grid import TorusGrid
from .twist import TwistData, WeylTransform
from .fields import (ConnectionField, EndoField, MetricField, SectionField,
                     dump_grid_csv, identity_metric, load_grid_csv)
from .model import ModelBundle, build_model_bundle, theta_section
from .hermitian import (ConformalResult, SecondFundamentalForm, ThresholdProbe,
                        chern_weil_check, conformal_normalize,
                        curvature_defect, he_residual,
                        i_lambda_F_metric, second_fundamental_form,
                        threshold_probe)
from .donaldson import (FlowResult, donaldson_flow, donaldson_functional,
                        metric_log, phi_multiplier, random_twisted_hermitian)

__all__ = [
    "TorusGrid", "TwistData", "WeylTransform",
    "ConnectionField", "EndoField", "MetricField", "SectionField",
    "dump_grid_csv", "identity_metric", "load_grid_csv",
    "ModelBundle", "build_model_bundle", "theta_section",
    "ConformalResult", "SecondFundamentalForm", "ThresholdProbe",
    "chern_weil_check", "conformal_normalize", "curvature_defect", "he_residual",
    "i_lambda_F_metric", "second_fundamental_form", "threshold_probe",
    "FlowResult", "donaldson_flow", "donaldson_functional", "metric_log",
    "phi_multiplier", "random_twisted_hermitian",
]
