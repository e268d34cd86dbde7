"""Bayesian meta-gradients two ways: implicit (CG) and unrolled backprop.

Library for computing the meta-gradient of a variational Bayesian
meta-learning objective either through implicit differentiation of the inner
optimum (conjugate gradient against Hessian-vector products) or by
reverse-mode differentiation through the recorded inner gradient-descent
trace, with an exact linear-Gaussian oracle for validation.
"""

from .calibration import ece_mce, posterior_predictive_probs
from .hyper_implicit import (CgConfig, NegativeCurvatureError, apply_g,
                             conjugate_gradient, h_operator,
                             implicit_meta_gradient)
from .hyper_unrolled import fd_meta_gradient, unrolled_meta_gradient
from .inner_opt import (InnerConfig, InnerDivergenceError, InnerTrace,
                        closed_form_linear_optimum, run_inner_gd)
from .linear_oracle import (DenseBilevelSnapshot, dense_snapshot,
                            fd_jacobian_of_optimum, nrmse, oracle_dense_g,
                            oracle_dense_h, oracle_meta_gradient)
from .meta_driver import (BlobTaskSpec, MetaConfig, StepReport, TaskGenSpec,
                          checkpoint_from_json, checkpoint_to_json,
                          generate_blob_tasks, generate_linear_tasks,
                          imaml_prior, meta_step, sample_batch,
                          task_meta_gradient)
from .meta_loss import (MetaGradient, MetaLossSpec, meta_loss_grads,
                        meta_loss_value)
from .models import (GradientOracle, LinearGaussianModel, MLPModel, TaskData,
                     mlp_param_count)
from .vi_core import (PriorParams, TangentVector, VariationalParams,
                      central_fd, derive_seed, kl_diag_gaussian, kl_grad,
                      raw_to_log_grad, sample_params, standard_normal)

__version__ = "0.1.0"
