"""Ridge-regularized depth-2 nets: coercivity diagnostics, minibatch SGD, and
the theorem's SGD (Euler-Maruyama at dt = s) with its Fokker-Planck mixing."""

from . import activations, datasets, diagnostics, dynamics, fpe, harness, model, rules
from .activations import Activation, make as make_activation
from .datasets import DataRecipe, corrupt_labels, gen_sine
from .diagnostics import VillaniReport, v_s, villani_scan
from .dynamics import DivergenceError, InitSpec, SgdConfig, Trajectory, run_sde, run_sgd
from .fpe import FpeGrid, GibbsMeasure, build_grid, decay_rate, spectral_gap
from .harness import AblationConfig, SweepConfig, run_ablation, run_sweep
from .model import Dataset, LossSpec, Net, glip_bound, grad, lambda_c, laplacian, loss

__version__ = "0.1.0"
