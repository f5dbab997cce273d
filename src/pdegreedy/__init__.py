"""Greedy snapshot sampling and sinusoidal-network regression for PDE
coefficient recovery."""

__version__ = "0.1.0"

from .features import (DomainScales, FeatureTerm, PdeSpec, PRESETS, Preset,
                       build_theta, get_pde_spec, load_pde_spec,
                       mse_loss, physical_u_t, preset, relative_error,
                       solve_parameters, term, total_loss)
from .linalg import (RankDeficiencyError, SvdConvergenceError, SvdFactors, pivoted_qr,
                     qr_least_squares, svd)
from .sampling import (QdeimConfig, SampleSet, qdeim_grid, qdeim_sample, qdeim_window,
                       random_sample, sample_size_grid, select_rank)
from .siren import (Jet, SirenNet, forward, forward_jet, forward_jet_with_cache,
                    init_siren, jet_backward, load_checkpoint, save_checkpoint)
from .snapshots import (IntegrationBlowupError, SnapshotMatrix, SnapshotParseError,
                        generate_synthetic, load_snapshot, save_snapshot,
                        subdivide_time)
from .training import (AdamState, TrainConfig, TrainResult, adam_step, cyclic_lr,
                       summary_dict, train, write_trajectory_csv)
from .experiments import (ClusterSummary, ExperimentRecord, SweepConfig,
                          cluster_records, eps_grid, export_results, kmeans,
                          lloyd, read_results, sweep_greedy, sweep_random)
