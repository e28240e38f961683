"""Street-canyon mmWave simulation, semantic rendering, and beam/blockage
prediction with floating feature selection."""

from .beams import dft_codebook, optimal_beam, topg_accuracy, trr
from .channel import RayTraceConfig, assemble_channels, trace_paths
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .dataset import ContainerError, read_container, write_container
from .featsel import (LOCATION, UNIVERSAL_FEATURES, CachedEvaluator,
                      EvaluatorError, canonical, sffs)
from .pipeline import (DEFAULT_G_LIST, DEFAULT_HORIZONS, PipelineError, RunConfig,
                       blockage_labels, cmd_eval, cmd_generate, cmd_report,
                       cmd_select, cmd_train, generate_dataset)
from .predictor import (ArchConfig, Predictor, SampleSet, TrainConfig,
                        accuracy, predict, split_indices, train)
from .rng import derive_seed, stream
from .scene import (CameraPose, ConfigError, Frame, SceneConfig, VehicleClass,
                    generate_scenario)
from .semantics import CATALOG, CONCEPT_NAMES

__version__ = "0.1.0"
