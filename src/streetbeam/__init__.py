"""Street-canyon mmWave simulation, semantic rendering, and beam/blockage
prediction with floating feature selection."""

from .beams import dft_codebook, optimal_beam, topg_accuracy, trr
from .channel import (PathComponent, RayTraceConfig, TargetLostError,
                      assemble_channel, steering_vector, trace_paths)
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .dataset import ContainerError, read_container, write_container
from .featsel import (LOCATION, UNIVERSAL_FEATURES, CachedEvaluator,
                      EvaluatorError, FsState, canonical, sffs)
from .pipeline import (DEFAULT_G_LIST, DEFAULT_HORIZONS, PipelineError,
                       blockage_labels, cmd_eval, cmd_generate, cmd_report,
                       cmd_select, cmd_train, generate_dataset)
from .predictor import (ArchConfig, Predictor, SampleSet, TrainConfig,
                        TrainResult, accuracy, mask_channels, predict,
                        split_indices, train)
from .rng import derive_seed, stream
from .scene import (CameraPose, ConfigError, Frame, SceneConfig, VehicleClass,
                    advance_frame, generate_scenario)
from .semantics import CATALOG, CONCEPT_NAMES, ConceptCatalog, render_frame

__version__ = "0.1.0"
