"""voxsynth: randomised synthetic 3D images from anatomical label maps.

The generator turns a label map into an unlimited stream of (image, target)
training pairs with fully randomised morphology, contrast, artefacts, and
acquisition resolution; companion modules provide NIfTI I/O, segmentation
metrics and postprocessing, and EM-based label subdivision.
"""

from .clustering import Gmm1D, apply_parent_mapping, em_fit_1d, subdivide_labels
from .config import ConfigError, GeneratorConfig, load_config
from .deform import (
    AffineParams,
    DeformationField,
    SVF,
    compose_transforms,
    integrate_svf,
    jacobian_determinant,
    sample_affine,
    sample_svf,
    upsample_svf,
    warp_labels,
)
from .intensity import (
    GmmParams,
    apply_bias,
    rescale_minmax,
    sample_gmm_params,
    synth_gmm_image,
)
from .manifest import SampleManifest
from .metrics import (
    MetricsReport,
    MissingStructureError,
    ProbMap,
    cohens_d,
    evaluate_volumes,
    fill_holes,
    hard_dice,
    largest_cc,
    postprocess_labels,
    sd95,
    soft_dice_loss,
    soft_volume,
)
from .nifti import read_nifti, write_nifti
from .phantom import demo_phantom
from .pipeline import (
    BatchResult,
    PipelineError,
    SamplePair,
    generate_batch,
    generate_sample,
    preprocess_for_inference,
    replay_manifest,
)
from .resolution import ResolutionParams, blur_axis, sample_resolution, simulate_lr, thickness_sigma
from .schema import LabelSchema, SchemaError, load_schema
from .target import build_target
from .volume import LabelPairTable, Volume, flip_lr, resample

__version__ = "0.1.0"
