"""radiant: geometry and evaluation toolkit for neural-field scenes.

Library modules:
  core_math   poses, cameras, rays, rotations, positional encodings
  fields      SDF and radiance field abstractions with analytic oracles
  octree      octree LoD surface extraction + dense narrowband baseline
  render      compositing; render_full: near/far rendering with box editing
  gridsample  radiance-field to RGBA voxel grid extraction and resampling
  masking     3D patch masking and masked-reconstruction objectives
  projmaps    semantic maps, center heatmaps, feature lifting, triplanes
  metrics     Chamfer / IoU / AP / pose / voxel / navigation metrics
  io          NFVG, PLY, PPM and JSON formats, field and shape specs
  cli         `radiant` command-line front end
"""

from .core_math import (
    Aabb,
    Intrinsics,
    Pose,
    Ray,
    backproject_pixel,
    gaussian_pe_kernel,
    project_point,
    sinusoidal_pe,
    svd_plus,
)
from .errors import RadiantError
from .fields import (
    ConstantField,
    GridField,
    RadianceField,
    SdfField,
    sdf_normal,
)
from .grids import VoxelGrid4D
from .gridsample import compute_scene_bounds, resample_grid, sample_grid
from .io import make_analytic_sdf
from .masking import (
    PatchMask,
    apply_mask,
    patchify,
    psnr3d,
    random_mask,
    recon_losses,
)
from .metrics import (
    BoxBatch,
    DetectionAp,
    OrientedBox3,
    PoseAp,
    PoseBatch,
    PoseRecord,
    Trajectory,
    chamfer,
    detection_ap,
    iou3d,
    nav_metrics,
    pose_ap,
    pose_errors,
    voxel_label_metrics,
)
from .octree import (
    ExtractionStats,
    LodConfig,
    SurfaceSamples,
    dense_extract,
    extract_surface,
    project_to_surface,
)
from .projmaps import (
    SemanticMap,
    SemanticMapConfig,
    TriplaneSet,
    build_semantic_map,
    collapse_to_triplanes,
    detect_peaks,
    lift_features_to_grid,
    sample_image_feature,
    sample_param_map,
    sample_triplane,
    splat_heatmap,
)
from .render import (
    CompositeResult,
    RaySamples,
    RenderConfig,
    composite,
    contract_nerfpp,
    distortion_reg,
    render_full,
    stratified_samples,
)

__version__ = "0.1.0"
