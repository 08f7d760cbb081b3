"""``repro.pointcloud`` — LiDAR data substrate.

Provides everything the paper gets from KITTI + Velodyne hardware:
oriented 3D boxes with exact rotated IoU, a ray-casting LiDAR simulator,
a synthetic scene generator, KITTI-format file IO, and the pillar/voxel
encoders that feed the detectors.
"""

from .boxes import (CLASS_IDS, CLASS_NAMES, Box3D, array_to_boxes,
                    bev_corners, bev_intersection_area, boxes_to_array,
                    clip_polygon, iou_3d, iou_bev, iou_matrix_3d,
                    iou_matrix_bev, iou_pairs_bev, points_in_box,
                    polygon_area)
from .kitti import export_kitti, load_kitti, read_labels, write_labels
from .lidar import LidarConfig, LidarScanner
from .scenes import (SCENARIOS, Scene, SceneConfig, SceneGenerator,
                     ScenarioGenerator, ScenarioSpec, get_scenario,
                     make_dataset, make_scenario_scenes, scenario_digest,
                     scenario_names, scene_digest)
from .voxelize import (PillarConfig, PillarEncoder, Pillars, VoxelConfig,
                       VoxelEncoder, Voxels)

__all__ = [
    "Box3D", "boxes_to_array", "array_to_boxes", "bev_corners",
    "polygon_area", "clip_polygon", "bev_intersection_area", "iou_bev",
    "iou_3d", "iou_pairs_bev", "iou_matrix_bev", "iou_matrix_3d",
    "points_in_box",
    "CLASS_NAMES", "CLASS_IDS",
    "LidarConfig", "LidarScanner",
    "Scene", "SceneConfig", "SceneGenerator", "make_dataset",
    "ScenarioSpec", "ScenarioGenerator", "SCENARIOS", "scenario_names",
    "get_scenario", "make_scenario_scenes", "scene_digest",
    "scenario_digest",
    "PillarConfig", "PillarEncoder", "Pillars",
    "VoxelConfig", "VoxelEncoder", "Voxels",
    "export_kitti", "load_kitti", "read_labels", "write_labels",
]
