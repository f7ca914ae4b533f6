// SSD-mini: single-shot detector with two head scales and a choice of
// backbone ("mobilenet" or "resnet" — the paper's Fig-4b compares two
// detectors; see DESIGN.md §2.4 for the FasterRCNN substitution).
#pragma once

#include <string>
#include <vector>

#include "src/datasets/detection_metrics.h"
#include "src/graph/builder.h"
#include "src/interpreter/session.h"
#include "src/preprocess/image.h"

namespace mlexray {

struct SsdModel {
  Graph model;  // training graph; outputs = {cls8, box8, cls4, box4}
  std::vector<int> grid_sizes{8, 4};
  std::vector<float> anchor_sizes{0.25f, 0.5f};
  int num_classes = 4;  // background excluded; head predicts classes+1
};

// backbone: "mobilenet" (depthwise blocks) or "resnet" (residual convs).
// batch > 1 builds the mini-batch training twin.
SsdModel build_ssd_mini(const std::string& backbone, std::uint64_t seed,
                        int batch = 1);

struct Anchor {
  float cx, cy, size;
};
// All anchors in head order (scale-major, row-major cells).
std::vector<Anchor> ssd_anchors(const SsdModel& ssd);

// Per-anchor classification targets (0 = background, c+1 = class c;
// -1 = ignore) and box regression targets for one example.
struct SsdTargets {
  std::vector<int> labels;          // size = total anchors
  std::vector<bool> positive;       // box-loss mask
  std::vector<float> box_deltas;    // [anchors, 4] (dcx, dcy, dw, dh)
};
SsdTargets encode_ssd_targets(const SsdModel& ssd,
                              const std::vector<DetObject>& objects,
                              float match_iou = 0.45f);

// Trains in place on sensor examples via the given (correct) pipeline.
void train_ssd(SsdModel* ssd, const std::vector<DetExample>& train_set,
               int epochs, std::uint64_t seed);

// Runs a deployed variant of the model (same node names / output order) on
// one preprocessed input and decodes + NMS-filters predictions.
std::vector<DetPrediction> ssd_predict(const SsdModel& ssd, Session& session,
                                       const Tensor& input);

// End-to-end mAP of a deployed model over sensor examples using a possibly
// buggy preprocessing pipeline.
double evaluate_ssd_map(const SsdModel& ssd, const Graph& deployed,
                        const OpResolver& resolver,
                        const std::vector<DetExample>& examples,
                        const ImagePipelineConfig& pipeline);

}  // namespace mlexray
