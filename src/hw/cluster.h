// A homogeneous multi-GPU node: N identical devices on one interconnect.
#ifndef SRC_HW_CLUSTER_H_
#define SRC_HW_CLUSTER_H_

#include <memory>
#include <string>
#include <vector>

#include "src/hw/gpu_spec.h"
#include "src/hw/interconnect.h"
#include "src/sim/device.h"

namespace flo {

struct ClusterSpec {
  GpuSpec gpu;
  InterconnectSpec link;
  int gpu_count = 0;

  std::string Describe() const;

  bool operator==(const ClusterSpec&) const = default;
};

// Paper testbed factories.
ClusterSpec Make4090Cluster(int gpu_count);
ClusterSpec MakeA800Cluster(int gpu_count);
ClusterSpec MakeAscendCluster(int gpu_count);

// Instantiated simulated devices for a cluster spec.
class Cluster {
 public:
  explicit Cluster(ClusterSpec spec);

  const ClusterSpec& spec() const { return spec_; }
  int gpu_count() const { return spec_.gpu_count; }
  Device& device(int rank);
  const Device& device(int rank) const;

 private:
  ClusterSpec spec_;
  std::vector<std::unique_ptr<Device>> devices_;
};

}  // namespace flo

#endif  // SRC_HW_CLUSTER_H_
