// Mini-HDFS nodes: HA NameNodes, DataNodes, and the TestDFSIO client.
#ifndef SRC_SYSTEMS_HDFS_HDFS_NODES_H_
#define SRC_SYSTEMS_HDFS_HDFS_NODES_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/sim/cluster.h"
#include "src/sim/failure_detector.h"
#include "src/systems/hdfs/hdfs_defs.h"

namespace cthdfs {

// Shared edit-log journal (the QJM stand-in): the active NameNode appends,
// the standby replays on failover. mid_write set across the write models the
// torn record a crash leaves behind.
struct Journal {
  int records = 0;
  bool mid_write = false;
};

struct HdfsJobState {
  bool done = false;
  bool failed = false;
};

class NameNode : public ctsim::Node {
 public:
  NameNode(ctsim::Cluster* cluster, std::string id, std::string peer, bool active,
           const HdfsArtifacts* artifacts, const HdfsConfig* config, Journal* journal);

  bool active() const { return active_; }
  const std::map<std::string, bool>& datanodes() const { return datanodes_; }

 protected:
  void OnStart() override;
  void OnHandlerException(const std::string& context, const ctsim::SimException& e) override;

 private:
  void RegisterDatanode(const ctsim::Message& m);
  void DnHeartbeat(const ctsim::Message& m);
  void CreateFile(const ctsim::Message& m);
  void GetBlockLocations(const ctsim::Message& m);
  void GetFsStatus(const ctsim::Message& m);
  void HandleDatanodeLost(const std::string& dn);
  void Promote();

  // Reads a datanode entry on the request path without revalidation — the
  // HDFS-14216 window. Throws when the node vanished during the wait.
  void CheckDatanodeLive(const std::string& dn, int point_id);

  ctsim::NodeId peer_;
  ctsim::Symbol nn_heartbeat_method_;
  bool active_;
  const HdfsArtifacts* artifacts_;
  const HdfsConfig* config_;
  Journal* journal_;

  std::map<std::string, bool> datanodes_;  // DatanodeManager.datanodeMap
  // Datanodes removeDeadDatanode already expired, by removal time. A
  // heartbeat from one can only arrive through a healed partition (dead DNs
  // never speak again, decommissioned ones unregister first) — the seeded
  // message race of network-fault mode. The race is live only while the
  // removal's re-replication bookkeeping is still in flight; later stale
  // heartbeats take the benign re-registration path. Either way the
  // tombstone is cleared on first contact.
  std::map<std::string, ctsim::Time> removed_datanodes_;
  std::map<std::string, std::vector<std::string>> block_locations_;
  struct FileRecord {
    std::vector<std::string> blocks;
    int pending = 0;
    std::string client;
  };
  std::map<std::string, FileRecord> files_;  // FSDirectory.inodeMap
  std::unique_ptr<ctsim::FailureDetector> dn_fd_;
  std::unique_ptr<ctsim::FailureDetector> peer_fd_;
  size_t placement_rr_ = 0;
};

class DataNode : public ctsim::Node {
 public:
  DataNode(ctsim::Cluster* cluster, std::string id, std::string nn, const HdfsArtifacts* artifacts,
           const HdfsConfig* config);

  bool registered() const { return registered_; }

 protected:
  void OnStart() override;
  void OnShutdown() override;

 private:
  void BlockReport();

  ctsim::NodeId current_nn_;
  ctsim::Symbol dn_heartbeat_method_;
  const HdfsArtifacts* artifacts_;
  const HdfsConfig* config_;
  bool registered_ = false;  // BPOfferService.bpRegistration received
  std::set<std::string> stored_blocks_;
};

class HdfsClient : public ctsim::Node {
 public:
  HdfsClient(ctsim::Cluster* cluster, std::string id, std::string nn, int num_files,
             const HdfsArtifacts* artifacts, const HdfsConfig* config, HdfsJobState* job);

  void StartWorkload();

 private:
  void NextOp();
  void RetryCheck(int op_serial);

  std::string current_nn_;
  int num_files_;
  const HdfsArtifacts* artifacts_;
  const HdfsConfig* config_;
  HdfsJobState* job_;

  int current_file_ = 0;
  enum class Phase { kWrite, kRead, kDone } phase_ = Phase::kWrite;
  int op_serial_ = 0;
  int attempts_ = 0;
};

}  // namespace cthdfs

#endif  // SRC_SYSTEMS_HDFS_HDFS_NODES_H_
