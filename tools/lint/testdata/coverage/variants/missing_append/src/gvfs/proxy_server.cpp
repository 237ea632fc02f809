// Seeded violation: RecordInvalidation() still exists but no longer appends
// to the invalidation log. inv-coverage must catch it.
#include <cstdint>
#include <map>
#include <vector>

#include "proto.h"

namespace gvfs {

struct Fh {
  std::uint64_t ino = 0;
};

struct Request {
  int client = 0;
  int proc = 0;
  Fh fh;
};

struct ProcInfo {
  bool mutating = false;
  bool dir_op = false;
};

struct InvLog {
  void Append(const Fh& fh, int writer);
  std::uint32_t Drain(const Fh& fh, int client);
};

constexpr int kProcs[] = {
    nfs3::kGetAttr,
    nfs3::kWrite,
    nfs3::kRemove,
};

class ProxyServer {
 public:
  void Start();
  void HandleNfs(Request& req);

 private:
  ProcInfo Classify(int proc);
  void RecordInvalidation(int client, const Fh& fh);
  void Forward(Request& req);
  void HandleGetInv(Request& req);
  void HandleMigrate(Request& req);
  void RecallConflicts(int client, const Fh& fh);

  InvLog inv_log_;
};

void ProxyServer::Start() {
  RegisterHandler(kGetInv, HandleGetInv);
  RegisterHandler(kMigrate, HandleMigrate);
}

ProcInfo ProxyServer::Classify(int proc) {
  ProcInfo info;
  switch (proc) {
    case nfs3::kGetAttr:
      info.dir_op = false;
      break;
    case nfs3::kWrite:
      info.mutating = true;
      break;
    case nfs3::kRemove:
      info.mutating = true;
      info.dir_op = true;
      break;
  }
  return info;
}

void ProxyServer::HandleNfs(Request& req) {
  ProcInfo info = Classify(req.proc);
  if (info.mutating) {
    RecordInvalidation(req.client, req.fh);
  }
  Forward(req);
}

// The migrate-coverage rule anchors on this drain-before-switch chain:
// recall conflicting delegations, deliver the caller's owed invalidation
// for the file, and only then switch the mode.
void ProxyServer::HandleMigrate(Request& req) {
  RecallConflicts(req.client, req.fh);
  inv_log_.Drain(req.fh, req.client);
}

void ProxyServer::RecordInvalidation(int client, const Fh& fh) {
}

}  // namespace gvfs
