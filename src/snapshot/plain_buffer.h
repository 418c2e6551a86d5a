#ifndef ANKER_SNAPSHOT_PLAIN_BUFFER_H_
#define ANKER_SNAPSHOT_PLAIN_BUFFER_H_

#include <memory>

#include "snapshot/snapshotable_buffer.h"
#include "vm/map_region.h"
#include "vm/page.h"

namespace anker::snapshot {

/// Plain anonymous memory without snapshot support. Used by the
/// homogeneous configurations of the engine, where OLAP transactions scan
/// the live, versioned representation directly.
class PlainBuffer : public SnapshotableBuffer {
 public:
  static Result<std::unique_ptr<PlainBuffer>> Create(size_t size);

  Result<std::unique_ptr<SnapshotView>> TakeSnapshot() override {
    return Status::NotSupported("PlainBuffer cannot snapshot");
  }

  /// Anonymous private pages: MADV_DONTNEED frees them and reads fault
  /// back as zeros.
  Status ReleaseRange(size_t offset, size_t len) override {
    return region_.DontNeed(offset, vm::RoundUpToPage(len));
  }

  const char* name() const override { return "plain"; }

 private:
  explicit PlainBuffer(vm::MapRegion region);

  vm::MapRegion region_;
};

}  // namespace anker::snapshot

#endif  // ANKER_SNAPSHOT_PLAIN_BUFFER_H_
