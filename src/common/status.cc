#include "common/status.h"

#include <cerrno>
#include <cstring>

namespace anker {

namespace {

const char* CodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "InvalidArgument";
    case StatusCode::kNotFound:
      return "NotFound";
    case StatusCode::kAlreadyExists:
      return "AlreadyExists";
    case StatusCode::kOutOfRange:
      return "OutOfRange";
    case StatusCode::kIoError:
      return "IoError";
    case StatusCode::kAborted:
      return "Aborted";
    case StatusCode::kResourceBusy:
      return "ResourceBusy";
    case StatusCode::kNotSupported:
      return "NotSupported";
    case StatusCode::kInternal:
      return "Internal";
  }
  return "Unknown";
}

}  // namespace

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = CodeName(code_);
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

Status Status::IoErrorFromErrno(const char* what) {
  return IoError(std::string(what) + ": " + std::strerror(errno));
}

}  // namespace anker
