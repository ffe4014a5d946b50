#include "common/status.h"

namespace ma {
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
    case StatusCode::kInternal:
      return "Internal";
    case StatusCode::kUnimplemented:
      return "Unimplemented";
    case StatusCode::kCancelled:
      return "Cancelled";
    case StatusCode::kDeadlineExceeded:
      return "DeadlineExceeded";
    case StatusCode::kResourceExhausted:
      return "ResourceExhausted";
    case StatusCode::kUnavailable:
      return "Unavailable";
  }
  return "Unknown";
}

}  // namespace

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string s = CodeName(code_);
  s += ": ";
  s += message_;
  return s;
}

}  // namespace ma
